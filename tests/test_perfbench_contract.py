"""The benchmark's warm-up queries still give their recorded answers.

Every workload in perfbench/ runs one cheap warm-up spec per query kind
before it times anything.  Here each of them runs through
perfbench/queries.py: its answer digest must equal the one recorded in
perfbench/reference.json, and its independent check must pass.  So an
API change that would make a benchmark run fail its queries fails here
first.  Every spec of the `threshold` workload (about 2 s in all) is run
the same way, so a change in the printed form of a basis or witness
fails here too.  perfbench/ is only read.
"""

import json
import os
import sys

import pytest

from powerpoly.groebner import StepCounter

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

from queries import Query, digest  # noqa: E402
from workloads import THRESHOLD, WORKLOADS, pool, spec_key  # noqa: E402

with open(os.path.join(PERFBENCH, "reference.json"), encoding="utf-8") as fh:
    REFERENCE = json.load(fh)

WARMUPS = [(w.name, spec) for w in WORKLOADS.values() for spec in w.warmups]


def test_one_warmup_per_query_kind():
    kinds = [spec["kind"] for _, spec in WARMUPS]
    assert len(kinds) == len(set(kinds)) == 10


def _assert_matches_reference(spec, workdir):
    query = Query(spec, workdir)
    result = query.run(StepCounter())
    assert digest(query.answer(result)) == REFERENCE[spec_key(spec)]["answer"]
    assert query.check(result) is None


@pytest.mark.parametrize(
    "spec", [spec for _, spec in WARMUPS], ids=[f"{name}-{spec['kind']}" for name, spec in WARMUPS]
)
def test_warmup_answer_matches_reference(spec, tmp_path):
    _assert_matches_reference(spec, str(tmp_path))


THRESHOLD_POOL = pool(THRESHOLD)


def test_threshold_pool_size():
    assert len(THRESHOLD_POOL) == 54


@pytest.mark.parametrize(
    "spec",
    THRESHOLD_POOL,
    ids=[f"{i:02d}-{spec['hypothesis']['kind']}" for i, spec in enumerate(THRESHOLD_POOL)],
)
def test_threshold_answer_matches_reference(spec, tmp_path):
    _assert_matches_reference(spec, str(tmp_path))
