"""The benchmark's warm-up queries still give their recorded answers.

Every workload in perfbench/ runs one cheap warm-up spec per query kind
before it times anything.  Here each of them runs through
perfbench/queries.py: its answer digest must equal the one recorded in
perfbench/reference.json, and its independent check must pass.  So an
API change that would make a benchmark run fail its queries fails here
first.  Every spec of every workload's pool (194 in all, about 6 s) is
run the same way, so a change in the printed form of a basis, witness,
vertex list, verdict or power fails here too.  perfbench/ is only read.
"""

import json
import os
import sys

import pytest

from powerpoly.groebner import StepCounter

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

from queries import Query, digest  # noqa: E402
from workloads import WORKLOADS, pool, spec_key  # noqa: E402

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


POOLS = {name: pool(w) for name, w in WORKLOADS.items()}


def test_pool_sizes():
    assert {name: len(specs) for name, specs in POOLS.items()} == {
        "threshold": 54,
        "umpu": 34,
        "vertices": 38,
        "power": 68,
    }


@pytest.mark.parametrize(
    "spec",
    POOLS["threshold"],
    ids=[f"{i:02d}-{spec['hypothesis']['kind']}" for i, spec in enumerate(POOLS["threshold"])],
)
def test_threshold_answer_matches_reference(spec, tmp_path):
    _assert_matches_reference(spec, str(tmp_path))


OTHER_SPECS = [
    (f"{name}-{i:02d}-{spec['kind']}", spec)
    for name in ("umpu", "vertices", "power")
    for i, spec in enumerate(POOLS[name])
]


@pytest.mark.parametrize(
    "spec", [spec for _, spec in OTHER_SPECS], ids=[label for label, _ in OTHER_SPECS]
)
def test_pool_answer_matches_reference(spec, tmp_path):
    _assert_matches_reference(spec, str(tmp_path))
