"""The benchmark's warm-up queries still give their recorded answers.

Every workload in perfbench/ runs one cheap warm-up spec per query kind
before it times anything.  Here each of them runs through
perfbench/queries.py: its answer digest must equal the one recorded in
perfbench/reference.json, and its independent check must pass.  So an
API change that would make a benchmark run fail its queries fails here
first.  perfbench/ is only read.
"""

import json
import os
import sys

import pytest

from powerpoly.groebner import StepCounter

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

from queries import Query, digest  # noqa: E402
from workloads import WORKLOADS, spec_key  # noqa: E402

with open(os.path.join(PERFBENCH, "reference.json"), encoding="utf-8") as fh:
    REFERENCE = json.load(fh)

WARMUPS = [(w.name, spec) for w in WORKLOADS.values() for spec in w.warmups]


def test_one_warmup_per_query_kind():
    kinds = [spec["kind"] for _, spec in WARMUPS]
    assert len(kinds) == len(set(kinds)) == 10


@pytest.mark.parametrize(
    "spec", [spec for _, spec in WARMUPS], ids=[f"{name}-{spec['kind']}" for name, spec in WARMUPS]
)
def test_warmup_answer_matches_reference(spec, tmp_path):
    query = Query(spec, str(tmp_path))
    result = query.run(StepCounter())
    assert digest(query.answer(result)) == REFERENCE[spec_key(spec)]["answer"]
    assert query.check(result) is None
