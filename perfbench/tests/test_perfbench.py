"""Tests of the benchmark's own logic (not of powerpoly).

    python3 -m pytest perfbench/tests -q
"""

import itertools
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)

import program  # noqa: E402
from calibrate import REFERENCE_S, WINDOW_SHARE, HostClock  # noqa: E402
from compare import compare  # noqa: E402
from metrics import END_TO_END, PER_LAYER, per_layer  # noqa: E402
from stats import self_times, tail  # noqa: E402
from workloads import WORKLOADS, cycles, pool, spec_key  # noqa: E402


def _first(name, seed, count=4):
    return list(itertools.islice(cycles(WORKLOADS[name], seed), count))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_the_query_list(name):
    assert _first(name, 7) == _first(name, 7)
    assert _first(name, 7) != _first(name, 8)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_cycle_draws_one_spec_per_slot(name):
    workload = WORKLOADS[name]
    slot_of = {}
    for index, slot in enumerate(workload.slots):
        for spec in slot:
            slot_of.setdefault(spec_key(spec), set()).add(index)
    for cycle in _first(name, 3):
        assert len(cycle) == len(workload.slots)
        used = set()
        for spec in cycle:
            free = slot_of[spec_key(spec)] - used
            assert free
            used.add(min(free))


def test_tail_keeps_ten_samples_beyond():
    latencies = [float(i) for i in range(1, 21)]
    value, percentile, beyond = tail(latencies)
    assert (value, percentile, beyond) == (10.0, 50.0, 10)
    assert sum(x > value for x in latencies) == 10

    many = [float(i) for i in range(1000)]
    value, percentile, beyond = tail(many)
    assert sum(x > value for x in many) == beyond == 10
    assert percentile == 99.0
    # One more percentile step up would leave fewer than ten beyond.
    assert sorted(many)[int(len(many) * 0.991) - 1] > value

    with pytest.raises(ValueError):
        tail([1.0] * 10)


def test_host_clock_rescales_by_the_loop_times_around_each_interval():
    loop_times = iter([2 * REFERENCE_S, 2 * REFERENCE_S, REFERENCE_S] + [REFERENCE_S / 2] * 100)
    calls = []

    def timer():
        calls.append(1)
        return next(loop_times)

    clock = HostClock(timer)
    # Host twice as slow before and after: the query took half as long there.
    assert clock.scale(0.010) == pytest.approx(0.005)
    # Loop at 2x before and 1x after: mean 1.5x.
    assert clock.scale(0.030) == pytest.approx(0.020)
    # A long interval: the loop runs for WINDOW_SHARE of it, at least once.
    calls.clear()
    assert clock.scale(1.0) == pytest.approx(1.0 / 0.75)
    assert len(calls) == round(WINDOW_SHARE * 1.0 / REFERENCE_S)


def test_self_time_subtracts_only_covered_child_intervals():
    spans = [
        (0.0, 10.0, -1),  # root
        (2.0, 4.0, 0),  # child
        (3.0, 6.0, 0),  # overlaps the first child: union [2, 6]
        (8.0, 12.0, 0),  # runs past the parent: only [8, 10] is covered
        (2.5, 3.5, 1),  # grandchild: not subtracted from the root
    ]
    assert self_times(spans) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])


def test_benchmark_json_matches_the_metric_definitions():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]] == [
        tuple(m) for m in END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        tuple(m) for m in PER_LAYER
    ]
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS)
    bounds = {name: bound for name, _, _, bound in END_TO_END}
    assert bounds["setup_s"] == max(bounds.values())


def test_reference_covers_every_spec():
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    for workload in WORKLOADS.values():
        for spec in pool(workload):
            assert spec_key(spec) in reference, spec


def test_traced_calls_nest_and_wrappers_come_off():
    program.load()
    import powerpoly.linprog
    import powerpoly.umpu
    from powerpoly.groebner import StepCounter
    from powerpoly.polynomial import Polynomial

    from queries import Query
    from tracer import Tracer

    solve_lp = powerpoly.umpu.solve_lp
    mul = Polynomial.__mul__
    query = Query(
        {"kind": "umpu", "f": "2*p1 + p2 - p3", "vars": ["p1", "p2", "p3"], "n": 3, "alpha": "1/20"},
        str(program.OUT),
    )
    tracer = Tracer()
    tracer.install()
    try:
        counter = StepCounter()
        tracer.begin("q0", query.kind)
        result = query.run(counter)
        tracer.end()
    finally:
        tracer.uninstall()
    assert powerpoly.umpu.solve_lp is solve_lp and Polynomial.__mul__ is mul
    assert result["verdict"].status == "not_exists"

    names = {span[0] for span in tracer.spans}
    assert {"umpu.umpu_search", "polytope.enumerate_vertices_dd", "umpu.convex_peeling"} <= names
    root = tracer.spans[0]
    assert root[0] == "query.umpu" and root[4] == -1
    assert all(span[5] == "q0" for span in tracer.spans)
    records = [{"qid": "q0", "kind": "umpu", "steps": counter.steps, "status": "not_exists"}]
    values = per_layer(tracer.spans, records, 0.0)
    assert set(values) == {name for name, _, _ in PER_LAYER}
    # Layer LPs and convex-hull LPs are told apart by the binding called.
    assert values["linprog.solve_lp.layer_self_s"] > 0
    assert values["linprog.solve_lp.hull_self_s"] > 0
    assert values["linprog.solve_lp.existence_self_s"] == 0
    assert values["umpu.verdict.not_exists"] == 1
    assert values["polytope.dd.steps"] + values["umpu.steps"] == counter.steps
    assert values["groebner.buchberger_reduced.calls"] == 0


def _result(trace, backend="pure", seed=1, **values):
    names = [m[0] for m in (PER_LAYER if trace else END_TO_END)]
    return {
        "workload": "umpu",
        "trace": trace,
        "seconds": 25,
        "env": {"kernel_backend": backend, "seed": seed},
        "metrics": {name: {"value": values.get(name, 1.0)} for name in names},
    }


def test_compare_refuses_different_kernel_backends():
    code, lines = compare(_result(0), _result(0, backend="cython"))
    assert code == 2 and "kernel backends differ" in lines[0]


def test_compare_reports_differing_counts_as_nondeterminism():
    base = _result(1, **{"polytope.dd.steps": 100})
    assert compare(base, _result(1, **{"polytope.dd.steps": 100}))[0] == 0
    code, lines = compare(base, _result(1, **{"polytope.dd.steps": 101}))
    assert code == 1 and lines[0].startswith("NONDETERMINISM polytope.dd.steps")
    # Another seed runs other queries: a different count is expected there.
    assert compare(base, _result(1, seed=2, **{"polytope.dd.steps": 101}))[0] == 0


def test_compare_flags_a_regression_beyond_its_bound():
    assert compare(_result(0), _result(0, throughput_qps=0.9))[0] == 0
    code, lines = compare(_result(0), _result(0, throughput_qps=0.7))
    assert code == 1 and any("throughput_qps" in line and "WORSE" in line for line in lines)
