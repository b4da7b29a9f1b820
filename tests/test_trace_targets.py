"""The benchmark's traced run wraps each function in `perfbench/tracer.py`'s
TARGETS; deleting or renaming one of them breaks that run, so check them here."""

import importlib.util
import inspect
import sys
from fractions import Fraction
from pathlib import Path

import powerpoly.polytope
from powerpoly.groebner import StepCounter, reduce
from powerpoly.hypotheses import polytope_existence
from powerpoly.linprog import solve_lp
from powerpoly.polynomial import Polynomial
from powerpoly.polytope import enumerate_vertices_dd
from powerpoly.umpu import convex_peeling

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_target_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = [
        f"{module.__name__ if module else 'Polynomial'}.{attr}"
        for module, attr, _name, _hook in tracer.TARGETS
        if not callable(getattr(module or Polynomial, attr, None))
    ]
    assert missing == []


def test_lp_hook_reads_the_first_three_parameters():
    # The tracer's LP hook reads `nvars` (argument 0) and `constraints`
    # (argument 2), by position or by name.
    params = list(inspect.signature(solve_lp).parameters)
    assert params[:3] == ["nvars", "objective", "constraints"]


def test_reduce_hook_reads_the_remainder_second():
    # The tracer's division hook reads the remainder as result[1].
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    result = reduce(x * y + y, [x])
    assert result == ([y], y)
    assert not result[1].is_zero()


def test_dd_hook_reads_the_counter_third():
    # The tracer's DD hook reads `counter` (argument 2), by position or by name.
    params = list(inspect.signature(enumerate_vertices_dd).parameters)
    assert params[2] == "counter"


def test_every_dd_step_is_counted_at_the_entry_point(monkeypatch):
    # The tracer counts double description at `enumerate_vertices_dd`
    # alone, wrapped wherever a powerpoly module binds it.  The face
    # reader of the convex peeling and of the polytope check must run
    # their double descriptions through it, or their steps are counted
    # in their callers' spans.
    original = powerpoly.polytope.enumerate_vertices_dd
    growth = []

    def counted(a, b, counter=None):
        before = counter.steps
        try:
            return original(a, b, counter)
        finally:
            growth.append(counter.steps - before)

    for name, module in list(sys.modules.items()):
        if name == "powerpoly" or name.startswith("powerpoly."):
            for alias, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, alias, counted)
    # The k = 4 cube x >= 1/4 inside the simplex.
    cube = [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [Fraction(1, 4)] * 3
    for run in (lambda c: convex_peeling(4, 3, c), lambda c: polytope_existence(*cube, 4, c)):
        counter = StepCounter()
        growth.clear()
        run(counter)
        assert counter.steps == sum(growth) > 0
