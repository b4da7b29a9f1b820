"""The benchmark's traced run wraps each function in `perfbench/tracer.py`'s
TARGETS; deleting or renaming one of them breaks that run, so check them here."""

import importlib.util
import inspect
from pathlib import Path

from powerpoly.linprog import solve_lp
from powerpoly.polynomial import Polynomial

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
