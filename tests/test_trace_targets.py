"""The benchmark's traced run wraps each function in `perfbench/tracer.py`'s
TARGETS; deleting or renaming one of them breaks that run, so check them here."""

import importlib.util
from pathlib import Path

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
