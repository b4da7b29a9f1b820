"""Locate and load the powerpoly sources of the checkout the benchmark sits in."""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Run outputs (results, spans, temporary files), listed in .gitignore.
OUT = ROOT / ".perfbench"

#: One process, one thread: power-grid must not start its process pool and
#: numpy's BLAS must not start worker threads.
PINNED_ENV = {
    "POWERPOLY_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class MissingProgram(RuntimeError):
    pass


def load():
    """Pin the environment, put the checkout's src first on the path, import powerpoly."""
    if not (SRC / "powerpoly" / "__init__.py").is_file():
        raise MissingProgram(f"no powerpoly sources under {SRC}")
    os.environ.update(PINNED_ENV)
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    import powerpoly

    if Path(powerpoly.__file__).resolve().parent != SRC / "powerpoly":
        raise MissingProgram(f"imported powerpoly from {powerpoly.__file__}, not {SRC}")
    return powerpoly


def commit() -> str:
    """The checkout's commit when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"
