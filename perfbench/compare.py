#!/usr/bin/env python3
"""Compare two benchmark results written to .perfbench/results/.

    python3 perfbench/compare.py BASE.json NEW.json

Refuses (exit 2) to compare results of different workloads, run modes or
kernel backends: the pure-Python and compiled kernels are different
programs.  For two traced results, every count (calls, steps, vertices,
verdicts) must be identical when seed and --seconds agree; a difference
is reported as nondeterminism (exit 1), not as noise.  For end-to-end
results each metric's change is shown against the bound the benchmark
fixes for it (exit 1 when any is worse by more than its bound).
"""

from __future__ import annotations

import json
import sys

from metrics import END_TO_END, PER_LAYER


def compare(base: dict, new: dict) -> tuple[int, list[str]]:
    lines = []
    for field in ("workload", "trace"):
        if base[field] != new[field]:
            return 2, [f"refused: {field} differs ({base[field]!r} vs {new[field]!r})"]
    if base["env"]["kernel_backend"] != new["env"]["kernel_backend"]:
        return 2, [
            "refused: kernel backends differ "
            f"({base['env']['kernel_backend']} vs {new['env']['kernel_backend']})"
        ]
    code = 0
    if base["trace"]:
        same_run = (base["env"]["seed"], base["seconds"]) == (new["env"]["seed"], new["seconds"])
        for name, unit, _ in PER_LAYER:
            a, b = base["metrics"][name]["value"], new["metrics"][name]["value"]
            if unit == "count" and a != b:
                if same_run:
                    code = 1
                    lines.append(f"NONDETERMINISM {name}: {a} vs {b} on the same seed")
                else:
                    lines.append(f"{name}: {a} -> {b}")
        if not lines:
            lines.append("all counts identical")
        return code, lines
    for name, unit, better, bound in END_TO_END:
        a, b = base["metrics"][name]["value"], new["metrics"][name]["value"]
        change = (b - a) / a
        worse = change > bound if better == "lower" else -change > bound
        code = max(code, int(worse))
        flag = "  WORSE than bound" if worse else ""
        lines.append(f"{name}: {a:.6g} -> {b:.6g} {unit} ({change:+.1%}, bound {bound:.0%}){flag}")
    return code, lines


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    results = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            results.append(json.load(fh))
    code, lines = compare(*results)
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
