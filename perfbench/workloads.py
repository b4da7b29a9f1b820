"""Seeded query mixes, one per workload.

A workload is a list of slots; each slot is a list of interchangeable query
specs.  A run repeats cycles: every cycle draws one spec per slot and
shuffles the draws, all from the run's seed.  Every cycle therefore has the
same composition, which keeps throughput and the latency quantiles
comparable across seeds, while the seed still varies the inputs (weights,
constraints, levels, table orientation, sign of f) and their order.

Where a slot's variants would differ in cost, the heavy workloads (umpu,
vertices) vary only what leaves the exact computation the same size: the
sign of f (f and -f give the same coefficient polytope) and a level alpha
that the reference run showed keeps the step count.

The traffic is not observed from users.  It is derived from the paper's
worked examples (the n = 3 UMPU tables for p1 + p2 - p3 and 2 p1 + p2 - p3,
the sphere suite, the constrained 2 x 3 table of Example 5, the polytope
and max-statistic examples), the acceptance suite and the README commands.

Specs are plain JSON data; `queries.py` turns them into powerpoly calls.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class Workload:
    name: str
    slots: tuple[tuple[dict, ...], ...]
    #: One cheap spec per query kind, run before timing (and by each set-up
    #: probe) so that imports and lazy set-up are paid outside the loop.
    warmups: tuple[dict, ...]
    #: Reference-host seconds of query time per cycle at the commit that
    #: added the benchmark (see calibrate.py).  Sets how many cycles a run
    #: times: a count, so every run of a workload times the same queries'
    #: composition and the traced counts repeat exactly for a given seed
    #: and --seconds.
    nominal_cycle_s: float


def spec_key(spec: dict) -> str:
    """Canonical text of a spec: the key of its reference answer."""
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))


def _terms(weights, names):
    first = True
    for w, name in zip(weights, names):
        if w == 0:
            continue
        mag = "" if abs(w) == 1 else f"{abs(w)}*"
        if first:
            yield f"{'-' if w < 0 else ''}{mag}{name}"
            first = False
        else:
            yield f"{'-' if w < 0 else '+'} {mag}{name}"


def _linear(weights, sign=1) -> tuple[str, list[str]]:
    names = [f"p{i + 1}" for i in range(len(weights))]
    return " ".join(_terms([sign * w for w in weights], names)), names


# -- threshold -----------------------------------------------------------------


def _threshold(hypothesis: dict) -> dict:
    return {"kind": "threshold", "hypothesis": hypothesis}


def _independence(p, q):
    return _threshold({"kind": "independence", "params": {"p": p, "q": q}})


def _constrained(p: int, q: int, count: int, pool_seed: int) -> tuple[dict, ...]:
    """p x q minors plus one integer linear constraint (Example 5's shape).

    The constraint w . pi = 0 is written in ambient coordinates; weights of
    both signs make its hyperplane cross the open simplex.
    """
    names = [f"p{i + 1}{j + 1}" for i in range(p) for j in range(q)]
    minors = []
    for r1, r2 in itertools.combinations(range(p), 2):
        for c1, c2 in itertools.combinations(range(q), 2):
            minors.append(
                f"p{r1 + 1}{c1 + 1}*p{r2 + 1}{c2 + 1} - p{r1 + 1}{c2 + 1}*p{r2 + 1}{c1 + 1}"
            )
    rng = random.Random(f"constrained:{p}x{q}:{pool_seed}")
    out = []
    while len(out) < count:
        weights = [rng.randint(-2, 2) for _ in names]
        if max(weights) <= 0 or min(weights) >= 0:
            continue
        constraint = " ".join(_terms(weights, names))
        out.append(
            _threshold(
                {
                    "kind": "custom",
                    "params": {"k": p * q, "vars": names, "generators": minors + [constraint]},
                }
            )
        )
    return tuple(out)


def _polytope(rows, rhs, k) -> dict:
    return {
        "kind": "polytope_exists",
        "hypothesis": {"kind": "polytope", "params": {"A": rows, "b": rhs, "k": k}},
    }


def _spheres(*pairs) -> tuple[dict, ...]:
    return tuple(
        _threshold({"kind": "sphere", "params": {"k": k, "delta_sq": d}}) for k, d in pairs
    )


def _polytopes(*specs) -> tuple[dict, ...]:
    return tuple(_polytope(rows, rhs, len(rows[0]) + 1) for rows, rhs in specs)


_SQUARE = [[-1, 0], [0, -1]]
_CUBE = [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]

# Eight slots cheaper than the 2 x 4 independence query, five slots of it
# (the median band: 189 Buchberger steps, the same cost in either
# orientation, wide enough that the median stays inside it when its
# cheaper neighbours slow down) and seven dearer slots; 3 x 4 independence,
# constrained 3 x 3 and the k = 8 sphere, all near 0.3 s, hold the
# 11th-largest latency.
# Sphere variants are grouped by the cost of sampling null points for the
# gradient evidence, which grows quickly with k; k = 5, and k = 7, 8 at
# delta^2 = 1/6, fall between the bands and are left out.
THRESHOLD = Workload(
    name="threshold",
    slots=(
        (_independence(2, 2),),
        tuple(
            _threshold({"kind": "logodds", "params": {"a": a, "c": c, "k": len(a) + 1}})
            for a, c in (
                (["1", "2"], "3"),
                (["1", "-1"], "2"),
                (["2", "1"], "1/2"),
                (["1", "-2", "1"], "2"),
                (["1", "1", "1"], "3"),
                (["1/2", "1"], "4"),
            )
        ),
        tuple(_threshold({"kind": "symmetry", "params": {"p": p}}) for p in (2, 3)),
        (_independence(2, 3), _independence(3, 2)),
        _spheres(*((k, d) for k in (3, 4) for d in ("1/6", "1/8"))),
        tuple(
            _threshold({"kind": "rank_lt", "params": {"p": p, "q": q, "r": r}})
            for p, q, r in ((3, 3, 2), (3, 3, 3), (3, 4, 3), (2, 4, 2))
        ),
        _constrained(2, 3, 6, pool_seed=1),
        _polytopes(
            *((_SQUARE, [f"-{t}", f"-{t}"]) for t in ("3/4", "2/3", "1/4", "1/3")),
            ([[-1, 1], [-1, -2]], [0, -1]),
        ),
        *[(_independence(2, 4), _independence(4, 2))] * 5,
        (_independence(3, 3),),
        (_independence(3, 4),),
        tuple(
            _threshold({"kind": "rank_lt", "params": {"p": p, "q": q, "r": r}})
            for p, q, r in ((4, 4, 3), (4, 4, 4))
        ),
        _constrained(2, 4, 6, pool_seed=1),
        _constrained(3, 3, 6, pool_seed=1),
        _spheres((6, "1/6"), (6, "1/8"), (7, "1/8"), (8, "1/8")),
        _polytopes((_CUBE, ["-2/3"] * 3), (_CUBE, ["-1/4"] * 3)),
    ),
    warmups=(_independence(2, 3), _polytope(_SQUARE, ["-3/4", "-3/4"], 3)),
    nominal_cycle_s=0.78,
)

# -- umpu and vertices --------------------------------------------------------------


def _principal(kind: str, weights, n: int, alphas=("1/20", "1/10")) -> tuple[dict, ...]:
    out = []
    for sign in (1, -1):
        text, names = _linear(weights, sign)
        for alpha in alphas:
            out.append({"kind": kind, "f": text, "vars": names, "n": n, "alpha": alpha})
    return tuple(out)


def _sphere_umpu(n: int, alpha: str, delta_sq: str) -> dict:
    return {
        "kind": "umpu",
        "sphere": {"k": 3, "delta_sq": delta_sq},
        "n": n,
        "alpha": alpha,
    }


# Four cheap slots, four of the n = 4 exists search (double description of
# 44 vertices, no LP), then one slot of (1, 2, -3), three of (2, 1, -1) and
# one candidate search.  The median query falls inside the exists band, and
# the 11th-largest latency inside the (2, 1, -1) band, for any seed and for
# 4 to 10 cycles a run.
UMPU = Workload(
    name="umpu",
    slots=(
        _principal("umpu", (1, 1, -1), 3) + _principal("umpu", (2, -1, -1), 3),
        _principal("umpu", (1, 1, -1), 3) + _principal("umpu", (2, -1, -1), 3),
        _principal("umpu", (1, 1, -1, -1), 3) + _principal("umpu", (1, 1, 1, -1), 3),
        tuple(_sphere_umpu(5, a, d) for a in ("1/20", "1/10") for d in ("1/6", "1/8")),
        *[_principal("umpu", (1, 1, -1), 4)] * 4,
        _principal("umpu", (1, 2, -3), 3),
        *[_principal("umpu", (2, 1, -1), 3)] * 3,
        # The level stays fixed: at alpha = 1/10 this search costs a tenth more.
        _principal("umpu", (1, 1, -2), 4, alphas=("1/20",)),
    ),
    warmups=(_principal("umpu", (1, 1, -1), 3)[0],),
    nominal_cycle_s=2.36,
)

# Five cheap slots, two of k = 7 all-ones (the median band), five dearer
# ones with k = 8 twice (the band of the 11th-largest latency).
VERTICES = Workload(
    name="vertices",
    slots=(
        _principal("vertices", (1, 1, 1, 1, -1), 3),
        _principal("vertices", (2, 1, 1, 1, -1), 3),
        _principal("vertices", (1, 1, 1, 1, 1, -1), 3),
        _principal("vertices", (1, 1, -1), 4),
        # alpha = 1/10 changes this polytope's size, so the level stays fixed.
        _principal("vertices", (1, 2, -3), 4, alphas=("1/20",)),
        *[_principal("vertices", (1, 1, 1, 1, 1, 1, -1), 3)] * 2,
        _principal("vertices", (2, 1, 1, 1, 1, -1), 3),
        _principal("vertices", (1, -1, 0, 0), 4),
        _principal("vertices", (1, -1, 0, 0, 0, 0, 0, 0, 0), 3),
        *[_principal("vertices", (1, 1, 1, 1, -1, -1, -1, -1), 3)] * 2,
    ),
    warmups=(_principal("vertices", (1, 1, -1), 4)[0],),
    nominal_cycle_s=1.21,
)


# -- power -------------------------------------------------------------------------


def _phi(n: int, k: int, pool_seed: int) -> dict:
    """A randomized test with phi(x) drawn from {0, 1/16, ..., 1}."""
    return {"kind": "random", "n": n, "k": k, "seed": pool_seed}


_PHIS = tuple(_phi(n, k, s) for n, k, s in ((6, 3, 1), (8, 3, 2), (10, 3, 3), (5, 4, 4), (6, 4, 5), (12, 3, 6)))
_POINTS = {
    3: (["1/3", "1/3", "1/3"], ["1/2", "1/4", "1/4"], ["1/5", "3/10", "1/2"], ["7/10", "1/10", "1/5"]),
    4: (["1/4", "1/4", "1/4", "1/4"], ["2/5", "1/5", "1/5", "1/5"], ["1/10", "1/5", "3/10", "2/5"]),
}

_GRID = {"kind": "power_grid", "res": 21, "max": "1/2"}

# Three categories only: with k = 4 a draw costs a third more, and the
# median query is a Monte-Carlo one.
_MONTE_CARLO = tuple(
    {"kind": "monte_carlo", "phi": phi, "point": list(_POINTS[3][i % 2 + 1]), "reps": 20000, "seed": i}
    for i, phi in enumerate(_PHIS)
    if phi["k"] == 3
)

# Slots by cost: four cheap kinds, two Monte-Carlo slots of near-constant
# cost, four dearer kinds ending with the n = 40 grid.  The median query
# falls inside the Monte-Carlo band and the 11th-largest latency inside the
# n = 40 grid band whatever the seed draws.
POWER = Workload(
    name="power",
    slots=(
        tuple(
            {"kind": "exact_power", "phi": phi, "point": list(point)}
            for phi in _PHIS
            for point in _POINTS[phi["k"]]
        ),
        tuple({"kind": "round_trip", "phi": phi} for phi in _PHIS),
        tuple(
            {"kind": "normalize", "sphere": {"k": k, "delta_sq": d}, "n": n}
            for k, d in ((3, "1/6"), (4, "1/4"))
            for n in (4, 6)
        ),
        tuple(
            {"kind": "principal_umpu", "sphere": {"k": k, "delta_sq": d}, "n": n, "alpha": a}
            for k, d, n in ((3, "1/6", 4), (3, "1/6", 6), (3, "1/6", 8), (4, "1/4", 4), (4, "1/4", 6))
            for a in ("1/20", "1/10")
        ),
        _MONTE_CARLO,
        _MONTE_CARLO,
        tuple(
            {"kind": "principal_umpu", "sphere": {"k": k, "delta_sq": d}, "n": n, "alpha": a}
            for k, d, n in ((3, "1/6", 12), (4, "1/4", 8), (4, "1/4", 10), (4, "1/4", 12))
            for a in ("1/20", "1/10")
        ),
        tuple(dict(_GRID, n=n, c=c) for n in (15, 20, 25) for c in ("17/20", "4/5")),
        tuple(dict(_GRID, n=n, c=c) for n in (30, 35) for c in ("17/20", "4/5")),
        tuple(dict(_GRID, n=40, c=c) for c in ("17/20", "4/5")),
    ),
    warmups=(
        {"kind": "principal_umpu", "sphere": {"k": 3, "delta_sq": "1/6"}, "n": 4, "alpha": "1/20"},
        {"kind": "round_trip", "phi": _PHIS[0]},
        {"kind": "exact_power", "phi": _PHIS[0], "point": ["1/3", "1/3", "1/3"]},
        {"kind": "monte_carlo", "phi": _PHIS[0], "point": ["1/3", "1/3", "1/3"], "reps": 1000, "seed": 0},
        {"kind": "normalize", "sphere": {"k": 3, "delta_sq": "1/6"}, "n": 4},
        {"kind": "power_grid", "n": 15, "c": "17/20", "res": 5, "max": "1/2"},
    ),
    nominal_cycle_s=0.535,
)

WORKLOADS = {w.name: w for w in (THRESHOLD, UMPU, VERTICES, POWER)}


def pool(workload: Workload) -> list[dict]:
    """Every distinct spec a run of the workload can draw, warm-ups included."""
    seen: dict[str, dict] = {}
    for spec in itertools.chain(workload.warmups, *workload.slots):
        seen.setdefault(spec_key(spec), spec)
    return list(seen.values())


def cycles(workload: Workload, seed: int) -> Iterator[list[dict]]:
    """The seeded, endless sequence of cycles for one run."""
    rng = random.Random(f"{workload.name}:{seed}")
    while True:
        picks = [rng.choice(slot) for slot in workload.slots]
        rng.shuffle(picks)
        yield picks
