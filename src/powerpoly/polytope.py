"""Exact vertex enumeration for bounded H-polytopes (double description).

The polytope {x : A x <= b} is homogenized to the pointed cone
{(x, t) : A x <= t b, t >= 0}; extreme rays are built by incremental
halfspace insertion, and rays with t > 0 are rescaled to vertices.
Everything is Fraction-exact; insertion order is fixed so output is
deterministic.

Adjacency is the combinatorial test on bit patterns (Fukuda & Prodon,
"Double description method revisited", 1996; Terzer & Stelling, "Large-
scale computation of elementary flux modes with bit pattern trees", 2008).
Each ray keeps its tight rows as an int bitmask, and each cone row j
keeps `on[j]`, an int bitmask over ray ids with bit r set when ray r is
tight on row j.  Two rays whose common tight rows pass the rank filter
are adjacent exactly when no third ray is tight on all of those rows,
that is when the AND of `on[j]` over them is the pair itself; the AND
chain stops as soon as only the pair is left.  A ray removed by an
insertion clears its bits and frees its id for the next new ray, so the
masks stay as wide as the peak live ray count.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence

from powerpoly.groebner import StepCounter
from powerpoly.linalg import primitive_ints, rref
from powerpoly.linprog import LE, solve_lp


@dataclass
class _Ray:
    vec: tuple[int, ...]
    tight: int  # bitmask over processed constraint indices
    bit: int = 0  # 1 << id, the ray's bit in the `on` masks


def _bits(mask: int):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def enumerate_vertices_dd(
    a: Sequence[Sequence],
    b: Sequence,
    counter: StepCounter | None = None,
) -> list[tuple[Fraction, ...]]:
    """All vertices of the bounded polytope {x : a x <= b}, sorted lex.

    An empty polyhedron gives [].  Raises ValueError when the rows are rank
    deficient, or when the polyhedron is nonempty and some x != 0 has
    a x <= 0, so that it is unbounded.  All ray arithmetic runs on
    primitive integer vectors (positive rescaling leaves the cone
    unchanged), which keeps the inner loops on machine integers until the
    final division by the homogenizing coordinate.
    """
    rows = [[Fraction(v) for v in row] for row in a]
    rhs = [Fraction(v) for v in b]
    if not rows:
        raise ValueError("no constraints")
    dim = len(rows[0])
    # Cone rows over (x, t): a.x - b t <= 0, then -t <= 0, rescaled integral.
    cone = [primitive_ints(tuple(row) + (-r,)) for row, r in zip(rows, rhs)]
    cone.append(tuple([0] * dim + [-1]))
    d1 = dim + 1

    # Initial simplicial cone from the first d1 independent rows, found by
    # fraction-free elimination (independence does not depend on the field).
    chosen: list[int] = []
    echelon: list[tuple[int, list[int]]] = []  # (lead index, primitive row)
    for idx, row in enumerate(cone):
        vec = list(row)
        for lead, piv in echelon:
            if vec[lead]:
                p, v = piv[lead], vec[lead]
                vec = [p * x - v * y for x, y in zip(vec, piv)]
        g = gcd(*vec)
        if g:
            vec = [x // g for x in vec]
            echelon.append((next(i for i, x in enumerate(vec) if x), vec))
            chosen.append(idx)
        if len(chosen) == d1:
            break
    if len(chosen) < d1:
        raise ValueError("constraint matrix is rank deficient (cone not pointed)")

    # Rays of {y : M_B y <= 0} with M_B invertible: solve M_B r_j = -e_j.
    # Row-reducing [M_B | I] leaves [I | M_B^-1].
    red, _ = rref([cone[i] + tuple(int(p == j) for j in range(d1)) for p, i in enumerate(chosen)])
    inv = [row[d1:] for row in red]
    rays: list[_Ray] = []
    on = [0] * len(cone)  # on[j]: bitmask over ray ids tight on row j
    for j in range(d1):
        vec = primitive_ints(tuple(-inv[i][j] for i in range(d1)))
        tight = 0
        for pos, ci in enumerate(chosen):
            if pos != j:
                tight |= 1 << ci
                on[ci] |= 1 << j
        rays.append(_Ray(vec, tight, 1 << j))
    live = (1 << d1) - 1  # bitmask of the ids in use
    free: list[int] = []  # ids of removed rays, for reuse

    for idx, row in enumerate(cone):
        if idx in chosen:
            continue
        if counter is not None:
            counter.tick()
        vals = [sum(map(mul, row, r.vec)) for r in rays]
        pos = [(r, v) for r, v in zip(rays, vals) if v > 0]
        neg = [(r, v) for r, v in zip(rays, vals) if v < 0]
        newcomers: list[_Ray] = []
        min_common = d1 - 2  # rank needed for a common 2-face
        if counter is not None:
            counter.tick(len(pos) * len(neg))  # one step per pair tested
        for rp, vp in pos:
            for rn, vn in neg:
                common = rp.tight & rn.tight
                if common.bit_count() < min_common:
                    continue
                # Adjacent when no third ray is tight on every row of common.
                pair = rp.bit | rn.bit
                acc, rest = live, common
                while acc != pair and rest:
                    low = rest & -rest
                    acc &= on[low.bit_length() - 1]
                    rest ^= low
                if acc != pair:
                    continue
                # Positive combination lying on the new hyperplane.
                combo = [vp * x - vn * y for x, y in zip(rn.vec, rp.vec)]
                g = gcd(*combo)
                newcomers.append(_Ray(tuple(x // g for x in combo), common | (1 << idx)))
        # The cut-off rays leave `on` and free their ids; the new rays,
        # which were no rays of the cone the pair loop read, enter it now.
        for r, _ in pos:
            live ^= r.bit
            free.append(r.bit)
            for j in _bits(r.tight):
                on[j] ^= r.bit
        for r, v in zip(rays, vals):
            if v == 0:
                r.tight |= 1 << idx
                on[idx] |= r.bit
        for r in newcomers:
            # With no freed id waiting, the ids in use are 0 .. m-1.
            r.bit = free.pop() if free else live + 1
            live |= r.bit
            for j in _bits(r.tight):
                on[j] |= r.bit
        rays = [r for r, v in zip(rays, vals) if v <= 0] + newcomers

    # Every ray has t >= 0.  Rays with t > 0 are the vertices; a ray with
    # t = 0 is a recession direction, which matters only when a vertex exists.
    points = [r.vec for r in rays if r.vec[-1] > 0]
    if points and len(points) < len(rays):
        raise ValueError("polyhedron is unbounded (recession ray found)")
    # Sort and deduplicate on integers: every coordinate over the common
    # denominator `scale`, which orders the points as their exact values do.
    scale = lcm(*(p[-1] for p in points))
    unique = {tuple(v * (scale // p[-1]) for v in p[:-1]): p for p in points}
    return [tuple(Fraction(v, p[-1]) for v in p[:-1]) for _, p in sorted(unique.items())]


def enumerate_vertices_brute_force(
    a: Sequence[Sequence], b: Sequence
) -> list[tuple[Fraction, ...]]:
    """Independent oracle: solve every d-subset of tight rows, keep feasible.

    Exponential; only suitable for small systems (tests).
    """
    from itertools import combinations

    from powerpoly.linalg import solve_linear, rank

    rows = [[Fraction(v) for v in row] for row in a]
    rhs = [Fraction(v) for v in b]
    dim = len(rows[0])
    found = set()
    for subset in combinations(range(len(rows)), dim):
        sub = [rows[i] for i in subset]
        if rank(sub) < dim:
            continue
        x = solve_linear(sub, [rhs[i] for i in subset])
        if x is None:
            continue
        if all(sum(r * v for r, v in zip(row, x)) <= bound for row, bound in zip(rows, rhs)):
            found.add(tuple(x))
    return sorted(found)


def irredundant_rows(a: Sequence[Sequence], b: Sequence) -> list[int]:
    """Indices of facet-defining rows of {x : a x <= b}.

    Requires 0 strictly inside (all b > 0); then row i is redundant exactly
    when its polar point a_i / b_i is a convex combination of the others.
    """
    rows = [[Fraction(v) for v in row] for row in a]
    rhs = [Fraction(v) for v in b]
    if any(r <= 0 for r in rhs):
        raise ValueError("irredundant_rows requires the origin strictly inside")
    # Exact duplicates define one facet; keep the first copy only.
    first_of: dict[tuple, int] = {}
    for i, (row, r) in enumerate(zip(rows, rhs)):
        first_of.setdefault(tuple(v / r for v in row), i)
    unique = list(first_of.values())
    return [unique[j] for j in hull_vertices(list(first_of))]


def hull_vertices(points: Sequence[Sequence], counter: StepCounter | None = None) -> list[int]:
    """Indices of the points outside the convex hull of the others.

    Point p is outside exactly when a hyperplane separates it strictly:
    max t subject to w.(q - p) + t <= 0 for every other point q, and
    t <= 1, is positive.  One exact LP in d + 1 variables per point, each
    ticking `counter` once.
    """
    pts = [tuple(Fraction(v) for v in p) for p in points]
    keep = []
    for i, p in enumerate(pts):
        if counter is not None:
            counter.tick()
        rows = [([a - b for a, b in zip(q, p)] + [1], LE, 0) for j, q in enumerate(pts) if j != i]
        rows.append(([0] * len(p) + [1], LE, 1))
        if solve_lp(len(p) + 1, [0] * len(p) + [1], rows).value > 0:
            keep.append(i)
    return keep
