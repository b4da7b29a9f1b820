"""Exact vertex enumeration for bounded H-polytopes (double description).

The polytope {x : A x <= b} is homogenized to the pointed cone
{(x, t) : A x <= t b, t >= 0}; extreme rays are built by incremental
halfspace insertion with the combinatorial adjacency test, and rays with
t > 0 are rescaled to vertices.  Everything is Fraction-exact; insertion
order is fixed so output is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul
from typing import Sequence

from powerpoly.groebner import StepCounter
from powerpoly.linprog import EQ, LE, LPResult, solve_lp


def _to_primitive_ints(vec) -> tuple[int, ...]:
    """Scale by a positive rational to a primitive integer vector.

    Only positive scaling is allowed: a cone ray and its negative are
    different objects.
    """
    den = 1
    for v in vec:
        if isinstance(v, Fraction):
            den = den * v.denominator // gcd(den, v.denominator)
    ints = [int(v * den) for v in vec]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g > 1:
        ints = [v // g for v in ints]
    return tuple(ints)


@dataclass
class _Ray:
    vec: tuple[int, ...]
    tight: int  # bitmask over processed constraint indices


def enumerate_vertices_dd(
    a: Sequence[Sequence],
    b: Sequence,
    counter: StepCounter | None = None,
) -> list[tuple[Fraction, ...]]:
    """All vertices of the bounded polytope {x : a x <= b}, sorted lex.

    Raises ValueError when the polyhedron is unbounded or empty.  All ray
    arithmetic runs on primitive integer vectors (positive rescaling
    leaves the cone unchanged), which keeps the inner loops on machine
    integers until the final division by the homogenizing coordinate.
    """
    rows = [[Fraction(v) for v in row] for row in a]
    rhs = [Fraction(v) for v in b]
    if not rows:
        raise ValueError("no constraints")
    dim = len(rows[0])
    # Cone rows over (x, t): a.x - b t <= 0, then -t <= 0, rescaled integral.
    cone = [_to_primitive_ints(tuple(row) + (-r,)) for row, r in zip(rows, rhs)]
    cone.append(tuple([0] * dim + [-1]))
    d1 = dim + 1

    # Initial simplicial cone from the first d1 independent rows.
    chosen: list[int] = []
    echelon: list[list[Fraction]] = []
    for idx, row in enumerate(cone):
        vec = [Fraction(v) for v in row]
        for piv in echelon:
            lead = next(i for i, v in enumerate(piv) if v)
            if vec[lead]:
                f = vec[lead] / piv[lead]
                vec = [x - f * y for x, y in zip(vec, piv)]
        if any(vec):
            echelon.append(vec)
            chosen.append(idx)
        if len(chosen) == d1:
            break
    if len(chosen) < d1:
        raise ValueError("constraint matrix is rank deficient (cone not pointed)")

    # Rays of {y : M_B y <= 0} with M_B invertible: solve M_B r_j = -e_j.
    mb = [[Fraction(v) for v in cone[i]] for i in chosen]
    inv = _invert(mb)
    rays: list[_Ray] = []
    for j in range(d1):
        vec = _to_primitive_ints(tuple(-inv[i][j] for i in range(d1)))
        tight = 0
        for pos, ci in enumerate(chosen):
            if pos != j:
                tight |= 1 << ci
        rays.append(_Ray(vec, tight))

    processed = set(chosen)
    for idx, row in enumerate(cone):
        if idx in processed:
            continue
        if counter is not None:
            counter.tick()
        vals = [sum(map(mul, row, r.vec)) for r in rays]
        if not any(v > 0 for v in vals):
            for r, v in zip(rays, vals):
                if v == 0:
                    r.tight |= 1 << idx
            processed.add(idx)
            continue
        keep = [r for r, v in zip(rays, vals) if v < 0]
        on = [r for r, v in zip(rays, vals) if v == 0]
        for r in on:
            r.tight |= 1 << idx
        pos = [(r, v) for r, v in zip(rays, vals) if v > 0]
        neg = [(r, v) for r, v in zip(rays, vals) if v < 0]
        newcomers: list[_Ray] = []
        all_rays = rays
        min_common = d1 - 2  # rank needed for a common 2-face
        for rp, vp in pos:
            for rn, vn in neg:
                if counter is not None:
                    counter.tick()
                common = rp.tight & rn.tight
                if common.bit_count() < min_common:
                    continue
                if not _adjacent(rp, rn, common, all_rays):
                    continue
                # Positive combination lying on the new hyperplane.
                combo = tuple(vp * x - vn * y for x, y in zip(rn.vec, rp.vec))
                vec = _to_primitive_ints(combo)
                newcomers.append(_Ray(vec, common | (1 << idx)))
        rays = keep + on + newcomers
        processed.add(idx)

    vertices = []
    for r in rays:
        t = r.vec[-1]
        if t <= 0:
            raise ValueError("polyhedron is unbounded (recession ray found)")
        vertices.append(tuple(Fraction(v, t) for v in r.vec[:-1]))
    return sorted(set(vertices))


def _adjacent(rp: _Ray, rn: _Ray, common: int, rays: list[_Ray]) -> bool:
    """Combinatorial adjacency: no third ray is tight everywhere both are."""
    for other in rays:
        if other is rp or other is rn:
            continue
        if common & ~other.tight == 0:
            return False
    return True


def _invert(m: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(m)
    aug = [list(row) + [Fraction(1) if i == j else Fraction(0) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if aug[r][c]), None)
        if pivot is None:
            raise ValueError("singular matrix")
        aug[c], aug[pivot] = aug[pivot], aug[c]
        inv = Fraction(1) / aug[c][c]
        aug[c] = [v * inv for v in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


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
    polar = [tuple(v / r for v in row) for row, r in zip(rows, rhs)]
    dim = len(polar[0])
    # Exact duplicates define one facet; keep the first copy only.
    first_of: dict[tuple, int] = {}
    for i, p in enumerate(polar):
        first_of.setdefault(p, i)
    keep = []
    for i, p in enumerate(polar):
        if first_of[p] != i:
            continue
        others = [q for j, q in enumerate(polar) if j != i and first_of[q] == j]
        if not _in_convex_hull(p, others):
            keep.append(i)
    return keep


def _in_convex_hull(point, points) -> bool:
    if not points:
        return False
    n = len(points)
    dim = len(point)
    constraints = []
    for c in range(dim):
        constraints.append(([p[c] for p in points], EQ, point[c]))
    constraints.append(([1] * n, EQ, 1))
    res: LPResult = solve_lp(n, [0] * n, constraints, nonneg=[True] * n)
    return res.is_optimal
