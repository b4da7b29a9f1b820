"""Exact rational linear programming: a primal simplex on {x : A x <= b}.

`solve_lp` maximizes over free variables.  Its rows are pairs (a, b)
meaning a.x <= b, the one row form of every polytope in the package (the
form `polytope.enumerate_vertices_dd` takes); an equality is its two rows
a.x <= b and -a.x <= -b.  Only the pivot columns of rref(A) are kept, so
A has full column rank d and every vertex has d linearly independent
tight rows.  The walk keeps d tight rows and the inverse of their matrix,
rank-1 updated per pivot, and follows Bland's rule (Bland, Math. Oper.
Res. 1977), so it terminates without cycling.  Phase 1 is the same walk
on {A z - s <= b, -s <= 0}.  No equality is solved away, so phase 2
walks on the caller's rows one for one.  All arithmetic is on Fractions,
so optima and optimizers are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from powerpoly.linalg import nullspace, primitive_ints, rref


@dataclass
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None = None
    point: list[Fraction] | None = None

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


def _dot(u, v):
    return sum(map(mul, u, v))


def _move(a, slack, x, u):
    """Step x along u until a row blocks it; return that row, or None.

    Among rows that block at the same step length the lowest index wins.
    """
    u = primitive_ints(u)
    rates = [_dot(row, u) for row in a]
    blocking = [(s / r, i) for i, (s, r) in enumerate(zip(slack, rates)) if r > 0]
    if not blocking:
        return None
    t, i = min(blocking)
    x[:] = [v + t * w for v, w in zip(x, u)]
    slack[:] = [s - t * r for s, r in zip(slack, rates)]
    return i


def _walk(a, b, c, x):
    """Maximize c.x over {x : a x <= b} from the feasible point x.

    `a` has full column rank.  Returns the optimal vertex, or None when
    the objective is unbounded.
    """
    d = len(c)
    x = list(x)
    # Scaling a row with its bound, or a direction, by a positive number
    # moves no point and changes no ratio order or multiplier sign, so the
    # walk runs on primitive integer rows and directions.
    rows = [primitive_ints(row + [r]) for row, r in zip(a, b)]
    a = [list(row[:-1]) for row in rows]
    slack = [Fraction(row[-1]) - _dot(a_i, x) for row, a_i in zip(rows, a)]
    # To a vertex: each move keeps the chosen rows tight and makes one more
    # row tight, which is independent of them because it blocked the move.
    basis: list[int] = []
    while len(basis) < d:
        u = nullspace([a[i] for i in basis] or [[0] * d])[0]
        if _dot(c, u) < 0:
            u = [-v for v in u]
        i = _move(a, slack, x, u)
        if i is None:
            if _dot(c, u) > 0:
                return None
            i = _move(a, slack, x, [-v for v in u])
        basis.append(i)
    # Columns of the basis inverse: moving along -inv[j] leaves row basis[j]
    # and keeps the other basic rows tight.
    red, _ = rref([a[i] + [int(p == q) for q in range(d)] for p, i in enumerate(basis)])
    inv = [[row[d + j] for row in red] for j in range(d)]
    while True:
        # c = y . A_B; a negative multiplier y_j means leaving row basis[j]
        # raises the objective.  Bland: the lowest such row leaves.
        y = [_dot(c, col) for col in inv]
        leaving = [(i, j) for j, i in enumerate(basis) if y[j] < 0]
        if not leaving:
            return x
        j = min(leaving)[1]
        i = _move(a, slack, x, [-v for v in inv[j]])
        if i is None:
            return None
        w = [_dot(a[i], col) for col in inv]
        pivot = [v / w[j] for v in inv[j]]
        inv = [
            pivot if k == j else [v - wk * p for v, p in zip(col, pivot)] if wk else col
            for k, (col, wk) in enumerate(zip(inv, w))
        ]
        basis[j] = i


def solve_lp(
    nvars: int,
    objective: Sequence,
    constraints: Sequence[tuple[Sequence, object]],
) -> LPResult:
    """Maximize objective.x over free x subject to rows (coeffs, rhs), each coeffs.x <= rhs.

    This is the row form `polytope.enumerate_vertices_dd` takes; an
    equality is passed as its two rows.
    """
    c = [Fraction(v) for v in objective]
    if len(c) != nvars:
        raise ValueError("objective length mismatch")
    rows = [([Fraction(v) for v in coeffs], Fraction(rhs)) for coeffs, rhs in constraints]
    if any(len(row) != nvars for row, _ in rows):
        raise ValueError("constraint length mismatch")
    a, b = [row for row, _ in rows], [r for _, r in rows]

    # Keep the pivot columns of rref(a).  A free column is a combination of
    # them; when the objective disagrees with that combination, it moves
    # along a direction no row sees.
    red, piv = rref(a)
    unseen = any(
        c[f] != sum(c[p] * row[f] for p, row in zip(piv, red))
        for f in range(nvars)
        if f not in piv
    )
    a = [[row[p] for p in piv] for row in a]
    d = len(piv)
    z = [Fraction(0)] * d
    if b and min(b) < 0:
        phase1 = _walk(
            [row + [-1] for row in a] + [[0] * d + [-1]],
            b + [0],
            [0] * d + [-1],
            z + [-min(b)],
        )
        if phase1[-1] > 0:
            return LPResult("infeasible")
        z = phase1[:d]
    if unseen:
        return LPResult("unbounded")
    z = _walk(a, b, [c[p] for p in piv], z)
    if z is None:
        return LPResult("unbounded")
    point = [Fraction(0)] * nvars
    for zk, p in zip(z, piv):
        point[p] = zk
    return LPResult("optimal", _dot(c, point), point)
