"""Exact rational linear programming: a primal simplex on {x : A x <= b}.

`solve_lp` maximizes over free variables.  Its rows are pairs (a, b)
meaning a.x <= b, the one row form of every polytope in the package (the
form `polytope.enumerate_vertices_dd` takes); an equality is its two rows
a.x <= b and -a.x <= -b.  Only the pivot columns of rref(A) are kept, so
A has full column rank d and every vertex has d linearly independent
tight rows.  The walk is one pivot loop over d basis slots.  A slot holds
a tight row, or the unit row of a coordinate that is still free; the
walk starts with every slot free, at the given point.  The basis inverse
is an integer matrix over D = |det|, updated by one fraction-free pivot
per move (Edmonds, J. Res. NBS 1967).  The lowest free slot leaves
first, so the walk reaches a vertex; then Bland's rule (Bland, Math.
Oper. Res. 1977) picks the leaving row, so it terminates without
cycling.  Phase 1 is the same walk on {A z - s <= b, -s <= 0}.  No
equality is solved away, so phase 2 walks on the caller's rows one for
one.  Points and slacks are Fractions, so optima and optimizers are
exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from powerpoly.linalg import primitive_ints, rref


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
    the objective is unbounded.  One loop pivots on d basis slots: slot j
    holds a tight row, or the unit row e_j while coordinate j is still
    free.  The basis inverse is kept fraction-free (Edmonds, J. Res. NBS
    1967) as integer columns inv[j] over D = |det A_B|, starting from the
    identity over 1.  While a slot is free, the lowest one leaves: x moves
    along +-inv[j], uphill when the objective sees it, until a row blocks.
    Once every slot holds a row, Bland's rule picks the leaving row.
    """
    d = len(c)
    c = primitive_ints(c)
    x = list(x)
    # Scaling a row with its bound, a direction or the objective by a
    # positive number moves no point and changes no ratio order or
    # multiplier sign, so the walk runs on primitive integer vectors.
    rows = [primitive_ints(row + [r]) for row, r in zip(a, b)]
    a = [list(row[:-1]) for row in rows]
    slack = [Fraction(row[-1]) - _dot(a_i, x) for row, a_i in zip(rows, a)]
    # Moving along -inv[j] leaves slot j's row and keeps the others tight.
    basis: list[int | None] = [None] * d
    inv = [[int(p == q) for q in range(d)] for p in range(d)]
    det = 1
    while True:
        if None in basis:
            j = basis.index(None)
        else:
            # c = y . A_B / D with y_j = c . inv[j]; a negative y_j means
            # leaving row basis[j] raises the objective.  Bland: the lowest
            # such row leaves.
            leaving = [(i, j) for j, i in enumerate(basis) if _dot(c, inv[j]) < 0]
            if not leaving:
                return x
            j = min(leaving)[1]
        # Uphill along +-inv[j]; a free slot whose column the objective
        # does not see goes either way, first along +inv[j].
        u = inv[j] if _dot(c, inv[j]) >= 0 else [-v for v in inv[j]]
        i = _move(a, slack, x, u)
        if i is None:
            if _dot(c, u) > 0:
                return None
            i = _move(a, slack, x, [-v for v in u])
        # Row i blocked a move along +-inv[j], so w[j] != 0 and row i takes
        # slot j; every update below divides exactly by the old |det|.
        w = [_dot(a[i], col) for col in inv]
        s = 1 if w[j] > 0 else -1
        inv = [
            [s * v for v in col] if k == j
            else [s * (v * w[j] - wk * p) // det for v, p in zip(col, inv[j])]
            for k, (col, wk) in enumerate(zip(inv, w))
        ]
        det = abs(w[j])
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
