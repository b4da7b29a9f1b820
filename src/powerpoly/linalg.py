"""Small exact linear-algebra helpers over the rationals."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Matrix = list[list[Fraction]]


def echelon(rows: Sequence[Sequence[int]]) -> tuple[list[tuple[int, list[int]]], list[int]]:
    """Fraction-free Gauss-Jordan elimination on integer rows, in input order.

    Returns (reduced, kept).  `kept` holds the indices of the rows that are
    independent of the rows before them.  reduced[i] is (c, row) for the
    i-th kept row: row is a primitive integer vector whose first nonzero
    entry row[c] is positive, and every other reduced row is zero in column
    c.  The rows stay integral as in Bareiss's fraction-free elimination
    (Math. Comp. 1968): a row operation p * row - f * pivot_row is
    followed by one gcd division.  The scan stops once the rank equals the
    number of columns.
    """
    reduced: list[tuple[int, list[int]]] = []
    kept: list[int] = []
    ncols = len(rows[0]) if rows else 0
    for idx, vec in enumerate(rows):
        if len(kept) == ncols:
            break
        for c, piv in reduced:
            f = vec[c]
            if f:
                p = piv[c]
                vec = [p * x - f * y for x, y in zip(vec, piv)]
        g = gcd(*vec)
        if not g:
            continue
        c = next(i for i, x in enumerate(vec) if x)
        if vec[c] < 0:
            g = -g
        vec = [x // g for x in vec]
        p = vec[c]
        for i, (ci, row) in enumerate(reduced):
            f = row[c]
            if f:
                row = [p * x - f * y for x, y in zip(row, vec)]
                g = gcd(*row)
                reduced[i] = (ci, [x // g for x in row])
        reduced.append((c, vec))
        kept.append(idx)
    return reduced, kept


def rref(rows: Sequence[Sequence]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form without its zero rows, and the pivot columns.

    The entries are ints or Fractions.  Each row is scaled once to a
    primitive integer vector, `echelon` reduces them, and each pivot row
    is divided by its pivot once at the end.
    """
    reduced = sorted(echelon([primitive_ints(row) for row in rows])[0])
    return [[Fraction(x, row[c]) for x in row] for c, row in reduced], [c for c, _ in reduced]


def rank(rows: Sequence[Sequence]) -> int:
    return len(rref(rows)[1])


def solve_linear(a: Sequence[Sequence], b: Sequence) -> list[Fraction] | None:
    """One exact solution of A x = b, or None when inconsistent.

    Free variables are set to zero.
    """
    if not a:
        return []
    red, pivots = rref([[*row, rhs] for row, rhs in zip(a, b)])
    ncols = len(a[0])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = red[r][-1]
    return x


def nullspace(rows: Sequence[Sequence]) -> list[list[Fraction]]:
    """Basis of the kernel of A."""
    if not rows:
        return []
    red, pivots = rref(rows)
    ncols = len(rows[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(v)
    return basis


def primitive_scaling(vec) -> tuple[list[int], int, int]:
    """(ints, g, den) with vec[i] = ints[i] * g / den and ints primitive.

    When every entry is an int, den = 1 and the scaling is one gcd.
    Otherwise each entry becomes its numerator over the lcm `den` of the
    denominators (an int is its own numerator over 1).  The gcd `g` of
    those numerators is divided out, so no Fraction is built.  The scale
    g / den is positive unless every entry is zero (then g = 0).
    """
    if all(type(v) is int for v in vec):
        ints, den = list(vec), 1
    else:
        den = lcm(*(v.denominator for v in vec))
        ints = [v.numerator * (den // v.denominator) for v in vec]
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    return ints, g, den


def primitive_ints(vec) -> tuple[int, ...]:
    """Scale ints and Fractions by a positive rational to a primitive integer vector.

    Only positive scaling is allowed, so a ray, a direction or a row
    a.x <= b (scaled with its right-hand side) keeps its sense.
    """
    return tuple(primitive_scaling(vec)[0])
