"""Small exact linear-algebra helpers over the rationals."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Matrix = list[list[Fraction]]


def _to_matrix(rows: Sequence[Sequence]) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def rref(rows: Sequence[Sequence]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot column indices."""
    m = _to_matrix(rows)
    if not m:
        return m, []
    nrows, ncols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(rows: Sequence[Sequence]) -> int:
    return len(rref(rows)[1])


def solve_linear(a: Sequence[Sequence], b: Sequence) -> list[Fraction] | None:
    """One exact solution of A x = b, or None when inconsistent.

    Free variables are set to zero.
    """
    if not a:
        return []
    aug = [[Fraction(x) for x in row] + [Fraction(rhs)] for row, rhs in zip(a, b)]
    red, pivots = rref(aug)
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

    Each entry becomes its numerator over the lcm `den` of the denominators
    (an int is its own numerator over 1), and the gcd `g` of those
    numerators is divided out, so no Fraction is built.  The scale g / den
    is positive unless every entry is zero (then g = 0).
    """
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
