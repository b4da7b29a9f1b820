"""Exact linear algebra against sympy on seeded random matrices."""

import random
from fractions import Fraction

import pytest

from powerpoly.linalg import (
    echelon,
    nullspace,
    primitive_ints,
    primitive_scaling,
    rank,
    rref,
    solve_linear,
)

SEEDS = range(60)


@pytest.fixture
def sympy():
    return pytest.importorskip("sympy")


def random_matrix(seed, fractions=None):
    """A seeded int or Fraction matrix of 1..7 rows and 1..7 columns.

    Wide, tall and square shapes all occur.  Half the matrices are products
    of an r-column and an r-row factor, so they are rank deficient whenever
    r is below both sizes (r = 0 gives the zero matrix); some get a zero row
    or a repeated, rescaled row inserted at random places.
    """
    rng = random.Random(seed)
    if fractions is None:
        fractions = seed % 2 == 1

    def entry():
        if fractions:
            return Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        return rng.randint(-4, 4)

    nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
    if rng.random() < 0.5:
        rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    else:
        r = rng.randint(0, min(nrows, ncols))
        left = [[entry() for _ in range(r)] for _ in range(nrows)]
        right = [[entry() for _ in range(ncols)] for _ in range(r)]
        rows = [[sum(x * y[j] for x, y in zip(row, right)) for j in range(ncols)] for row in left]
    if rng.random() < 0.3:
        rows.insert(rng.randint(0, len(rows)), [0] * ncols)
    if rng.random() < 0.4:
        scale = rng.choice([1, -2, 3])
        rows.insert(rng.randint(0, len(rows)), [scale * x for x in rng.choice(rows)])
    return rows


def exact(x):
    return Fraction(str(x))


@pytest.mark.parametrize("seed", SEEDS)
def test_rref_and_rank_match_sympy(sympy, seed):
    rows = random_matrix(seed)
    want, want_pivots = sympy.Matrix(rows).rref()
    red, pivots = rref(rows)
    assert pivots == list(want_pivots)
    assert red == [[exact(x) for x in want.row(i)] for i in range(len(pivots))]
    assert all(isinstance(x, Fraction) for row in red for x in row)
    assert rank(rows) == sympy.Matrix(rows).rank()


@pytest.mark.parametrize("seed", SEEDS)
def test_nullspace_matches_sympy(sympy, seed):
    rows = random_matrix(seed)
    basis = nullspace(rows)
    assert basis == [[exact(x) for x in v] for v in sympy.Matrix(rows).nullspace()]
    for v in basis:
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)


@pytest.mark.parametrize("seed", SEEDS)
def test_solve_linear_solves_or_reports_inconsistent(sympy, seed):
    rows = random_matrix(seed)
    rng = random.Random(1000 + seed)
    if seed % 3:
        # Consistent by construction: b = A x0.
        x0 = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in rows[0]]
        b = [sum(a * x for a, x in zip(row, x0)) for row in rows]
    else:
        b = [rng.randint(-3, 3) for _ in rows]
    x = solve_linear(rows, b)
    inconsistent = sympy.linsolve((sympy.Matrix(rows), sympy.Matrix(b))) == sympy.EmptySet
    assert (x is None) == inconsistent
    if x is not None:
        assert [sum(a * v for a, v in zip(row, x)) for row in rows] == b


@pytest.mark.parametrize("seed", SEEDS)
def test_echelon_keeps_the_rows_that_raise_the_rank(sympy, seed):
    rows = random_matrix(seed, fractions=False)
    reduced, kept = echelon(rows)
    ranks = [sympy.Matrix(rows[:i]).rank() if i else 0 for i in range(len(rows) + 1)]
    assert kept == [i for i in range(len(rows)) if ranks[i + 1] > ranks[i]]
    # Each kept row is primitive, its pivot is its first nonzero entry and
    # positive, and every other reduced row is zero in its pivot column.
    pivots = [c for c, _ in reduced]
    for c, row in reduced:
        assert all(isinstance(x, int) for x in row)
        assert next(i for i, x in enumerate(row) if x) == c and row[c] > 0
        assert abs(sympy.gcd_list(row)) == 1
        assert all(other[c] == 0 for d, other in reduced if d != c)
    assert len(set(pivots)) == len(pivots)
    # The reduced rows span the rows kept.
    span = sympy.Matrix([rows[i] for i in kept]).rref()
    assert sympy.Matrix([r for _, r in reduced]).rref() == span


class _Unread:
    """A row that fails the test when echelon reads it."""

    def __getitem__(self, i):
        raise AssertionError("row read after full column rank")

    def __iter__(self):
        raise AssertionError("row read after full column rank")


def test_echelon_stops_at_full_column_rank():
    reduced, kept = echelon([[0, 0], [2, 4], [2, 4], [3, -1], _Unread()])
    assert kept == [1, 3]
    assert sorted(reduced) == [(0, [1, 0]), (1, [0, 1])]


def test_echelon_does_not_modify_its_rows():
    # [2, 4] is not primitive: the reduced row is divided, the input is not.
    rows = [[2, 4], [-3, 0]]
    reduced, kept = echelon(rows)
    assert rows == [[2, 4], [-3, 0]]
    assert kept == [0, 1]
    assert reduced == [(0, [1, 0]), (1, [0, 1])]


def test_empty_inputs():
    assert echelon([]) == ([], [])
    assert rref([]) == ([], [])
    assert rref([[0, 0], [0, 0]]) == ([], [])
    assert nullspace([[0, 0]]) == [[1, 0], [0, 1]]
    assert solve_linear([[0, 0]], [1]) is None
    assert solve_linear([[0, 0]], [0]) == [0, 0]


@pytest.mark.parametrize(
    "vec, expected",
    [
        ((0, 6, -4), ([0, 3, -2], 2, 1)),
        ([3, -1], ([3, -1], 1, 1)),
        ((0, 0), ([0, 0], 0, 1)),
        ((Fraction(1, 2), 3), ([1, 6], 1, 2)),
        ((Fraction(4, 3), Fraction(-2, 9), 0), ([6, -1, 0], 2, 9)),
        ((True, 2), ([1, 2], 1, 1)),
    ],
)
def test_primitive_scaling(vec, expected):
    # All ints take one gcd; any other entry goes through the denominators.
    ints, g, den = primitive_scaling(vec)
    assert (ints, g, den) == expected
    assert [Fraction(x * g, den) for x in ints] == list(vec)
    assert primitive_ints(vec) == tuple(ints)
