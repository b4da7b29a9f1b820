"""Shared test data (worked examples frozen from the reference tables) and oracles."""

from fractions import Fraction
from itertools import combinations, product
from math import factorial

import pytest

from powerpoly import MonomialOrder, parse_polynomial
from powerpoly.linalg import rank, solve_linear

VARS3 = ["p1", "p2", "p3"]

# Reduced Groebner basis of the constrained 2x3 independence model
# (graded reverse lex on p11 > p12 > p13 > p21 > p22).
EXAMPLE5_VARS = ["p11", "p12", "p13", "p21", "p22"]
EXAMPLE5_BASIS = [
    "p11 - p12 - p13 + 2*p21",
    "p12*p21 - p12*p22 - p13*p22 + 2*p21*p22",
    "2*p12^2 + 4*p12*p13 + 2*p13^2 - 4*p13*p21 + 2*p21^2"
    " - 4*p12*p22 - 4*p13*p22 + 8*p21*p22 - p12 - p13 + 2*p21",
    "2*p13^2*p21 - 4*p13*p21^2 + 2*p21^3 + 2*p12*p13*p22 + 2*p13^2*p22"
    " - 8*p13*p21*p22 + 6*p21^2*p22 - 4*p12*p22^2 - 4*p13*p22^2"
    " + 8*p21*p22^2 - p13*p21 + 2*p21^2",
]

# Published coefficient-polytope vertex tables for n = 3, alpha = 1/20.
# Coordinates as printed; the printed order lists h_{p3}, h_{p2}, h_{p1}.
PRINTED_VERTICES_SUM = [
    ("-0.05", "0.05", "-0.05"),
    ("0.05", "0.1", "-0.05"),
    ("-0.05", "-0.05", "-0.05"),
    ("0.05", "-0.05", "-0.05"),
    ("-0.05", "-0.05", "0.05"),
    ("0.05", "-0.05", "0.1"),
    ("-0.05", "0.05", "0.05"),
    ("0.15", "0.15", "0.15"),
]

PRINTED_VERTICES_WEIGHTED = [
    ("-0.05", "-0.025", "-0.0125"),
    ("0.0625", "-0.025", "0.1"),
    ("-0.0375", "-0.0375", "0"),
    ("0.0125", "-0.05", "0.05"),
    ("0.05", "-0.5", "0.0875"),  # first coordinate suspected misprint of -0.05
    ("0.0375", "-0.0375", "0"),
    ("0.03438", "-0.025", "-0.0125"),
    ("0.05", "-0.05", "0.05"),
    ("-0.03438", "0.09219", "-0.0125"),  # sign of first coordinate suspect
    ("-0.0125", "0.06875", "-0.0125"),
    ("0.05", "0.1", "0.05"),
    ("0.0625", "0.0875", "0.1"),
    ("-0.05", "0.03125", "-0.0125"),
]


@pytest.fixture
def example5_polys():
    return [parse_polynomial(s, EXAMPLE5_VARS) for s in EXAMPLE5_BASIS]


def printed_to_exact(table):
    """Decimal strings to Fractions (exact: the decimals terminate)."""
    return [tuple(Fraction(x) for x in row) for row in table]


def simplex_points_3():
    """A few exact rational points on the 2-simplex."""
    return [
        (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
        (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
        (Fraction(2, 5), Fraction(2, 5), Fraction(1, 5)),
        (Fraction(7, 10), Fraction(1, 10), Fraction(1, 5)),
        (Fraction(0), Fraction(1, 2), Fraction(1, 2)),
    ]


def multinomial(n, counts):
    """n! / (c_1! ... c_k!) by factorials: the oracle of
    `simplex_coefficients`, sharing no code with it."""
    if sum(counts) != n or any(c < 0 for c in counts):
        raise ValueError(f"{counts} is not a composition of {n}")
    out = factorial(n)
    for c in counts:
        out //= factorial(c)
    return out


def monomials_of_degree(nvars, degree):
    """Every exponent vector of the given total degree, in descending lex
    order, filtered from all of {degree, ..., 0}^nvars."""
    return [e for e in product(range(degree, -1, -1), repeat=nvars) if sum(e) == degree]


def order_key(order):
    """Tuple sort key of a graded monomial order, the oracle of
    `Packing.key`: key(a) > key(b) iff monomial a > monomial b.

    Total degree first; graded lex then compares the exponents from x_1
    on, graded reverse lex the negated exponents from x_n back."""
    if order is MonomialOrder.GRLEX:
        return lambda a: (sum(a), a)
    return lambda a: (sum(a), tuple(-e for e in reversed(a)))


def enumerate_vertices_brute_force(a, b):
    """Independent vertex oracle: solve every d-subset of rows, keep the feasible points.

    Exponential; only suitable for small systems.
    """
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
