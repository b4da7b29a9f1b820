"""Tests as power polynomials and back.

A randomized test on multinomial counts is a map from count vectors to
rejection probabilities; its power function is the homogeneous degree-n
polynomial whose pi^x coefficient is phi(x) * B_x, with B_x the
multinomial coefficient of x.  The box constraints 0 <= c_x <= B_x
characterize exactly the polynomials arising this way, which makes the
translation invertible.  One cached table of (pi_1 + ... + pi_k)^n
coefficients, `polynomial.simplex_coefficients(k, n)`, supplies both the
count vectors (its keys, in descending lex order) and the B_x (its values).

Everything here is exact except `monte_carlo_power`, the one
deliberately float-based validation path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from powerpoly.polynomial import Polynomial, _exponent, simplex_coefficients


def count_vectors(n: int, k: int) -> list[tuple[int, ...]]:
    """All count vectors of size n over k categories, descending lex."""
    return list(simplex_coefficients(k, n))


class TestFunction:
    """Randomized test: count vector -> rejection probability in [0, 1]."""

    __test__ = False  # the name is statistics jargon, not a pytest class

    __slots__ = ("n", "k", "values")

    def __init__(self, n: int, k: int, values: Mapping[tuple[int, ...], Fraction]):
        if n < 1 or k < 2:
            raise ValueError("need n >= 1 and k >= 2")
        table = dict.fromkeys(simplex_coefficients(k, n), Fraction(0))
        exact: dict = {}  # each distinct phi once, converted and range-checked
        for x, phi in values.items():
            x = tuple(v if type(v) is int else _exponent(v, x) for v in x)
            if x not in table:
                raise ValueError(f"{x} is not a count vector for n={n}, k={k}")
            try:
                table[x] = exact[phi]
            except (KeyError, TypeError):  # a new value, or an unhashable one
                p = Fraction(phi)
                if not 0 <= p <= 1:
                    raise ValueError(f"phi({x}) = {p} outside [0, 1]") from None
                table[x] = exact[phi] = p
        self.n = n
        self.k = k
        self.values = table

    def __call__(self, x: Sequence[int]) -> Fraction:
        return self.values[tuple(x)]

    def __eq__(self, other):
        return (
            isinstance(other, TestFunction)
            and (self.n, self.k) == (other.n, other.k)
            and self.values == other.values
        )

    def items(self):
        """(count vector, phi) pairs in the canonical descending-lex order."""
        return list(self.values.items())

    @staticmethod
    def constant(n: int, k: int, level) -> "TestFunction":
        phi = Fraction(level)
        return TestFunction(n, k, dict.fromkeys(simplex_coefficients(k, n), phi))


@dataclass(frozen=True)
class BoxCheckResult:
    ok: bool
    reason: str = ""
    index: tuple[int, ...] | None = None
    coefficient: Fraction | None = None
    bound: int | None = None

    def __bool__(self):
        return self.ok


def box_check(p: Polynomial, n: int, k: int) -> BoxCheckResult:
    """Is p a valid power polynomial (homogeneous degree n, boxed coefficients)?"""
    if p.nvars != k:
        return BoxCheckResult(False, f"polynomial has {p.nvars} variables, expected {k}")
    if p.is_zero():
        return BoxCheckResult(True)
    if not p.is_homogeneous(n):
        return BoxCheckResult(False, f"not homogeneous of degree {n}")
    # Absent coefficients are 0, inside the box; the first violation is
    # the first in descending lex order.
    for x, bound in simplex_coefficients(k, n).items():
        c = p.terms.get(x)
        if c is not None and not 0 <= c <= bound:
            return BoxCheckResult(
                False,
                f"coefficient of index {x} is {c}, outside [0, {bound}]",
                index=x,
                coefficient=c,
                bound=bound,
            )
    return BoxCheckResult(True)


@dataclass(frozen=True)
class PowerPolynomial:
    """Homogeneous degree-n polynomial satisfying the box constraints."""

    n: int
    k: int
    poly: Polynomial

    def __post_init__(self):
        check = box_check(self.poly, self.n, self.k)
        if not check:
            raise ValueError(f"not a power polynomial: {check.reason}")


def _power_function(phi: TestFunction) -> Polynomial:
    """sum phi(x) B_x pi^x, the power function of phi."""
    bounds = simplex_coefficients(phi.k, phi.n)
    return Polynomial._of(phi.k, {x: v * bounds[x] for x, v in phi.values.items() if v})


def test_to_power(phi: TestFunction) -> PowerPolynomial:
    return PowerPolynomial(phi.n, phi.k, _power_function(phi))


def recover_test(beta: PowerPolynomial) -> TestFunction:
    """Invert test_to_power by coefficientwise division."""
    bounds = simplex_coefficients(beta.k, beta.n)
    return TestFunction(beta.n, beta.k, {x: c / bounds[x] for x, c in beta.poly.terms.items()})


def normalize_to_power(beta_tilde: Polynomial, n: int, k: int):
    """Rescale a separating polynomial into a power polynomial.

    Homogenize to degree n, add b*(sum pi)^n with the smallest b >= 0
    making every coefficient nonnegative, then scale by the largest a > 0
    respecting the upper box bounds.  Returns (power, a, b); on a null set
    where beta_tilde <= 0 with supremum 0 the induced test has size a*b.
    """
    if beta_tilde.nvars != k:
        raise ValueError(f"expected {k} variables, got {beta_tilde.nvars}")
    if beta_tilde.total_degree() > n:
        raise ValueError("degree exceeds the sample size")
    hom = beta_tilde.homogenize(n)
    level = Polynomial.simplex_power(k, n)
    bounds = simplex_coefficients(k, n)
    coeff = hom.coefficient
    x0 = next(iter(bounds))
    if not hom.terms or all(
        coeff(x) * bounds[x0] == coeff(x0) * bound for x, bound in bounds.items()
    ):
        raise ValueError("polynomial is constant on the simplex")
    b = max(Fraction(0), max(-coeff(x) / bound for x, bound in bounds.items()))
    # Every shifted coefficient is >= 0, and not all are 0, for then hom
    # would be -b times the level polynomial.
    a = min(bound / s for x, bound in bounds.items() if (s := coeff(x) + b * bound) > 0)
    scaled = a * (hom + b * level)
    return PowerPolynomial(n, k, scaled), a, b


def exact_power(phi: TestFunction, point: Sequence) -> Fraction:
    """E_pi(phi) = sum phi(x) B_x pi^x, exactly."""
    pt = [Fraction(v) for v in point]
    if len(pt) != phi.k:
        raise ValueError(f"point has {len(pt)} coordinates, expected {phi.k}")
    if any(v < 0 for v in pt) or sum(pt) != 1:
        raise ValueError("point is not on the probability simplex")
    return _power_function(phi).evaluate(pt)


@dataclass(frozen=True)
class MonteCarloEstimate:
    estimate: float
    std_error: float
    reps: int
    seed: int


def monte_carlo_power(
    phi: TestFunction, point: Sequence[float], reps: int, seed: int
) -> MonteCarloEstimate:
    """Empirical rejection rate under Multinomial(point, n).

    Uses numpy's seeded PCG64 generator (stable across platforms); counts
    are drawn per replication and the randomized rejection is aggregated
    binomially per distinct count vector, which has the same law as
    flipping the phi(x) coin per draw.  The distinct vectors are taken in
    ascending lex order, and one binomial is drawn for each with
    0 < phi(x) < 1, in that order.  A point with a negative or non-finite
    coordinate, or whose sum is more than 1e-9 from 1, is a ValueError.
    """
    import numpy as np

    if reps < 1:
        raise ValueError("reps must be >= 1")
    p = np.asarray([float(v) for v in point], dtype=float)
    if len(p) != phi.k:
        raise ValueError(f"point has {len(p)} coordinates, expected {phi.k}")
    # NaN fails both comparisons, and an infinite coordinate the sum.
    if not ((p >= 0).all() and abs(p.sum() - 1) <= 1e-9):
        raise ValueError(f"point {point!r} is not on the probability simplex")
    rng = np.random.Generator(np.random.PCG64(seed))
    draws = rng.multinomial(phi.n, p / p.sum(), size=reps)
    draws = draws[np.lexsort(draws.T[::-1])]
    starts = np.flatnonzero(np.r_[True, (draws[1:] != draws[:-1]).any(axis=1)])
    counts = np.diff(np.r_[starts, reps])
    pr = np.array([float(phi.values[tuple(row)]) for row in draws[starts].tolist()])
    coin = (pr > 0.0) & (pr < 1.0)
    rejected = int(counts[pr >= 1.0].sum()) + int(rng.binomial(counts[coin], pr[coin]).sum())
    est = rejected / reps
    se = (est * (1.0 - est) / reps) ** 0.5
    return MonteCarloEstimate(est, se, reps, seed)


def symmetrize(beta: Polynomial, perms: Sequence[Sequence[int]]) -> Polynomial:
    """Average of beta over the listed variable-index permutations."""
    if not perms:
        raise ValueError("need at least one permutation")
    total = Polynomial.zero(beta.nvars)
    for perm in perms:
        total = total + beta.permute_variables(list(perm))
    return total * Fraction(1, len(perms))


def max_statistic_test(n: int, c: Fraction) -> TestFunction:
    """Non-randomized test rejecting when max(x1, x2) > n/4 + sqrt(n)*c.

    k = 3; the irrational sqrt(n) comparison is decided exactly on integer
    counts: m > n/4 + sqrt(n) c  iff  m - n/4 > 0 and (m - n/4)^2 > n c^2.
    """
    c = Fraction(c)
    if c < 0:
        raise ValueError("calibration constant must be nonnegative")
    values = {}
    for x in count_vectors(n, 3):
        m = max(x[0], x[1])
        lhs = m - Fraction(n, 4)
        if lhs > 0 and lhs * lhs > n * c * c:
            values[x] = Fraction(1)
    return TestFunction(n, 3, values)
