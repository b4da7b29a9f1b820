"""Tests as power polynomials and back.

A randomized test on multinomial counts is a map from count vectors to
rejection probabilities; its power function is the homogeneous degree-n
polynomial whose pi^x coefficient is phi(x) * B_x, with B_x the
multinomial coefficient of x.  The box constraints 0 <= c_x <= B_x
characterize exactly the polynomials arising this way, which makes the
translation invertible.  One cached table of (pi_1 + ... + pi_k)^n
coefficients, `polynomial.simplex_coefficients(k, n)`, supplies both the
count vectors (its keys, in descending lex order) and the B_x (its values).

Tests and power polynomials are built on integers, as fraction-free
arithmetic does (Geddes, Czapor & Labahn, Algorithms for Computer
Algebra, 1992): a `TestFunction` holds one integer numerator per count
vector of its support over one common denominator, every construction
forms each c_x as an integer numerator over one denominator, and one
integer box check, 0 <= num_x <= den * B_x, guards every power
polynomial, whether built here (`PowerPolynomial.from_numerators`) or
given from outside (`PowerPolynomial(n, k, poly)`, `box_check`).  A
returned polynomial keeps the numerators as its integer term map, so a
Fraction is built per term only when a caller reads its `terms`, or per
count vector when a test's `values` are read.

Everything here is exact except `monte_carlo_power`, the one
deliberately float-based validation path, and it too stays on integers
until the last step: its draws are grouped by packed integer codes of
their count vectors, and each phi(x) becomes the float num / den.  The
`power-grid` command likewise reads its float coefficients
num * B_x / den off a test's numerators, without building its power
polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import Mapping, Sequence

from powerpoly.parser import exact_rational
from powerpoly.polynomial import Polynomial, _exponent, simplex_coefficients


def count_vectors(n: int, k: int) -> list[tuple[int, ...]]:
    """All count vectors of size n over k categories, descending lex."""
    return list(simplex_coefficients(k, n))


def require_test_size(n: int, k: int):
    """Refuse a sample size n < 1 or fewer than k = 2 categories: no test has them."""
    if n < 1 or k < 2:
        raise ValueError("need n >= 1 and k >= 2")


def _support(
    n: int, k: int, slots: Mapping[tuple[int, ...], int], exact: Sequence[Fraction]
) -> tuple[dict, int]:
    """(nums, den) of the test of size n over k categories with phi(x) = exact[slots[x]].

    The one check of a test's entries, which `TestFunction` and the CLI's
    JSON reader share: the size, then every x a count vector (k entries,
    none negative, summing to n) and every phi in [0, 1], each over the
    whole list at once.  Only when a check fails are the entries walked,
    in order, to name the first bad one.  Each distinct value is then
    scaled to the least common denominator once; `nums` keeps the count
    vectors with phi > 0, in descending lex order.
    """
    require_test_size(n, k)
    # Each check reads its whole list in C; `len` comes first, so `min`
    # meets no empty vector.
    if not (
        set(map(len, slots)) <= {k}
        and set(map(sum, slots)) <= {n}
        and min(map(min, slots), default=0) >= 0
        and 0 <= min(exact, default=0)
        and max(exact, default=0) <= 1
    ):
        for x, s in slots.items():
            if len(x) != k or min(x) < 0 or sum(x) != n:
                raise ValueError(f"{x} is not a count vector for n={n}, k={k}")
            if not 0 <= exact[s] <= 1:
                raise ValueError(f"phi({x}) = {exact[s]} outside [0, 1]")
    den = lcm(*(p.denominator for p in exact))
    scaled = [p.numerator * (den // p.denominator) for p in exact]
    # Sorting keys in descending lex order is linear when they come so.
    return {x: scaled[s] for x, s in sorted(slots.items(), reverse=True) if scaled[s]}, den


class TestFunction:
    """Randomized test: count vector -> rejection probability in [0, 1].

    Stored on its support, as its power polynomial is: `nums` maps each
    count vector x with phi(x) > 0, in descending lex order, to an integer
    numerator over the common denominator `den`, and a count vector it
    leaves out has phi = 0.  `den` is the least one, so
    gcd(den, *nums) = 1 and two tests are equal exactly when their `den`
    and `nums` are.  `values`, `items()` and a call read every count
    vector off the table of `simplex_coefficients(k, n)` on access;
    building a test never builds that table.  Each phi value, and the
    level of `constant`, is read by `parser.exact_rational`, so a float
    is refused.
    """

    __test__ = False  # the name is statistics jargon, not a pytest class

    __slots__ = ("n", "k", "nums", "den")

    def __init__(self, n: int, k: int, values: Mapping[tuple[int, ...], Fraction]):
        ints = (int,) * k
        # Each distinct phi object is converted once, looked up by id;
        # `kept` holds the objects, so no id is reused.  `_support` checks
        # the entries.
        exact: list = []
        slot_of: dict[int, int] = {}
        kept = []
        slots = {}
        for x, phi in values.items():
            if tuple(map(type, x)) != ints:
                x = tuple(v if type(v) is int else _exponent(v, x) for v in x)
            slot = slot_of.get(id(phi))
            if slot is None:
                slot = slot_of[id(phi)] = len(exact)
                exact.append(phi if type(phi) is Fraction else exact_rational(phi))
                kept.append(phi)
            slots[x] = slot
        self.n = n
        self.k = k
        self.nums, self.den = _support(n, k, slots, exact)

    @classmethod
    def _of(cls, n: int, k: int, nums: dict, den: int) -> "TestFunction":
        """Trusted constructor: adopts `nums` and `den` as they are.

        The caller guarantees the invariants of the class: `nums` holds
        only count vectors, each with a numerator in (0, den], in
        descending lex order, and gcd(den, *nums) = 1.  Only the size is
        checked.
        """
        require_test_size(n, k)
        phi = object.__new__(cls)
        phi.n, phi.k, phi.nums, phi.den = n, k, nums, den
        return phi

    @property
    def values(self) -> Mapping[tuple[int, ...], Fraction]:
        table, nums, den = simplex_coefficients(self.k, self.n), self.nums, self.den
        return MappingProxyType({x: Fraction(nums.get(x, 0), den) for x in table})

    def __call__(self, x: Sequence[int]) -> Fraction:
        x = tuple(x)
        if x not in simplex_coefficients(self.k, self.n):
            raise KeyError(x)
        return Fraction(self.nums.get(x, 0), self.den)

    def __eq__(self, other):
        return (
            isinstance(other, TestFunction)
            and (self.n, self.k, self.den) == (other.n, other.k, other.den)
            and self.nums == other.nums
        )

    def items(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """(count vector, phi) pairs in the canonical descending-lex order."""
        return list(self.values.items())

    @staticmethod
    def constant(n: int, k: int, level) -> "TestFunction":
        phi = exact_rational(level)
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


_INSIDE = BoxCheckResult(True)


def _integer_box_check(nums: Mapping, den: int, n: int, k: int) -> BoxCheckResult:
    """The box check on integers: 0 <= nums[x] <= den * B_x for every count vector x.

    `nums` maps count vectors to integer numerators over the positive
    denominator `den`; an absent vector is 0, inside the box, so only
    the given ones are checked.  The lex-greatest violation is reported.
    """
    bounds = simplex_coefficients(k, n)
    bad = [x for x, c in nums.items() if not 0 <= c <= den * bounds[x]]
    if not bad:
        return _INSIDE
    x = max(bad)
    coefficient, bound = Fraction(nums[x], den), bounds[x]
    return BoxCheckResult(
        False,
        f"coefficient of index {x} is {coefficient}, outside [0, {bound}]",
        index=x,
        coefficient=coefficient,
        bound=bound,
    )


def box_check(p: Polynomial, n: int, k: int) -> BoxCheckResult:
    """Is p a valid power polynomial (homogeneous degree n, boxed coefficients)?"""
    if p.nvars != k:
        return BoxCheckResult(False, f"polynomial has {p.nvars} variables, expected {k}")
    if p.is_zero():
        return _INSIDE
    if not p.is_homogeneous(n):
        return BoxCheckResult(False, f"not homogeneous of degree {n}")
    num = p.scale.numerator
    return _integer_box_check({x: c * num for x, c in p.ints.items()}, p.scale.denominator, n, k)


@dataclass(frozen=True)
class PowerPolynomial:
    """Homogeneous degree-n polynomial satisfying the box constraints."""

    n: int
    k: int
    poly: Polynomial

    def __post_init__(self):
        _require_box(box_check(self.poly, self.n, self.k))

    @staticmethod
    def from_numerators(n: int, k: int, nums: Mapping, den: int) -> "PowerPolynomial":
        """sum nums[x] / den * pi^x, box-checked on the integers.

        `nums` maps count vectors to integer numerators over the positive
        denominator `den`, in the term order wanted; they become the
        polynomial's integer term map over the scale 1 / den, with no
        Fraction per term.
        """
        _require_box(_integer_box_check(nums, den, n, k))
        poly = Polynomial._of(k, {x: c for x, c in nums.items() if c}, Fraction(1, den))
        beta = object.__new__(PowerPolynomial)
        for name, value in (("n", n), ("k", k), ("poly", poly)):
            object.__setattr__(beta, name, value)
        return beta


def _require_box(check: BoxCheckResult):
    if not check:
        raise ValueError(f"not a power polynomial: {check.reason}")


def test_to_power(phi: TestFunction) -> PowerPolynomial:
    """beta = sum phi(x) B_x pi^x: numerators phi.nums[x] * B_x over phi.den.

    The terms follow `nums`, in descending lex order on phi's support.
    """
    bounds = simplex_coefficients(phi.k, phi.n)
    nums = {x: c * bounds[x] for x, c in phi.nums.items()}
    return PowerPolynomial.from_numerators(phi.n, phi.k, nums, phi.den)


def recover_test(beta: PowerPolynomial) -> TestFunction:
    """Invert test_to_power by coefficientwise division.

    With beta = (s / t) P, P primitive, phi(x) = s P_x / (t B_x), which
    in lowest terms is N / D = (s P_x / g) / (t B_x / g) with
    g = gcd(s P_x, t B_x); the numerators are then scaled to the lcm of
    those denominators, on beta's support in descending lex order.
    """
    bounds = simplex_coefficients(beta.k, beta.n)
    s, t = beta.poly.scale.numerator, beta.poly.scale.denominator
    reduced = {}
    for x, c in beta.poly.ints.items():
        num, bound = s * c, t * bounds[x]
        g = gcd(num, bound)
        reduced[x] = (num // g, bound // g)
    den = lcm(*(d for _, d in reduced.values()))
    nums = {x: num * (den // d) for x, (num, d) in sorted(reduced.items(), reverse=True)}
    return TestFunction._of(beta.n, beta.k, nums, den)


def normalize_to_power(beta_tilde: Polynomial, n: int, k: int):
    """Rescale a separating polynomial into a power polynomial.

    Homogenize to degree n, add b*(sum pi)^n with the smallest b >= 0
    making every coefficient nonnegative, then scale by the largest a > 0
    respecting the upper box bounds.  Returns (power, a, b); on a null set
    where beta_tilde <= 0 with supremum 0 the induced test has size a*b.

    On integers: the homogenized coefficients are (g / den) P_x, its
    `scale` times its primitive `ints`, b = (g / den) b_n / b_d with b_n / b_d = max(0, max -P_x / B_x),
    the shifted coefficients are (g / den) T_x / b_d with
    T_x = b_d P_x + b_n B_x >= 0, and with a_n / a_d = min B_x / T_x over
    T_x > 0 the power polynomial's numerators are a_n T_x over a_d.
    """
    if beta_tilde.nvars != k:
        raise ValueError(f"expected {k} variables, got {beta_tilde.nvars}")
    if beta_tilde.total_degree() > n:
        raise ValueError("degree exceeds the sample size")
    hom = beta_tilde.homogenize(n)
    bounds = simplex_coefficients(k, n)
    g, den = hom.scale.numerator, hom.scale.denominator
    coeff = dict.fromkeys(bounds, 0)
    coeff.update(hom.ints)
    top = coeff[next(iter(bounds))]  # B = 1 at the first count vector
    if not hom.ints or all(c == top * bound for c, bound in zip(coeff.values(), bounds.values())):
        raise ValueError("polynomial is constant on the simplex")
    b_n, b_d = 0, 1
    for c, bound in zip(coeff.values(), bounds.values()):
        if -c * b_d > b_n * bound:
            b_n, b_d = -c, bound
    shifted = [b_d * c + b_n * bound for c, bound in zip(coeff.values(), bounds.values())]
    # Every shifted coefficient is >= 0, and not all are 0, for then hom
    # would be -b times the level polynomial.
    a_n, a_d = 0, 0
    for t, bound in zip(shifted, bounds.values()):
        if t > 0 and (not a_d or bound * a_d < a_n * t):
            a_n, a_d = bound, t
    nums = {x: a_n * t for x, t in zip(bounds, shifted)}
    power = PowerPolynomial.from_numerators(n, k, nums, a_d)
    return power, Fraction(b_d * a_n * den, g * a_d), Fraction(g * b_n, den * b_d)


def exact_power(phi: TestFunction, point: Sequence) -> Fraction:
    """E_pi(phi) = sum phi(x) B_x pi^x, exactly.

    With the coordinates N_i / d over one denominator, the sum is
    sum nums[x] B_x N^x over den d^n, one Fraction at the end.  The
    coordinates are read by `parser.exact_rational`, so a float is refused.
    """
    pt = [exact_rational(v) for v in point]
    if len(pt) != phi.k:
        raise ValueError(f"point has {len(pt)} coordinates, expected {phi.k}")
    if any(v < 0 for v in pt) or sum(pt) != 1:
        raise ValueError("point is not on the probability simplex")
    d = lcm(*(v.denominator for v in pt))
    bases = [v.numerator * (d // v.denominator) for v in pt]
    total = 0
    bounds = simplex_coefficients(phi.k, phi.n)
    for x, c in phi.nums.items():
        term = c * bounds[x]
        for base, e in zip(bases, x):
            term *= base**e
        total += term
    return Fraction(total, phi.den * d**phi.n)


def _digit_places(base: int, digits: int):
    """Place values packing `digits` base-`base` digits into int64 words.

    Column w of the (digits, words) matrix gives word w's place value of
    each digit: the first d digits fill word 0, most significant first,
    the next d word 1, and so on, with d the most for which base^d <= 2^63.
    A row of digits times the matrix is its words, each at most
    base^d - 1, so no word overflows, and the word rows sort in the lex
    order of the digit rows.
    """
    import numpy as np

    d = 1
    while base ** (d + 1) <= 1 << 63:
        d += 1
    places = np.zeros((digits, -(-digits // d)), dtype=np.int64)
    for i in range(digits):
        places[i, i // d] = base ** (d - 1 - i % d)
    return places


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

    The draws are grouped on integers.  The last count is n minus the
    others, so the first k - 1 counts are read as digits base n + 1,
    most significant first, packed as many to an int64 word as stay below
    2^63; the word rows then sort in the lex order of the count vectors,
    for every n and k.  They are sorted from the least significant word
    up, stably after the first pass, as `np.lexsort` does.
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
    words = draws[:, :-1] @ _digit_places(phi.n + 1, phi.k - 1)
    # The first pass needs no stability, and quicksort is several times
    # faster than the stable sort `np.lexsort` would run on it.
    order = np.argsort(words[:, -1])
    for word in words.T[-2::-1]:
        order = order[np.argsort(word[order], kind="stable")]
    words = words[order]
    starts = np.flatnonzero(np.r_[True, (words[1:] != words[:-1]).any(axis=1)])
    counts = np.diff(np.r_[starts, reps])
    nums, den = phi.nums, phi.den  # num / den is float(Fraction(num, den)), bit for bit
    pr = np.array([nums.get(tuple(row), 0) / den for row in draws[order[starts]].tolist()])
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
    c is read by `parser.exact_rational`, so a float is refused.
    """
    c = exact_rational(c)
    if c < 0:
        raise ValueError("calibration constant must be nonnegative")
    values = {}
    for x in count_vectors(n, 3):
        m = max(x[0], x[1])
        lhs = m - Fraction(n, 4)
        if lhs > 0 and lhs * lhs > n * c * c:
            values[x] = Fraction(1)
    return TestFunction(n, 3, values)
