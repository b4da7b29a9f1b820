import random
import re
import tracemalloc
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerpoly import (
    Polynomial,
    TestFunction,
    box_check,
    exact_power,
    monte_carlo_power,
    normalize_to_power,
    parse_polynomial,
    recover_test,
    symmetrize,
)
from powerpoly import test_to_power as to_power
from powerpoly.power import (
    MonteCarloEstimate,
    PowerPolynomial,
    count_vectors,
    max_statistic_test,
)

from conftest import monomials_of_degree, multinomial

F = Fraction
VARS2 = ["p1", "p2"]
VARS3 = ["p1", "p2", "p3"]


class TestTestFunction:
    def test_values_are_a_read_only_view_of_the_numerators(self):
        phi = TestFunction(2, 2, {(2, 0): F(1, 3), (1, 1): F(1, 2)})
        assert (phi.den, phi.nums) == (6, {(2, 0): 2, (1, 1): 3})
        assert dict(phi.values) == {(2, 0): F(1, 3), (1, 1): F(1, 2), (0, 2): 0}
        with pytest.raises(TypeError):
            phi.values[(0, 2)] = F(1)
        assert phi((0, 2)) == 0
        with pytest.raises(KeyError):
            phi((3, 0))

    def test_stored_on_its_support_in_descending_lex_order(self):
        phi = TestFunction(3, 2, {(0, 3): F(1), (1, 2): 0, (3, 0): F(1, 2)})
        assert (phi.den, list(phi.nums.items())) == (2, [((3, 0), 1), ((0, 3), 2)])
        assert phi == TestFunction(3, 2, {(3, 0): F(1, 2), (0, 3): 1})
        assert list(TestFunction(3, 2, {(2, 1): 0}).nums) == []

    def test_building_a_test_builds_no_count_vector_table(self):
        # C(124, 4) = 9,381,251 count vectors, one of them in the support.
        tracemalloc.start()
        try:
            phi = TestFunction(120, 5, {(120, 0, 0, 0, 0): 1})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert (phi.den, phi.nums) == (1, {(120, 0, 0, 0, 0): 1})

    def test_distinct_values_are_not_hashed(self):
        # One conversion per distinct object, found by identity: a value
        # repeated over every count vector is never hashed.
        class Unhashed(Fraction):
            def __hash__(self):
                raise AssertionError("phi value hashed")

        third = Unhashed(1, 3)
        phi = TestFunction(3, 3, dict.fromkeys(count_vectors(3, 3), third))
        assert phi == TestFunction.constant(3, 3, F(1, 3))

    def test_domain_is_all_count_vectors(self):
        phi = TestFunction(3, 3, {})
        assert len(phi.values) == 10  # C(3+2, 2)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            TestFunction(2, 2, {(3, 0): F(1)})

    def test_rejects_out_of_range_phi(self):
        with pytest.raises(ValueError):
            TestFunction(2, 2, {(2, 0): F(3, 2)})

    def test_each_phi_value_is_read_once_and_checked(self):
        # Equal exact values of any type give one Fraction; a bad value is
        # refused at its first count vector, repeated or not.  Values go
        # through `exact_rational`, so a float and a list are refused.
        half = F(1, 2)
        phi = TestFunction(2, 2, {(2, 0): half, (1, 1): F(2, 4), (0, 2): "1/2"})
        assert list(phi.values.values()) == [half] * 3
        bad = F(3, 2)
        with pytest.raises(ValueError, match=re.escape("phi((1, 1)) = 3/2 outside [0, 1]")):
            TestFunction(2, 2, {(2, 0): half, (1, 1): bad, (0, 2): bad})
        with pytest.raises(ValueError, match=re.escape("got 0.5")):
            TestFunction(2, 2, {(2, 0): half, (1, 1): 0.5, (0, 2): "1/2"})
        with pytest.raises(ValueError, match="not an exact rational"):
            TestFunction(2, 2, {(2, 0): half, (1, 1): [half]})

    def test_enumeration_order_descending_lex(self):
        assert count_vectors(2, 2) == [(2, 0), (1, 1), (0, 2)]
        assert count_vectors(2, 3)[0] == (2, 0, 0)
        assert count_vectors(2, 3)[-1] == (0, 0, 2)

    def test_negative_sample_size_refused(self):
        for n, k in [(-1, 1), (-1, 3), (-4, 2)]:
            with pytest.raises(ValueError):
                count_vectors(n, k)
        with pytest.raises(ValueError):
            Polynomial.simplex_power(2, -1)

    @pytest.mark.parametrize(
        "x", [(1.7, 1.3), (True, 1.0), (True, 1), (1.0, 1.0), (F(3, 2), F(1, 2))]
    )
    def test_rejects_non_integer_counts(self, x):
        with pytest.raises(ValueError, match=re.escape(repr(x[0]))):
            TestFunction(2, 2, {x: F(1, 2)})

    def test_integral_counts_become_ints(self):
        for x in [(np.int64(1), np.int64(1)), (F(1), 1), (F(2, 2), np.uint8(1))]:
            phi = TestFunction(2, 2, {x: F(1, 2)})
            assert phi((1, 1)) == F(1, 2)
            assert all(type(v) is int for key in phi.values for v in key)


class TestCorrespondence:
    def test_point_mass_test(self):
        phi = TestFunction(4, 3, {(4, 0, 0): F(1)})
        beta = to_power(phi)
        assert beta.poly == parse_polynomial("p1^4", VARS3)

    def test_constant_test(self):
        phi = TestFunction.constant(3, 2, F(1, 7))
        beta = to_power(phi)
        s = Polynomial.simplex_power(2, 1)
        assert beta.poly == F(1, 7) * s**3

    def test_recover_simple(self):
        beta = PowerPolynomial(2, 2, parse_polynomial("p1^2 + p2^2", VARS2))
        phi = recover_test(beta)
        assert phi((2, 0)) == 1
        assert phi((1, 1)) == 0
        assert phi((0, 2)) == 1

    def test_umpu_example_round_trip(self):
        f = parse_polynomial("p1+p2-p3", VARS3)
        s = Polynomial.simplex_power(3, 1)
        beta_poly = F(3, 20) * f * f * s + F(1, 20) * s**3
        beta = PowerPolynomial(3, 3, beta_poly)
        phi = recover_test(beta)
        assert to_power(phi).poly == beta_poly
        # Spot value by expanding: coefficient of p1^2 p2 is 3/20*(2*... ) etc.
        assert phi((3, 0, 0)) == beta_poly.coefficient((3, 0, 0))

    def test_box_check_pass_binomial_square(self):
        p = parse_polynomial("p1^2 + 2*p1*p2 + p2^2", VARS2)
        assert box_check(p, 2, 2)

    def test_box_check_violation_reported(self):
        res = box_check(parse_polynomial("2*p1^2", VARS2), 2, 2)
        assert not res
        assert res.index == (2, 0)
        assert res.bound == 1
        # Terms stored out of order: the first violation in descending lex wins.
        p = parse_polynomial("2*p2^2 - p1*p2", VARS2)
        assert list(p.terms) == [(0, 2), (1, 1)]
        res = box_check(p, 2, 2)
        assert (res.index, res.coefficient, res.bound) == ((1, 1), -1, 2)

    def test_box_check_requires_homogeneous(self):
        res = box_check(parse_polynomial("p1 + 1", VARS2), 2, 2)
        assert not res and "homogeneous" in res.reason

    def test_umpu_vertex_power_passes_box(self):
        f = parse_polynomial("p1+p2-p3", VARS3)
        s = Polynomial.simplex_power(3, 1)
        p = F(3, 20) * f * f * s + F(1, 20) * s**3
        assert box_check(p, 3, 3)


class TestNormalizeToPower:
    def test_binomial_square(self):
        beta, a, b = normalize_to_power(
            parse_polynomial("p1^2 - 2*p1*p2 + p2^2", VARS2), 2, 2
        )
        assert (a, b) == (F(1, 2), F(1))
        assert beta.poly == parse_polynomial("p1^2 + p2^2", VARS2)

    def test_already_power_with_zero_min(self):
        p = parse_polynomial("p1^2", VARS2)
        beta, a, b = normalize_to_power(p, 2, 2)
        assert b == 0 and a == 1
        assert beta.poly == p

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            normalize_to_power(Polynomial.constant(2, F(1, 3)), 2, 2)
        s = Polynomial.simplex_power(2, 1)
        with pytest.raises(ValueError):
            normalize_to_power(F(1, 2) * s * s, 2, 2)

    def test_sign_structure_preserved(self):
        bt = parse_polynomial("p1*p2 - p3^2", VARS3)
        n = 4
        beta, a, b = normalize_to_power(bt, n, 3)
        size = a * b
        for pt in [
            (F(1, 2), F(1, 4), F(1, 4)),
            (F(1, 6), F(1, 6), F(2, 3)),
            (F(2, 3), F(1, 6), F(1, 6)),
        ]:
            lhs = beta.poly.evaluate(pt) - size
            rhs = bt.evaluate(pt)
            assert (lhs > 0) == (rhs > 0) and (lhs < 0) == (rhs < 0)


def _fraction_loop_power(phi, pt):
    """sum phi(x) multinomial(n, x) pi^x term by term in Fractions."""
    total = F(0)
    for x, value in phi.values.items():
        term = value * multinomial(phi.n, x)
        for v, e in zip(pt, x):
            term *= v**e
        total += term
    return total


class TestExactPower:
    def test_constant(self):
        phi = TestFunction.constant(3, 3, F(2, 7))
        assert exact_power(phi, [F(1, 3)] * 3) == F(2, 7)

    def test_corner_rejection(self):
        n = 5
        phi = TestFunction(n, 2, {(n, 0): F(1)})
        assert exact_power(phi, [F(1, 2), F(1, 2)]) == F(1, 2**n)

    def test_equals_polynomial_evaluation(self):
        phi = TestFunction(3, 3, {(3, 0, 0): F(1, 2), (1, 1, 1): F(1, 3)})
        beta = to_power(phi)
        for pt in [(F(1, 2), F(1, 4), F(1, 4)), (F(1, 5), F(2, 5), F(2, 5))]:
            assert exact_power(phi, pt) == beta.poly.evaluate(pt)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_fraction_loop(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            n, k = rng.randrange(1, 7), rng.randrange(2, 5)
            phi = TestFunction(
                n, k, {x: F(rng.randrange(9), 8) for x in count_vectors(n, k)}
            )
            weights = [rng.randrange(0, 6) for _ in range(k - 1)] + [1]
            pt = [F(w, sum(weights)) for w in weights]
            assert exact_power(phi, pt) == _fraction_loop_power(phi, pt)

    def test_off_simplex_rejected(self):
        phi = TestFunction.constant(2, 2, F(1, 2))
        with pytest.raises(ValueError):
            exact_power(phi, [F(1, 2), F(1, 4)])

    def test_max_statistic_exact_region(self):
        # n=16, c=1/2: reject iff max > 4 + 2 = 6.
        phi = max_statistic_test(16, F(1, 2))
        assert phi((7, 0, 9)) == 1
        assert phi((6, 6, 4)) == 0


def _monte_carlo_oracle(phi, point, reps, seed):
    """The per-distinct-row loop over np.unique that monte_carlo_power replaced."""
    p = np.asarray([float(v) for v in point], dtype=float)
    rng = np.random.Generator(np.random.PCG64(seed))
    draws = rng.multinomial(phi.n, p / p.sum(), size=reps)
    uniq, counts = np.unique(draws, axis=0, return_counts=True)
    values = phi.values
    rejected = 0
    for row, m in zip(uniq, counts):
        pr = float(values[tuple(int(v) for v in row)])
        if pr <= 0.0:
            continue
        if pr >= 1.0:
            rejected += int(m)
        else:
            rejected += int(rng.binomial(int(m), pr))
    est = rejected / reps
    return MonteCarloEstimate(est, (est * (1.0 - est) / reps) ** 0.5, reps, seed)


class TestMonteCarlo:
    def test_constant_zero_and_one(self):
        z = monte_carlo_power(TestFunction.constant(2, 2, 0), [0.5, 0.5], 1000, 1)
        assert z.estimate == 0 and z.std_error == 0
        o = monte_carlo_power(TestFunction.constant(2, 2, 1), [0.5, 0.5], 1000, 1)
        assert o.estimate == 1

    def test_deterministic_given_seed(self):
        phi = TestFunction(3, 2, {(3, 0): F(1), (2, 1): F(1, 3)})
        a = monte_carlo_power(phi, [0.6, 0.4], 5000, 42)
        b = monte_carlo_power(phi, [0.6, 0.4], 5000, 42)
        assert a == b

    def test_concentration(self):
        phi = TestFunction(4, 3, {(4, 0, 0): F(1), (2, 1, 1): F(1, 2)})
        point = [F(1, 2), F(1, 4), F(1, 4)]
        exact = exact_power(phi, point)
        hits = 0
        runs = 20
        for seed in range(runs):
            est = monte_carlo_power(phi, [float(v) for v in point], 20000, seed)
            if abs(est.estimate - float(exact)) <= 4 * est.std_error:
                hits += 1
        assert hits >= runs - 1  # 4 sigma: essentially all

    def test_same_stream_as_row_loop(self):
        rng = random.Random(7)
        tests = [max_statistic_test(12, F(17, 20))]
        for k in range(2, 7):
            n = rng.randint(2, 9 if k < 5 else 5)
            values = {x: F(rng.randint(0, 8), 8) for x in count_vectors(n, k)}
            tests += [TestFunction(n, k, values), TestFunction.constant(n, k, 0),
                      TestFunction.constant(n, k, 1)]
        for phi in tests:
            weights = [rng.randint(1, 9) for _ in range(phi.k)]
            point = [w / sum(weights) for w in weights]
            for reps, seed in ((1, 0), (20000, rng.randint(0, 10**6))):
                got = monte_carlo_power(phi, point, reps, seed)
                assert got == _monte_carlo_oracle(phi, point, reps, seed)

    @pytest.mark.parametrize("reps", [1, 3000])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_stream_past_one_word(self, seed, reps):
        # n = 4, k = 33: the first 32 counts are 32 digits base 5, and
        # 5^32 > 2^63, so they take two int64 words (27 digits, then 5).
        # The point favours categories on both sides of the word boundary,
        # and the sparse support is every count vector over them, with
        # non-dyadic levels.
        n, k = 4, 33
        assert 5 ** (k - 1) > 2**63
        heavy = (0, 1, 26, 27, 31, 32)
        rng = random.Random(seed)
        values = {
            x: F(rng.randint(0, 11), 11)
            for x in count_vectors(n, k)
            if all(x[i] == 0 for i in range(k) if i not in heavy)
        }
        phi = TestFunction(n, k, values)
        point = [0.15 / (k - len(heavy))] * k
        for i in heavy:
            point[i] = 0.85 / len(heavy)
        got = monte_carlo_power(phi, point, reps, seed)
        assert got == _monte_carlo_oracle(phi, point, reps, seed)
        if reps > 1:
            assert 0 < got.estimate < 1

    @pytest.mark.parametrize(
        "point",
        [[2, 1, 1], [0, 0, 0], [1.5, -0.5, 0], [float("nan"), 0.5, 0.5],
         [float("inf"), 0, 0], [0.5, 0.25, 0.25 + 1e-8]],
    )
    def test_rejects_point_off_simplex(self, point):
        phi = TestFunction(2, 3, {(2, 0, 0): F(1)})
        with pytest.raises(ValueError, match="not on the probability simplex"):
            monte_carlo_power(phi, point, 100, 0)

    def test_accepts_rounded_simplex_point(self):
        phi = TestFunction(2, 3, {(2, 0, 0): F(1)})
        point = [0.1, 0.2, 0.7 + 1e-12]
        assert monte_carlo_power(phi, point, 100, 0) == _monte_carlo_oracle(phi, point, 100, 0)


class TestSymmetrize:
    def test_single_swap(self):
        p = parse_polynomial("p1", VARS3)
        got = symmetrize(p, [[0, 1, 2], [1, 0, 2]])
        assert got == parse_polynomial("1/2*p1 + 1/2*p2", VARS3)

    def test_invariant_fixed_point(self):
        p = parse_polynomial("p1*p2 + p1*p3 + p2*p3", VARS3)
        perms = [[0, 1, 2], [1, 0, 2], [0, 2, 1], [2, 1, 0], [1, 2, 0], [2, 0, 1]]
        assert symmetrize(p, perms) == p

    def test_transpose_group_invariance(self):
        # 2x2 table: transpose swaps indices 1 and 2 (p12 <-> p21).
        names = ["p11", "p12", "p21", "p22"]
        transpose = [0, 2, 1, 3]
        identity = [0, 1, 2, 3]
        h = parse_polynomial("p11*p12 - p22^2", names)
        base = parse_polynomial("p12 - p21", names) ** 2 * h
        sym = symmetrize(base, [identity, transpose])
        assert sym.permute_variables(transpose) == sym

    def test_idempotent_on_groups(self):
        perms = [[0, 1, 2], [1, 0, 2]]
        p = parse_polynomial("p1^2*p3 - p2", VARS3)
        once = symmetrize(p, perms)
        assert symmetrize(once, perms) == once

    def test_invalid_permutation(self):
        with pytest.raises(ValueError):
            symmetrize(parse_polynomial("p1", VARS3), [[0, 0, 2]])


@st.composite
def random_tests(draw, max_n=4, max_k=3):
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(2, max_k))
    values = {}
    for x in count_vectors(n, k):
        values[x] = draw(
            st.fractions(min_value=0, max_value=1, max_denominator=8)
        )
    return TestFunction(n, k, values)


class TestRoundTripProperties:
    @settings(max_examples=300, deadline=None)
    @given(random_tests())
    def test_recover_inverts_test_to_power(self, phi):
        assert recover_test(to_power(phi)) == phi

    @settings(max_examples=300, deadline=None)
    @given(random_tests())
    def test_power_inverts_recover(self, phi):
        beta = to_power(phi)
        assert to_power(recover_test(beta)).poly == beta.poly

    @settings(max_examples=200, deadline=None)
    @given(random_tests(max_n=3))
    def test_exact_power_in_unit_interval(self, phi):
        pt = [F(1, phi.k)] * phi.k
        value = exact_power(phi, pt)
        assert 0 <= value <= 1
        assert value == to_power(phi).poly.evaluate(pt)


# -- Fraction oracles: the bodies the integer constructions replaced ------------


def _bounds(k, n):
    return {x: multinomial(n, x) for x in monomials_of_degree(k, n)}


def _box_check_oracle(p, n, k):
    """(ok, reason, index, coefficient, bound) by Fraction comparisons."""
    if p.nvars != k:
        return (False, f"polynomial has {p.nvars} variables, expected {k}", None, None, None)
    if p.is_zero():
        return (True, "", None, None, None)
    if not p.is_homogeneous(n):
        return (False, f"not homogeneous of degree {n}", None, None, None)
    for x, bound in _bounds(k, n).items():
        c = p.terms.get(x)
        if c is not None and not 0 <= c <= bound:
            return (False, f"coefficient of index {x} is {c}, outside [0, {bound}]", x, c, bound)
    return (True, "", None, None, None)


def _fields(check):
    return (check.ok, check.reason, check.index, check.coefficient, check.bound)


def _test_to_power_oracle(n, k, values):
    bounds = _bounds(k, n)
    return Polynomial(k, {x: v * bounds[x] for x, v in values.items() if v})


def _recover_test_oracle(beta):
    bounds = _bounds(beta.k, beta.n)
    out = dict.fromkeys(bounds, F(0))
    out.update({x: c / bounds[x] for x, c in beta.poly.terms.items()})
    return out


def _normalize_oracle(beta_tilde, n, k):
    hom = beta_tilde.homogenize(n)
    level = Polynomial.simplex_power(k, n)
    bounds = _bounds(k, n)
    coeff = hom.coefficient
    x0 = next(iter(bounds))
    if not hom.terms or all(
        coeff(x) * bounds[x0] == coeff(x0) * bound for x, bound in bounds.items()
    ):
        raise ValueError("polynomial is constant on the simplex")
    b = max(F(0), max(-coeff(x) / bound for x, bound in bounds.items()))
    a = min(bound / s for x, bound in bounds.items() if (s := coeff(x) + b * bound) > 0)
    return a * (hom + b * level), a, b


PHI_DENOMINATORS = (1, 3, 6, 16)


@st.composite
def mixed_fractions(draw, low=0, high=1):
    """Fractions in [low, high] over 1, 3, 6 or 16, with the box ends drawn often."""
    kind = draw(st.sampled_from(("low", "high", "inner", "inner")))
    if kind != "inner":
        return F(low if kind == "low" else high)
    d = draw(st.sampled_from(PHI_DENOMINATORS))
    return F(draw(st.integers(int(low * d), int(high * d))), d)


@st.composite
def mixed_values(draw, max_n=5, max_k=4):
    """(n, k, phi values) with phi over mixed denominators, 0 and 1 included."""
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(2, max_k))
    return n, k, {x: draw(mixed_fractions()) for x in count_vectors(n, k)}


@st.composite
def simplex_points(draw, k):
    weights = draw(st.lists(st.integers(0, 7), min_size=k, max_size=k).filter(any))
    return [F(w, sum(weights)) for w in weights]


class TestIntegerConstructionsMatchFractionOracles:
    @settings(max_examples=200, deadline=None)
    @given(mixed_values())
    def test_test_function_and_round_trip(self, case):
        n, k, values = case
        phi = TestFunction(n, k, values)
        assert dict(phi.values) == values
        assert gcd(phi.den, *phi.nums.values()) == 1
        beta = to_power(phi)
        assert beta.poly == _test_to_power_oracle(n, k, values)
        assert list(beta.poly.terms) == [x for x in count_vectors(n, k) if values[x]]
        back = recover_test(beta)
        assert dict(back.values) == _recover_test_oracle(beta) == values
        assert back == phi and (back.den, back.nums) == (phi.den, phi.nums)

    @settings(max_examples=150, deadline=None)
    @given(mixed_values(max_n=4, max_k=3), st.data())
    def test_exact_power(self, case, data):
        n, k, values = case
        pt = data.draw(simplex_points(k))
        want = _test_to_power_oracle(n, k, values).evaluate(pt)
        assert exact_power(TestFunction(n, k, values), pt) == want

    @settings(max_examples=150, deadline=None)
    @given(mixed_values(max_n=4, max_k=3), st.data())
    def test_monte_carlo_reads_the_fraction_floats(self, case, data):
        # num / den per distinct vector is float(phi(x)), bit for bit.
        n, k, values = case
        phi = TestFunction(n, k, values)
        point = [float(v) for v in data.draw(simplex_points(k))]
        seed = data.draw(st.integers(0, 2**32))
        assert all(c / phi.den == float(values[x]) for x, c in phi.nums.items())
        assert monte_carlo_power(phi, point, 500, seed) == _monte_carlo_oracle(
            phi, point, 500, seed
        )

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4), st.integers(2, 3), st.data())
    def test_box_check_inside_outside_and_on_the_boundary(self, n, k, data):
        bounds = _bounds(k, n)
        share = mixed_fractions(F(-1, 2), F(3, 2)) if data.draw(st.booleans()) else mixed_fractions()
        coeffs = {x: data.draw(share) * bound for x, bound in bounds.items()}
        p = Polynomial(k, coeffs)
        want = _box_check_oracle(p, n, k)
        assert _fields(box_check(p, n, k)) == want
        nums = {x: c * 48 for x, c in coeffs.items()}  # 48 clears 3, 6 and 16
        assert all(c.denominator == 1 for c in nums.values())
        nums = {x: int(c) for x, c in nums.items()}
        if want[0]:
            assert PowerPolynomial(n, k, p).poly == p
            assert PowerPolynomial.from_numerators(n, k, nums, 48).poly == p
        else:
            message = re.escape(f"not a power polynomial: {want[1]}")
            with pytest.raises(ValueError, match=f"^{message}$"):
                PowerPolynomial(n, k, p)
            with pytest.raises(ValueError, match=f"^{message}$"):
                PowerPolynomial.from_numerators(n, k, nums, 48)

    def test_box_check_messages_unchanged(self):
        cases = [
            (parse_polynomial("p1^2 + 2*p1*p2 - 1/3*p2^2", VARS2), 2, 2),
            (parse_polynomial("p1^2 + 5/2*p1*p2", VARS2), 2, 2),
            (parse_polynomial("p1^2 + p2", VARS2), 2, 2),
            (parse_polynomial("p1^2", VARS2), 2, 3),
        ]
        for p, n, k in cases:
            want = _box_check_oracle(p, n, k)
            assert not want[0]
            assert _fields(box_check(p, n, k)) == want
            with pytest.raises(ValueError, match=re.escape(f"not a power polynomial: {want[1]}")):
                PowerPolynomial(n, k, p)
        assert box_check(parse_polynomial("p1^2 + 5/2*p1*p2", VARS2), 2, 2).reason == (
            "coefficient of index (1, 1) is 5/2, outside [0, 2]"
        )

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4), st.integers(2, 3), st.data())
    def test_normalize_to_power(self, n, k, data):
        monos = [m for d in range(n + 1) for m in monomials_of_degree(k, d)]
        share = mixed_fractions(F(-2), F(2))
        beta_tilde = Polynomial(k, {m: data.draw(share) for m in monos})
        try:
            want = _normalize_oracle(beta_tilde, n, k)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                normalize_to_power(beta_tilde, n, k)
            return
        beta, a, b = normalize_to_power(beta_tilde, n, k)
        assert (beta.poly, a, b) == want
        assert type(a) is F and type(b) is F
