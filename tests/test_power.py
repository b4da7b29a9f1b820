import random
import re
from fractions import Fraction

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

from conftest import multinomial

F = Fraction
VARS2 = ["p1", "p2"]
VARS3 = ["p1", "p2", "p3"]


class TestTestFunction:
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
        # Equal values of any type give one Fraction; a bad value is
        # refused at its first count vector, repeated or not.
        half = F(1, 2)
        phi = TestFunction(2, 2, {(2, 0): half, (1, 1): 0.5, (0, 2): "1/2"})
        assert list(phi.values.values()) == [half] * 3
        bad = F(3, 2)
        with pytest.raises(ValueError, match=re.escape("phi((1, 1)) = 3/2 outside [0, 1]")):
            TestFunction(2, 2, {(2, 0): half, (1, 1): bad, (0, 2): bad})
        with pytest.raises(TypeError, match="argument should be a string or a Rational"):
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
    rejected = 0
    for row, m in zip(uniq, counts):
        pr = float(phi.values[tuple(int(v) for v in row)])
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
