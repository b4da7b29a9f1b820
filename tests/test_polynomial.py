import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerpoly import (
    MonomialOrder,
    Polynomial,
    PolynomialSyntaxError,
    format_polynomial,
    parse_polynomial,
    reduce,
)
from powerpoly.polynomial import DEGREE_LIMIT, Packing, simplex_coefficients, table_names
from powerpoly.umpu import _grevlex_desc

from conftest import monomials_of_degree, multinomial, order_key

VARS = ["p1", "p2", "p3"]


def P(text, names=VARS):
    return parse_polynomial(text, names)


class TestParser:
    def test_basic_terms(self):
        p = P("p1*p2 - p3^2")
        assert p.terms == {(1, 1, 0): Fraction(1), (0, 0, 2): Fraction(-1)}

    def test_zero(self):
        assert P("0").terms == {}
        assert P("p1 - p1").is_zero()

    def test_det_2x2(self):
        det = parse_polynomial("p11*p22 - p12*p21", table_names(2, 2))
        assert len(det.terms) == 2
        assert det.total_degree() == 2

    def test_rational_coefficients(self):
        p = P("3/4*p1 - 1/2")
        assert p.coefficient((1, 0, 0)) == Fraction(3, 4)
        assert p.coefficient((0, 0, 0)) == Fraction(-1, 2)

    def test_implicit_multiplication_and_powers(self):
        assert P("2p1^2p2") == P("2*p1^2*p2")

    def test_whitespace_insensitive(self):
        assert P(" p1 + 2 * p2 ^ 3 ") == P("p1+2p2^3")

    def test_unknown_variable(self):
        with pytest.raises(PolynomialSyntaxError) as err:
            P("p1 + q7")
        assert "q7" in str(err.value)

    def test_syntax_error_position(self):
        with pytest.raises(PolynomialSyntaxError) as err:
            P("p1 + + ^")
        assert err.value.position >= 0

    @pytest.mark.parametrize(
        "text, char, position",
        [("p1 $", "$", 3), ("p1+  #p2", "#", 5), ("p1\t;", ";", 3)],
    )
    def test_bad_character_reported_past_blanks(self, text, char, position):
        with pytest.raises(PolynomialSyntaxError) as err:
            P(text)
        assert str(err.value) == f"unexpected character {char!r} (at position {position})"
        assert err.value.position == position

    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("3/", "expected denominator", 2),
            ("3/0*p1", "zero denominator", 2),
            ("2*3", "expected variable after '*'", 2),
            ("p1 + q7", "unknown variable 'q7'", 5),
            ("p1^p2", "expected integer exponent", 3),
            ("p1 + + p2", "expected a term", 5),
            ("(p1)", "expected a term", 0),
            ("", "expected a term", 0),
            ("2 3", "expected '+' or '-', got '3'", 2),
            # The whole text is scanned before parsing, so the bad character
            # wins over the grammar error at position 5.
            ("p1 + + $", "unexpected character '$'", 7),
        ],
    )
    def test_error_table(self, text, message, position):
        with pytest.raises(PolynomialSyntaxError) as err:
            P(text)
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position

    @pytest.mark.parametrize("order", list(MonomialOrder))
    def test_seeded_round_trip(self, order):
        rng = random.Random(20)
        for _ in range(300):
            nvars = rng.randint(1, 5)
            names = [f"x_{i}{rng.choice(['', 'a', '_b7'])}" for i in range(nvars)]
            terms = {
                tuple(rng.randint(0, 3) for _ in range(nvars)): Fraction(
                    rng.randint(-30, 30), rng.randint(1, 12)
                )
                for _ in range(rng.randint(0, 6))
            }
            if rng.random() < 0.1:
                terms = {(0,) * nvars: Fraction(rng.randint(-9, 9), rng.randint(1, 5))}
            p = Polynomial(nvars, terms)
            text = format_polynomial(p, names, order)
            assert parse_polynomial(text, names) == p
            assert format_polynomial(parse_polynomial(text, names), names, order) == text
        assert format_polynomial(Polynomial(2, {}), ["a", "b"], order) == "0"

    def test_print_parse_fixed_point(self):
        for text in ["p1*p2 - p3^2", "1/2*p1^3 - 2*p2 + 7", "0", "-p1 + p2 - 1/3"]:
            p = P(text)
            printed = format_polynomial(p)
            assert parse_polynomial(printed, VARS) == p
            assert format_polynomial(parse_polynomial(printed, VARS)) == printed

    def test_repeated_monomials_accumulate_and_cancel(self):
        p = P("p1 + 2*p2 - p1 + 0*p3 + 1/2*p2 - p1")
        assert p.terms == {(1, 0, 0): Fraction(-1), (0, 1, 0): Fraction(5, 2)}
        assert all(type(c) is Fraction for c in p.terms.values())
        assert P("p1*p2 - p2*p1 + 3 - 3").terms == {}

    @pytest.mark.parametrize(
        "terms, text",
        [
            (
                {
                    (2, 0, 0): 1,
                    (1, 1, 0): -1,
                    (0, 1, 1): Fraction(-3, 4),
                    (0, 0, 1): 1,
                    (0, 0, 0): Fraction(5, 2),
                },
                "p1^2 - p1*p2 - 3/4*p2*p3 + p3 + 5/2",
            ),
            ({(2, 0, 0): -1, (0, 1, 0): Fraction(7, 3), (0, 0, 0): -1}, "-p1^2 + 7/3*p2 - 1"),
            ({(1, 0, 0): Fraction(-1, 6), (0, 0, 0): 1}, "-1/6*p1 + 1"),
            ({(0, 0, 0): -12}, "-12"),
            ({(0, 0, 0): 1}, "1"),
            ({(0, 0, 0): Fraction(-7, 3)}, "-7/3"),
            ({(0, 3, 0): 1}, "p2^3"),
        ],
    )
    def test_format_golden(self, terms, text):
        # Constants, coefficients +-1, negative fractions and a coefficient
        # 1 on a monomial, byte for byte.
        assert format_polynomial(Polynomial(3, terms)) == text

    def test_large_round_trip(self):
        # (p1 + ... + p5)^12 has 1,820 terms.
        names = [f"p{i + 1}" for i in range(5)]
        p = Polynomial.simplex_power(5, 12)
        text = format_polynomial(p, names)
        back = parse_polynomial(text, names)
        assert back == p and len(back.terms) == 1820
        assert format_polynomial(back, names) == text


class TestEvaluate:
    def test_det_at_symmetric_point(self):
        det = parse_polynomial("p11*p22 - p12*p21", table_names(2, 2))
        assert det.evaluate([Fraction(1, 4)] * 4) == 0

    def test_motzkin_at_quarter_point(self):
        m = parse_polynomial(
            "p3^6 + p1^2*p2^4 + p2^2*p1^4 - 3*p1^2*p2^2*p3^2", VARS
        )
        assert m.evaluate([Fraction(1, 4)] * 3) == 0

    def test_linear(self):
        p = P("p1 + p2 - p3")
        assert p.evaluate([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]) == Fraction(1, 2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            P("p1").evaluate([Fraction(1)])

    def test_seeded_points_match_the_fraction_loop(self):
        rng = random.Random(20261019)
        polys = _random_polynomials(7) + [Polynomial(0, {(): Fraction(5, 3)}), Polynomial.zero(0)]
        kinds = ("int", "fraction", "mixed")
        for p in polys:
            for kind in kinds:
                for _ in range(10):
                    point = [
                        Fraction(rng.randint(-7, 7), rng.randint(1, 12))
                        if kind == "fraction" or (kind == "mixed" and rng.random() < 0.5)
                        else rng.randint(-5, 5)
                        for _ in range(p.nvars)
                    ]
                    got = p.evaluate(point)
                    assert type(got) is Fraction
                    assert got == _fraction_loop(p, point)
        # Non-rational inputs go through Fraction() as before.
        assert P("p1*p2 - p3").evaluate(["1/2", 0.25, True]) == Fraction(-7, 8)

    def test_points_with_unused_coordinates_match_the_fraction_loop(self):
        # The derivatives of a 2 x 2 minor, and random polynomials spread
        # over 6 variables, leave variables out; every coordinate has a
        # denominator of up to 33 digits, as the rank sampler's points do.
        rng = random.Random(20261020)
        minor = parse_polynomial("p11*p22 - p12*p21", table_names(2, 2))
        polys = [minor.derivative(i) for i in range(4)]
        for p in _random_polynomials(20261020)[:24]:
            at = sorted(rng.sample(range(6), p.nvars))
            spread = {tuple(m[at.index(i)] if i in at else 0 for i in range(6)): c
                      for m, c in p.terms.items()}
            polys.append(Polynomial(6, spread))
        for p in polys:
            for _ in range(5):
                point = [Fraction(rng.randrange(10**33), rng.randrange(1, 10**33))
                         for _ in range(p.nvars)]
                got = p.evaluate(point)
                assert type(got) is Fraction
                assert got == _fraction_loop(p, point)


class TestHomogenize:
    def test_single_variable(self):
        p = parse_polynomial("p1", ["p1", "p2"])
        assert p.homogenize(2) == parse_polynomial("p1^2 + p1*p2", ["p1", "p2"])

    def test_affine_at_simplex_points(self):
        p = parse_polynomial("p1 - 1/2", ["p1", "p2"])
        h = p.homogenize(2)
        assert h.evaluate([Fraction(1, 2), Fraction(1, 2)]) == 0
        for a in (Fraction(1, 3), Fraction(2, 7), Fraction(9, 11)):
            assert h.evaluate([a, 1 - a]) == p.evaluate([a, 1 - a])

    def test_square_hypothesis_factors(self):
        # -(p1 - t)(p2 - t) with t = 3/4: homogenization replaces t by t*(sum).
        t = Fraction(3, 4)
        raw = -1 * (P("p1") - t) * (P("p2") - t)
        h = raw.homogenize(2)
        s = Polynomial.simplex_power(3, 1)
        direct = -1 * (P("p1") - t * s) * (P("p2") - t * s)
        assert h == direct

    def test_homogeneous_output(self):
        p = P("p1^2 - p2 + 3")
        h = p.homogenize(4)
        assert h.is_homogeneous(4)

    def test_degree_too_small(self):
        with pytest.raises(ValueError):
            P("p1^3").homogenize(2)


class TestSubstituteLast:
    def test_sum_constraint_vanishes(self):
        p = parse_polynomial("1 - p1 - p2", ["p1", "p2"])
        assert p.substitute_last().is_zero()

    def test_det_substitution(self):
        # p11*(1 - p11 - p12 - p21) - p12*p21 after eliminating p22.
        det = parse_polynomial("p11*p22 - p12*p21", table_names(2, 2))
        got = det.substitute_last()
        names = ["p11", "p12", "p21"]
        expect = parse_polynomial("p11 - p11^2 - p11*p12 - p11*p21 - p12*p21", names)
        assert got == expect

    def test_square_of_last(self):
        got = P("p3^2").substitute_last()
        expect = parse_polynomial(
            "1 - 2*p1 - 2*p2 + p1^2 + 2*p1*p2 + p2^2", ["p1", "p2"]
        )
        assert got == expect
        assert got.total_degree() == 2

    def test_agreement_at_affine_points(self):
        p = P("p1^2*p3 - 2*p2 + p3^3")
        q = p.substitute_last()
        for a, b in [(Fraction(1, 3), Fraction(1, 5)), (Fraction(-1, 2), Fraction(2))]:
            assert q.evaluate([a, b]) == p.evaluate([a, b, 1 - a - b])


def _all_monomials_upto(nvars, degree):
    out = []
    for d in range(degree + 1):
        out.extend(monomials_of_degree(nvars, d))
    return out


def _linear_sum(nvars):
    """x_1 + ... + x_nvars, built from its variables."""
    return sum((Polynomial.variable(nvars, i) for i in range(nvars)), Polynomial.zero(nvars))


def _fraction_addmul(acc, coeff, mono, terms):
    """In place: acc += coeff * x^mono * terms, on exponent tuples and
    Fractions, dropping cancelled terms.  The oracle of the packed kernel:
    it shares no code with it."""
    for mb, cb in terms.items():
        m = tuple(x + y for x, y in zip(mono, mb))
        c = acc.get(m)
        if c is None:
            acc[m] = coeff * cb
        else:
            c = c + coeff * cb
            if c:
                acc[m] = c
            else:
                del acc[m]


def _fraction_product(a, b):
    """Term map of a * b by the Fraction loop."""
    out = {}
    for mono, coeff in a.items():
        _fraction_addmul(out, coeff, mono, b)
    return out


def _fraction_power(terms, nvars, e):
    """Term map of terms^e by repeated squaring with the Fraction loop."""
    result, base = {(0,) * nvars: Fraction(1)}, terms
    while e:
        if e & 1:
            result = _fraction_product(result, base)
        base = _fraction_product(base, base)
        e >>= 1
    return result


def _homogenize_by_squaring(p, n):
    """Each degree-d part times (sum x)^(n-d), the power by repeated squaring."""
    parts = {}
    for mono, coeff in p.terms.items():
        parts.setdefault(sum(mono), {})[mono] = coeff
    s = _linear_sum(p.nvars).terms
    out = {}
    for d, part in parts.items():
        spow = _fraction_power(s, p.nvars, n - d)
        for mono, coeff in part.items():
            _fraction_addmul(out, coeff, mono, spow)
    return Polynomial(p.nvars, out)


def _substitute_last_by_squaring(p):
    """x_k -> 1 - (x_1 + ... + x_{k-1}), each power by repeated squaring."""
    m = p.nvars - 1
    one_minus = (Polynomial.constant(m, 1) - _linear_sum(m)).terms
    out = {}
    for mono, coeff in p.terms.items():
        _fraction_addmul(out, coeff, mono[:-1], _fraction_power(one_minus, m, mono[-1]))
    return Polynomial(m, out)


def _fraction_loop(p, point):
    """p at point, term by term in Fraction arithmetic."""
    pt = [Fraction(x) for x in point]
    total = Fraction(0)
    for mono, coeff in p.terms.items():
        value = coeff
        for x, e in zip(pt, mono):
            if e:
                value *= x**e
        total += value
    return total


def _random_polynomials(seed):
    rng = random.Random(seed)
    out = []
    for nvars in (1, 2, 3, 4):
        for _ in range(6):
            monos = _all_monomials_upto(nvars, rng.randint(0, 4))
            terms = {
                rng.choice(monos): Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                for _ in range(rng.randint(1, 6))
            }
            out.append(Polynomial(nvars, terms))
    for nvars in (1, 3):
        out += [Polynomial.zero(nvars), Polynomial.constant(nvars, Fraction(-2, 3))]
    return out


class TestSimplexCoefficients:
    def test_matches_factorial_oracle(self):
        for k in range(7):
            for n in range(11):
                table = simplex_coefficients(k, n)
                assert list(table) == monomials_of_degree(k, n)  # descending lex
                assert all(c == multinomial(n, a) for a, c in table.items())

    def test_read_only_and_shared(self):
        table = simplex_coefficients(3, 4)
        assert simplex_coefficients(3, 4) is table
        with pytest.raises(TypeError):
            table[(4, 0, 0)] = 2
        with pytest.raises(TypeError):
            del table[(4, 0, 0)]
        assert table[(4, 0, 0)] == 1

    def test_negative_arguments_refused(self):
        for k, n in [(2, -1), (0, -1), (-1, 0)]:
            with pytest.raises(ValueError):
                simplex_coefficients(k, n)


class TestSimplexPower:
    def test_matches_repeated_squaring(self):
        for k in range(1, 6):
            s = Polynomial.simplex_power(k, 1)
            assert s == _linear_sum(k)
            for m in range(9):
                assert Polynomial.simplex_power(k, m) == s**m

    def test_coefficients_are_multinomials(self):
        p = Polynomial.simplex_power(3, 4)
        assert set(p.terms) == set(monomials_of_degree(3, 4))
        assert p.coefficient((2, 1, 1)) == multinomial(4, (2, 1, 1)) == 12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_homogenize_matches_squaring_oracle(self, seed):
        for p in _random_polynomials(seed):
            for n in range(max(p.total_degree(), 0), 7):
                assert p.homogenize(n).terms == _homogenize_by_squaring(p, n).terms

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_substitute_last_matches_squaring_oracle(self, seed):
        for p in _random_polynomials(seed):
            assert p.substitute_last().terms == _substitute_last_by_squaring(p).terms


def _sympy_terms(sympy, expr, xs):
    """Term map of a sympy expression in the symbols xs."""
    if not xs:
        value = sympy.Rational(expr)
        return {(): value} if value else {}
    return sympy.Poly(expr, *xs).as_dict()


def _as_sympy(sympy, p, xs):
    return sympy.Add(*[
        sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*[x**e for x, e in zip(xs, m)])
        for m, c in p.terms.items()
    ])


def _kernel_cases(rng, nvars):
    """Random polynomials with rationals of both signs, plus zero and a constant."""
    monos = _all_monomials_upto(nvars, 3)
    out = [Polynomial.zero(nvars), Polynomial.constant(nvars, Fraction(-3, 7))]
    for _ in range(3):
        terms = {
            rng.choice(monos): Fraction(rng.choice([-1, 1]) * rng.randint(1, 20), rng.randint(1, 9))
            for _ in range(rng.randint(1, 5))
        }
        out.append(Polynomial(nvars, terms))
    return out


class TestOneKernel:
    """Every product runs through the packed kernel; sympy and the Fraction
    loop are its oracles."""

    @pytest.mark.parametrize("nvars", range(6))
    def test_products_match_sympy(self, nvars):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(20261019 + nvars)
        xs = sympy.symbols(f"x0:{nvars}")
        cases = _kernel_cases(rng, nvars)

        def check(ours, expr):
            want = _sympy_terms(sympy, sympy.expand(expr), xs)
            got = {m: sympy.Rational(c.numerator, c.denominator) for m, c in ours.terms.items()}
            assert got == want
            _assert_normalised(ours)

        for a in cases:
            sa = _as_sympy(sympy, a, xs)
            for b in cases:
                check(a * b, sa * _as_sympy(sympy, b, xs))
            for e in range(4):
                check(a**e, sa**e)
            top = max(a.total_degree(), 0)
            for n in (top, top + 2):
                check(a.homogenize(n), sympy.Add(*[
                    _as_sympy(sympy, Polynomial(nvars, {m: c}), xs) * sympy.Add(*xs) ** (n - sum(m))
                    for m, c in a.terms.items()
                ]))
            if nvars:
                rest = 1 - sympy.Add(*xs[:-1])
                got = a.substitute_last()
                assert got.nvars == nvars - 1
                check(Polynomial(nvars, {m + (0,): c for m, c in got.terms.items()}),
                      sa.subs(xs[-1], rest))

    def test_degrees_past_the_16_bit_words(self):
        x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        big = 2**15
        assert (x**big * y).terms == {(big, 1): 1}
        assert ((x + y) ** 2 * x ** (big - 1)).terms == {
            (big + 1, 0): 1, (big, 1): 2, (big - 1, 2): 1
        }
        assert Polynomial.variable(1, 0).homogenize(big).terms == {(big,): 1}
        assert (x**big * y).substitute_last().terms == {(big,): 1, (big + 1,): -1}
        top = 2**63
        assert (x ** (top // 2) * x ** (top // 2 - 1)).terms == {(top - 1, 0): 1}
        with pytest.raises(ValueError, match=f"limit {top}$"):
            x ** (top // 2) * x ** (top // 2)

    def test_terms_come_out_in_the_fraction_loops_order(self):
        # The order of a term map is the order evaluate_float sums in, so
        # the packed kernel keeps the Fraction loop's order to the bit.
        for p in _random_polynomials(3):
            for q in _random_polynomials(4)[::3]:
                if p.nvars == q.nvars:
                    want = _fraction_product(p.terms, q.terms)
                    assert list((p * q).terms.items()) == list(want.items())
            for e in (2, 3):
                assert list((p**e).terms.items()) == list(_power_by_products(p, e).items())
            for n in range(max(p.total_degree(), 0), 5):
                out = {}
                for mono, coeff in p.terms.items():
                    spow = Polynomial.simplex_power(p.nvars, n - sum(mono)).terms
                    _fraction_addmul(out, coeff, mono, spow)
                assert list(p.homogenize(n).terms.items()) == list(out.items())
            out = {}
            for mono, coeff in p.terms.items():
                e = mono[-1]
                one_minus = {
                    a[1:]: -c if (e - a[0]) & 1 else c
                    for a, c in Polynomial.simplex_power(p.nvars, e).terms.items()
                }
                _fraction_addmul(out, coeff, mono[:-1], one_minus)
            assert list(p.substitute_last().terms.items()) == list(out.items())


def _power_by_products(p, e):
    """Term map of p^e with the products `**` makes, by the Fraction loop."""
    base = p.terms
    while not e & 1:
        base = _fraction_product(base, base)
        e >>= 1
    result = base
    while e := e >> 1:
        base = _fraction_product(base, base)
        if e & 1:
            result = _fraction_product(result, base)
    return result


class TestMonomialOrders:
    @pytest.mark.parametrize("order", [MonomialOrder.GRLEX, MonomialOrder.GREVLEX])
    def test_total_antisymmetric_transitive(self, order):
        monos = _all_monomials_upto(3, 4)
        key = order_key(order)
        keys = {m: key(m) for m in monos}
        for a, b in itertools.combinations(monos, 2):
            assert (keys[a] > keys[b]) != (keys[b] > keys[a])  # total + antisymmetric
        for a, b, c in itertools.combinations(monos, 3):
            trio = sorted([a, b, c], key=key)
            assert keys[trio[0]] <= keys[trio[1]] <= keys[trio[2]]

    @pytest.mark.parametrize("order", [MonomialOrder.GRLEX, MonomialOrder.GREVLEX])
    def test_multiplicative(self, order):
        monos = _all_monomials_upto(3, 3)
        shifts = monomials_of_degree(3, 2)
        key = order_key(order)
        for a, b in itertools.combinations(monos, 2):
            cmp = key(a) > key(b)
            for g in shifts:
                sa = tuple(x + y for x, y in zip(a, g))
                sb = tuple(x + y for x, y in zip(b, g))
                assert (key(sa) > key(sb)) == cmp

    @pytest.mark.parametrize("order", [MonomialOrder.GRLEX, MonomialOrder.GREVLEX])
    def test_degree_graded(self, order):
        monos = _all_monomials_upto(3, 4)
        key = order_key(order)
        for a, b in itertools.permutations(monos, 2):
            if sum(a) > sum(b):
                assert key(a) > key(b)

    def test_grevlex_tie_break(self):
        # p1*p2 > p2*p3 under grevlex and p1^2 > p1*p2.
        k = order_key(MonomialOrder.GREVLEX)
        assert k((1, 1, 0)) > k((0, 1, 1))
        assert k((2, 0, 0)) > k((1, 1, 0))


coeffs = st.fractions(
    min_value=Fraction(-8), max_value=Fraction(8), max_denominator=6
)


@st.composite
def polynomials(draw, nvars=3, max_degree=3, max_terms=5):
    monos = _all_monomials_upto(nvars, max_degree)
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        terms[draw(st.sampled_from(monos))] = draw(coeffs)
    return Polynomial(nvars, terms)


@st.composite
def rational_points(draw, nvars=3):
    return [
        draw(st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=5))
        for _ in range(nvars)
    ]


class TestPackedOrder:
    """Sorting on `Packing.key` gives the tuple oracle's order."""

    @staticmethod
    def _check(poly, order):
        want = sorted(poly.terms, key=order_key(order), reverse=True)
        assert [m for m, _ in poly.sorted_terms(order)] == want
        if want:
            assert poly.leading_monomial(order) == want[0]

    @pytest.mark.parametrize("order", list(MonomialOrder))
    @settings(max_examples=100, deadline=None)
    @given(polynomials(nvars=4, max_degree=5, max_terms=10))
    def test_random_polynomials(self, order, poly):
        self._check(poly, order)

    @pytest.mark.parametrize("order", list(MonomialOrder))
    def test_degree_beyond_the_16_bit_words(self, order):
        x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        poly = x**40000 + y
        self._check(poly, order)
        assert poly.leading_monomial(order) == (40000, 0)

    @pytest.mark.parametrize("k, n", [(1, 3), (2, 0), (2, 5), (3, 4), (4, 3), (5, 2)])
    def test_grevlex_desc(self, k, n):
        want = sorted(monomials_of_degree(k, n), key=order_key(MonomialOrder.GREVLEX))
        assert _grevlex_desc(k, n) == want[::-1]


class TestCarriedKeys:
    """A polynomial made by a shared packing carries that packing and its
    keys, and so does every result that keeps its monomials in order;
    `Packing.pack` reads them back only under the packing that made them."""

    @staticmethod
    def _fresh(packing, p):
        """p's integer map keyed afresh, in its order, as (key, coeff) pairs."""
        return [(packing.key(m), c) for m, c in p.ints.items()]

    @pytest.mark.parametrize("order", list(MonomialOrder))
    @settings(max_examples=100, deadline=None)
    @given(polynomials(max_terms=6), polynomials(max_terms=6), st.integers(-6, 6).filter(bool))
    def test_kept_keys_are_the_fresh_keys(self, order, a, b, c):
        packing = Packing.of(3, order)
        made = packing.unpack(*packing.pack(a * b))
        # An integer map with a common factor: `_of` divides it out.
        scaled = packing.unpack({k: 6 * v for k, v in packing.pack(made)[0].items()}, made.scale)
        results = [made, -made, made * c, made * Fraction(c, 7), Fraction(-3, 5) * made,
                   made.monic(order), scaled]
        for r in results:
            assert r._keys[0] is packing
            ints, scale = packing.pack(r)
            assert list(ints.items()) == self._fresh(packing, r)
            assert scale == r.scale
            assert r.sorted_monomials(order) == sorted(r.ints, key=order_key(order), reverse=True)

    @settings(max_examples=100, deadline=None)
    @given(polynomials(max_terms=6), polynomials(max_terms=6))
    def test_products_pack_to_the_fresh_keys(self, a, b):
        # Both operands of the outer product carry the keys of its packing.
        for p in (a * b, (a * b) * (b * a), (a * b).homogenize(7)):
            packing = Packing.of(3, degree=max(p.total_degree(), 0))
            assert p._keys[0] is packing
            assert list(packing.pack(p)[0].items()) == self._fresh(packing, p)

    @pytest.mark.parametrize("order", list(MonomialOrder))
    def test_one_packing_per_ring_and_width(self, order):
        narrow, wide = Packing.of(2, order), Packing.of(2, order, DEGREE_LIMIT)
        assert Packing.of(2, order, DEGREE_LIMIT - 1) is narrow
        assert Packing.of(2, order, 2**40) is wide
        assert (narrow.width, wide.width) == (16, 64)
        # The degree is checked on every call.
        with pytest.raises(ValueError, match=f"limit {2**63}$"):
            Packing.of(2, order, 2**63)

    @pytest.mark.parametrize("order", list(MonomialOrder))
    def test_keys_of_another_width_are_keyed_again(self, order):
        narrow, wide = Packing.of(2, order), Packing.of(2, order, DEGREE_LIMIT)
        low = wide.unpack({wide.key((3, 1)): 2, wide.key((0, 1)): -1}, Fraction(1, 3))
        assert list(narrow.pack(low)[0].items()) == self._fresh(narrow, low)
        assert narrow.pack(low)[0] != wide.pack(low)[0]
        # Made in 64-bit words, it meets the 16-bit degree check.
        high = wide.unpack({wide.key((DEGREE_LIMIT - 1, 1)): 1, wide.key((0, 0)): 1}, Fraction(1))
        assert list(wide.pack(high)[0]) == high._keys[1]
        with pytest.raises(ValueError, match="limit 32768$"):
            narrow.pack(high)

    def test_the_empty_ring_unpacks(self):
        packing = Packing.of(0)
        assert packing.unpack({packing.key(()): 3}, Fraction(1, 2)) == Polynomial.constant(0, Fraction(3, 2))
        assert packing.unpack({}, Fraction(0)) == Polynomial.zero(0)
        two = Polynomial.constant(0, 2)
        assert two * two == Polynomial.constant(0, 4)
        assert (two * two).sorted_monomials() == [()]


class TestRingAxioms:
    @settings(max_examples=200, deadline=None)
    @given(polynomials(), polynomials(), polynomials())
    def test_associativity_distributivity(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=200, deadline=None)
    @given(polynomials(), polynomials(), rational_points())
    def test_evaluation_is_multiplicative(self, a, b, pt):
        assert (a * b).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt)
        assert (a + b).evaluate(pt) == a.evaluate(pt) + b.evaluate(pt)

    @settings(max_examples=150, deadline=None)
    @given(polynomials(max_degree=2), st.integers(4, 6))
    def test_homogenize_agrees_on_simplex(self, p, n):
        h = p.homogenize(n)
        assert h.is_homogeneous()
        for point in [
            [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)],
            [Fraction(2, 7), Fraction(4, 7), Fraction(1, 7)],
        ]:
            assert h.evaluate(point) == p.evaluate(point)

    @settings(max_examples=150, deadline=None)
    @given(polynomials())
    def test_substitute_last_matches(self, p):
        q = p.substitute_last()
        for point in [[Fraction(1, 3), Fraction(1, 5)], [Fraction(-2, 3), Fraction(7, 4)]]:
            assert q.evaluate(point) == p.evaluate(point + [1 - sum(point)])

    @settings(max_examples=100, deadline=None)
    @given(polynomials(max_degree=2, max_terms=3), st.integers(0, 7))
    def test_power_is_repeated_product(self, p, e):
        expected = Polynomial.constant(3, 1)
        for _ in range(e):
            expected = expected * p
        assert p**e == expected

    def test_power_by_squaring_counts_products(self, monkeypatch):
        # No product by the constant 1: p^2 is one product, p^4 two squarings.
        products = []
        plain_mul = Polynomial.__mul__

        def counted(a, b):
            products.append(1)
            return plain_mul(a, b)

        monkeypatch.setattr(Polynomial, "__mul__", counted)
        p = P("p1 + 2*p2 - p3")
        for e, count in [(0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (6, 3)]:
            products.clear()
            p**e
            assert len(products) == count, e


class TestConstructorChecks:
    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Polynomial(2, {(1, -1): 1})

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            Polynomial(2, {(1,): 1})

    @pytest.mark.parametrize("bad", [1.7, 2.0, True, False, Fraction(3, 2)])
    def test_non_integer_exponent_rejected(self, bad):
        # Truncating would read 1.7 as 1 and True as 1.
        with pytest.raises(ValueError, match=rf"^exponent {re.escape(repr(bad))} in .* integer$"):
            Polynomial(2, {(bad, 0): 1})
        with pytest.raises(ValueError, match="is not an integer"):
            Polynomial.monomial(2, [0, bad])

    @pytest.mark.parametrize("bad", [0.1, 0.5, 2.0, 0.0, True, False])
    def test_float_and_bool_coefficients_rejected(self, bad):
        # Fraction(0.1) is a binary approximation, and True would read as 1.
        with pytest.raises(TypeError, match=rf"^coefficient {re.escape(repr(bad))} of"):
            Polynomial(1, {(1,): bad})
        with pytest.raises(TypeError, match="is not an int or a Fraction"):
            Polynomial.constant(2, bad)
        with pytest.raises(TypeError, match="is not an int or a Fraction"):
            Polynomial.monomial(2, [1, 0], bad)

    def test_rational_coefficients_of_other_types_become_fractions(self):
        import numpy as np

        p = Polynomial(2, {(1, 0): np.int64(4), (0, 1): Fraction(-2, 3)})
        assert p.terms == {(1, 0): 4, (0, 1): Fraction(-2, 3)}
        assert (p.ints, p.scale) == ({(1, 0): 6, (0, 1): -1}, Fraction(2, 3))

    def test_integral_exponents_of_other_types_become_ints(self):
        import numpy as np

        p = Polynomial(2, {(Fraction(2), np.int64(1)): 3})
        assert p.terms == {(2, 1): 3}
        assert all(type(e) is int for e in next(iter(p.terms)))


class TestUnsupportedOperands:
    @pytest.mark.parametrize(
        "op, message",
        [
            (lambda x: x * 1.5, r"for \*: 'Polynomial' and 'float'"),
            (lambda x: 1.5 * x, r"for \*: 'float' and 'Polynomial'"),
            (lambda x: x + 0.5, r"for \+: 'Polynomial' and 'float'"),
            (lambda x: 0.5 + x, r"for \+: 'float' and 'Polynomial'"),
            (lambda x: x - 0.5, r"for -: 'Polynomial' and 'float'"),
            (lambda x: 0.5 - x, r"for -: 'float' and 'Polynomial'"),
            (lambda x: x * "2", "can't multiply sequence"),
        ],
        ids=["mul", "rmul", "add", "radd", "sub", "rsub", "mul-str"],
    )
    def test_type_error(self, op, message):
        with pytest.raises(TypeError, match=message):
            op(Polynomial.variable(2, 0))


def _assert_normalised(p):
    """p stores what the checking constructor would store from its terms."""
    for mono, coeff in p.terms.items():
        assert type(coeff) is Fraction and coeff != 0
        assert type(mono) is tuple and len(mono) == p.nvars
        assert all(type(e) is int and e >= 0 for e in mono)
    rebuilt = Polynomial(p.nvars, dict(p.terms))
    assert p == rebuilt
    assert hash(p) == hash(rebuilt)


class TestNormalisedResults:
    """Results built without re-checking still hold clean term maps."""

    @settings(max_examples=150, deadline=None)
    @given(
        polynomials(),
        polynomials(),
        polynomials().filter(bool),
        coeffs,
        st.integers(0, 3),
    )
    def test_operations_store_no_zero_terms(self, a, b, g, c, e):
        q, r = reduce(a * b, [g])
        for result in [
            a + b,
            a - b,
            -a,
            a * b,
            a * c,
            c - a,
            a**e,
            a.homogenize(3),
            a.substitute_last(),
            *q,
            r,
        ]:
            _assert_normalised(result)


def _assert_canonical(p):
    """p is scale * ints with ints primitive, scale > 0 (0 for zero), and
    equals, with the same hash, the polynomial rebuilt from its terms."""
    assert all(type(c) is int and c for c in p.ints.values())
    assert type(p.scale) is Fraction
    if p.ints:
        assert p.scale > 0 and math.gcd(*p.ints.values()) == 1
    else:
        assert p.scale == 0
    assert p.terms == {m: p.scale * c for m, c in p.ints.items()}
    assert list(p.terms) == list(p.ints)
    rebuilt = Polynomial(p.nvars, p.terms)
    assert p == rebuilt
    assert hash(p) == hash(rebuilt)
    assert (rebuilt.ints, rebuilt.scale) == (p.ints, p.scale)


class TestCanonicalForm:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_result_is_canonical(self, seed):
        polys = _random_polynomials(seed)
        for p in polys:
            results = [p, -p, p * Fraction(-2, 3), p * -6, Fraction(-1, 4) * p, p.monic()]
            if p.nvars > 0:
                results += [p.derivative(0), p.substitute_last()]
            results.append(p.homogenize(max(p.total_degree(), 0) + 1))
            for q in polys:
                if q.nvars == p.nvars:
                    results += [p + q, p - q, p * q]
                    if q:
                        quotients, remainder = reduce(p, [q, -q * Fraction(3, 7)])
                        results += [*quotients, remainder]
            for r in results:
                _assert_canonical(r)

    def test_monic_with_a_negative_leading_coefficient(self):
        p = P("-2/3*p1^2 + 4*p2 - 6/5")
        m = p.monic()
        _assert_canonical(m)
        assert m == P("p1^2 - 6*p2 + 9/5")
        assert m.leading_coefficient() == 1
        assert (m.ints, m.scale) == ({(2, 0, 0): 5, (0, 1, 0): -30, (0, 0, 0): 9}, Fraction(1, 5))

    def test_negative_quotient_ratios_are_folded_into_the_signs(self):
        # The quotient by -4*p3 + 1 is negative; its scale stays positive.
        f = P("1/2*p2^3 + 2*p2^2 + p1 + 5*p3 - 1")
        basis = [P("3*p1 - 2*p3 + 1"), P("-4*p3 + 1")]
        q, r = reduce(f, basis, MonomialOrder.GRLEX)
        for x in (*q, r):
            _assert_canonical(x)
        assert q[1].ints == {(0, 0, 0): -1} and q[1].scale == Fraction(17, 12)

    def test_zero_is_one_value(self):
        x = Polynomial.variable(2, 0)
        for zero in (x - x, x * 0, Polynomial.zero(2), Polynomial(2, {(1, 0): 0}), P("0", ["p1", "p2"])):
            _assert_canonical(zero)
            assert zero == Polynomial.zero(2) and hash(zero) == hash(Polynomial.zero(2))
            assert (zero.ints, zero.scale) == ({}, 0)

    def test_terms_is_a_read_only_view(self):
        p = P("1/2*p1 - p2")
        with pytest.raises(TypeError):
            p.terms[(1, 0, 0)] = Fraction(1)
        assert p.terms is p.terms


class TestDerivative:
    def test_power_rule(self):
        p = P("p1^3*p2 - 2*p3")
        assert p.derivative(0) == P("3*p1^2*p2")
        assert p.derivative(2) == P("-2")
        assert p.derivative(1) == P("p1^3")


@pytest.mark.parametrize("bad", ["", "p 1", "1p", "p-1", "p1\n", "\u00e9", 7])
def test_names_outside_the_identifier_grammar_are_refused(bad):
    with pytest.raises(ValueError, match=f"^invalid variable name {re.escape(repr(bad))}$"):
        parse_polynomial("p1", ["p1", bad])
