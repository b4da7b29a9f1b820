import itertools
import random
from fractions import Fraction
from operator import add

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from powerpoly import (
    MonomialOrder,
    Polynomial,
    StepCounter,
    StepLimitExceeded,
    build_hypothesis,
    buchberger_reduced,
    ideal_membership,
    parse_polynomial,
    radical_membership,
    reduce,
    sos_bounds,
)
from powerpoly import groebner
from powerpoly.groebner import s_polynomial
from powerpoly.linalg import echelon, primitive_ints

from conftest import order_key

VARS = ["p1", "p2", "p3"]


def P(text, names=VARS):
    return parse_polynomial(text, names)


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


class TestDivision:
    def test_two_step_reduction(self):
        q, r = reduce(P("p1^2*p2"), [P("p1 - p3")], MonomialOrder.GRLEX)
        assert r == P("p2*p3^2")
        assert q[0] * P("p1 - p3") + r == P("p1^2*p2")

    def test_self_division(self):
        g = P("p1*p2^2 - 3*p3 + 1/2")
        _, r = reduce(g, [g])
        assert r.is_zero()

    def test_no_leading_term_divides(self):
        _, r = reduce(P("p1 + 1"), [P("p2")])
        assert r == P("p1 + 1")

    def test_division_identity_and_degree_bound(self):
        f = P("p1^3*p2 - p2*p3 + p1")
        basis = [P("p1*p2 - 1"), P("p2^2 - p3")]
        q, r = reduce(f, basis)
        assert sum((qi * gi for qi, gi in zip(q, basis)), r) == f
        for qi, gi in zip(q, basis):
            if not qi.is_zero():
                assert (qi * gi).total_degree() <= f.total_degree()
        for mono in r.terms:
            for g in basis:
                lead = g.leading_monomial()
                assert any(m < l for m, l in zip(mono, lead))

    def test_zero_divisor_rejected(self):
        with pytest.raises(ValueError):
            reduce(P("p1"), [Polynomial.zero(3)])

    def test_rescale_after_remainder_terms(self):
        # Under grlex, p2^3 and p2^2 pop first and go to the remainder.
        # Then p1 meets the divisor led by 3*p1, so the integer core scales
        # the working map, the collected remainder and its denominator by 3.
        # Later p3, with working coefficient 34, meets the divisor led by
        # -4*p3 (lc 4 once the sign is moved into its scale), and the core
        # scales by 4 / gcd(34, 4) = 2.
        f = P("1/2*p2^3 + 2*p2^2 + p1 + 5*p3 - 1")
        basis = [P("3*p1 - 2*p3 + 1"), P("-4*p3 + 1")]
        q, r = reduce(f, basis, MonomialOrder.GRLEX)
        assert sum((qi * g for qi, g in zip(q, basis)), r) == f
        assert q == [P("1/3"), P("-17/12")]
        assert r == P("1/2*p2^3 + 2*p2^2 + 1/12")


class TestSPolynomialInput:
    # Refused by name, as `reduce` refuses a mismatched or zero divisor.
    def test_variable_count_mismatch(self):
        f, g = P("p1^2 - p2", ["p1", "p2"]), P("p1*p3 - 1")
        for a, b in ((f, g), (g, f)):
            with pytest.raises(ValueError, match="variable count mismatch in S-polynomial"):
                s_polynomial(a, b, MonomialOrder.GREVLEX)

    def test_zero_polynomial(self):
        zero, g = Polynomial.zero(3), P("p1*p3 - 1")
        for a, b in ((zero, g), (g, zero), (zero, zero)):
            with pytest.raises(ValueError, match="zero polynomial has no S-polynomial"):
                s_polynomial(a, b, MonomialOrder.GRLEX)


class TestBuchberger:
    def test_hand_worked_example(self):
        gb = buchberger_reduced(
            [P("p1*p2 - p3^2"), P("p1 - p3")], MonomialOrder.GRLEX
        )
        assert [g for g in gb.elements] == [P("p1 - p3"), P("p2*p3 - p3^2")]

    def test_principal_monomial(self):
        gb = buchberger_reduced([P("p1")])
        assert list(gb.elements) == [P("p1")]

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            buchberger_reduced([Polynomial.zero(3)])

    def test_example5_fixed_point(self, example5_polys):
        gb = buchberger_reduced(example5_polys, MonomialOrder.GREVLEX)
        expected = sorted(
            (g.monic() for g in example5_polys),
            key=lambda g: order_key(MonomialOrder.GREVLEX)(g.leading_monomial()),
        )
        assert list(gb.elements) == expected

    def test_permutation_determinism(self, example5_polys):
        base = buchberger_reduced(example5_polys)
        for perm in itertools.permutations(example5_polys):
            assert buchberger_reduced(list(perm)).elements == base.elements

    def test_reduced_basis_invariants(self, example5_polys):
        for gens in (
            [P("p1*p2 - p3^2"), P("p1 - p3")],
            example5_polys,
            [P("p1^2 - p2"), P("p2^2 - p3"), P("p1*p3 - p2^2")],
        ):
            order = MonomialOrder.GREVLEX
            gb = buchberger_reduced(gens, order)
            leads = [g.leading_monomial(order) for g in gb.elements]
            for g in gb.elements:
                assert g.leading_coefficient(order) == 1
            for i, g in enumerate(gb.elements):
                for mono in g.terms:
                    for j, lead in enumerate(leads):
                        if i != j:
                            assert any(m < l for m, l in zip(mono, lead))
            for a, b in itertools.combinations(gb.elements, 2):
                s = s_polynomial(a, b, order)
                if not s.is_zero():
                    _, r = reduce(s, list(gb.elements), order)
                    assert r.is_zero()

    def test_generators_are_members(self, example5_polys):
        gb = buchberger_reduced(example5_polys)
        for g in example5_polys:
            assert ideal_membership(g, gb)

    def test_step_limit(self):
        gens = [P("p1^5*p2^4 - p3^9"), P("p1*p2*p3 - 1"), P("p2^7 - p3^2")]
        with pytest.raises(StepLimitExceeded):
            buchberger_reduced(gens, counter=StepCounter(3))


def _constrained(p, q, constraint):
    """The 2x2 minors of a p x q table plus one linear constraint."""
    names = [f"p{i}{j}" for i in range(1, p + 1) for j in range(1, q + 1)]
    minors = [
        f"p{r1}{c1}*p{r2}{c2} - p{r1}{c2}*p{r2}{c1}"
        for r1, r2 in itertools.combinations(range(1, p + 1), 2)
        for c1, c2 in itertools.combinations(range(1, q + 1), 2)
    ]
    params = {"k": p * q, "vars": names, "generators": minors + [constraint]}
    return {"kind": "custom", "params": params}


class TestStepCounts:
    """Buchberger ticks once per pair as it forms the pair and once as
    it pops it, and the division core once per popped term; a different
    divisor choice would move these counts."""

    @pytest.mark.parametrize(
        "spec, basis_steps, total_steps",
        [
            ({"kind": "independence", "params": {"p": 2, "q": 4}}, 110, 110),
            ({"kind": "independence", "params": {"p": 3, "q": 3}}, 247, 247),
            # A linear basis: 7 double-description steps check it against the simplex.
            ({"kind": "symmetry", "params": {"p": 3}}, 12, 19),
            # The first constrained specs of the benchmark's threshold pool.
            # Their cut-out checks cost nothing: degree 1 fails by the
            # reduced basis alone, and degree 2 is the generators' top degree.
            (_constrained(3, 3, "-2*p11 - p12 + p13 + 2*p21 - 2*p33"), 754, 754),
            (_constrained(2, 3, "-2*p11 + p12 + 2*p21 + p22 - 2*p23"), 147, 147),
        ],
        ids=["independence-2x4", "independence-3x3", "symmetry-3", "constrained-3x3",
             "constrained-2x3"],
    )
    def test_step_counts_pinned(self, spec, basis_steps, total_steps):
        hyp = build_hypothesis(spec)
        counter = StepCounter()
        gb = buchberger_reduced(hyp.substituted_generators(), MonomialOrder.GREVLEX, counter)
        assert counter.steps == basis_steps
        sos_bounds(gb, hypothesis=hyp, counter=counter)
        assert counter.steps == total_steps


class TestMembership:
    def test_det_in_own_ideal(self):
        det = P("p1*p2 - p3^2")
        assert ideal_membership(det, buchberger_reduced([det]))

    def test_degree_obstruction(self):
        gb = buchberger_reduced([P("p1^2")])
        assert not ideal_membership(P("p1"), gb)

    def test_spolynomial_member(self):
        gb = buchberger_reduced([P("p1*p2 - p3^2"), P("p1 - p3")])
        assert ideal_membership(P("p2*p3 - p3^2"), gb)

    def test_remainder_linearity(self):
        basis = [P("p1*p2 - 1"), P("p2^2 - p3")]
        f, g = P("p1^2*p2^2 - p3"), P("p2^3 + p1")
        _, rf = reduce(f, basis)
        _, rg = reduce(g, basis)
        _, rsum = reduce(f + g, basis)
        _, rr = reduce(rf + rg, basis)
        assert rsum == rr


class TestRadicalMembership:
    def test_square_root_member(self):
        assert radical_membership(P("p1"), [P("p1^2")])

    def test_distinct_variables(self):
        assert not radical_membership(P("p1"), [P("p2")])

    def test_product_power(self):
        assert radical_membership(P("p1*p2"), [P("p1^2*p2^2")])

    def test_example5_degree3_redundant(self, example5_polys):
        g1, g2, g3, g4 = example5_polys
        assert radical_membership(g4, [g1, g2, g3])
        assert not radical_membership(g2, [g1])

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.sampled_from(
                ["p1^2 - p2", "p1*p3 - 1", "p2^2 - p3^2", "p1 + p2 - 2*p3"]
            ),
            min_size=1,
            max_size=3,
            unique=True,
        ),
        st.sampled_from(["p1", "p2 - p3", "p1*p2", "p1 + p2"]),
    )
    def test_membership_implies_radical_membership(self, gen_texts, mult_text):
        gens = [P(t) for t in gen_texts]
        # A true ideal member: random combination of the generators.
        member = P(mult_text) * gens[0]
        if len(gens) > 1:
            member = member + gens[1]
        gb = buchberger_reduced(gens)
        if ideal_membership(member, gb):
            assert radical_membership(member, gens)

    def test_rabinowitsch_basis_ticks_the_caller_budget(self):
        gens = [P("p1 - p2"), P("p2 - 2*p3")]
        with pytest.raises(StepLimitExceeded):
            radical_membership(P("p1^2*p3 - 4*p3^3 + p1*p2*p3"), gens, StepCounter(1))


def _random_linear(rng, nvars):
    """A degree-1 polynomial with small integer coefficients, often sparse."""
    units = [tuple(int(i == j) for j in range(nvars)) for i in range(nvars)]
    terms = {u: rng.choice([0, 0, -2, -1, 1, 3]) for u in units}
    terms[rng.choice(units)] = rng.choice([-1, 1, 2])
    terms[(0,) * nvars] = rng.randint(-2, 2)
    return Polynomial(nvars, terms)


def _linear_system(seed):
    """(gens, members, others) for seed: 1-4 linear generators in 1-6
    variables (every fifth seed adds a constant, the whole ring), ideal
    members of degree 1 and 2, and random polynomials of degree 1 and 2."""
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    gens = [_random_linear(rng, n) for _ in range(rng.randint(1, 4))]
    if seed % 5 == 0:
        gens.append(Polynomial.constant(n, rng.choice([-2, 1, 3])))
    members = [
        sum((rng.randint(-2, 2) * g for g in gens), Polynomial.zero(n)) + gens[0],
        sum((_random_linear(rng, n) * g for g in gens), Polynomial.zero(n)),
    ]
    others = [_random_linear(rng, n), _random_linear(rng, n) * _random_linear(rng, n)
              + _random_linear(rng, n)]
    return gens, members, others


def _vanishes_on_the_affine_subspace(f, gens):
    """Radical membership for generators of degree <= 1, with no Groebner
    basis: a linear ideal is the whole ring or prime, the ideal of an
    affine subspace, so f is a member iff f restricted to that subspace is
    zero.  The subspace is read off the reduced echelon form of the rows
    over (x_1, ..., x_n, 1): each pivot variable is solved for in terms of
    the free ones and substituted into f."""
    n = f.nvars
    monos = [tuple(int(i == j) for j in range(n)) for i in range(n)] + [(0,) * n]
    rows = [primitive_ints([g.coefficient(m) for m in monos]) for g in gens]
    reduced = echelon([row for row in rows if any(row)])[0]
    if any(c == n for c, _ in reduced):
        return True
    image = [Polynomial.variable(n, i) for i in range(n)]
    for c, row in reduced:
        rest = sum((Polynomial.monomial(n, monos[j], row[j]) for j in range(n + 1)
                    if j != c and row[j]), Polynomial.zero(n))
        image[c] = rest * Fraction(-1, row[c])
    restricted = Polynomial.zero(n)
    for mono, coeff in f.terms.items():
        term = Polynomial.constant(n, coeff)
        for x, e in zip(image, mono):
            term = term * x ** e
        restricted = restricted + term
    return restricted.is_zero()


class TestLinearRadicalMembership:
    """On generators of degree <= 1 the Rabinowitsch basis is checked
    against the restriction of f to the affine subspace they cut out."""

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_the_rabinowitsch_basis(self, seed):
        gens, members, others = _linear_system(seed)
        expected = [_vanishes_on_the_affine_subspace(f, gens) for f in members + others]
        assert [radical_membership(f, gens) for f in members + others] == expected
        assert expected[:2] == [True, True]

    def test_cases_cover_both_answers_and_the_whole_ring(self):
        # (whole ring, degree of f, member) over every f of every seed.
        outcomes = set()
        for seed in range(60):
            gens, members, others = _linear_system(seed)
            whole = any(g.total_degree() == 0 for g in gens)
            for f in members + others:
                member = radical_membership(f, gens)
                outcomes.add((whole, f.total_degree(), member))
        assert {(False, d, m) for d in (1, 2) for m in (False, True)} <= outcomes
        assert {(True, 1, True), (True, 2, True)} <= outcomes


def ideals(nvars, min_gens, max_gens, coefficients=st.integers(-3, 3).filter(bool)):
    """Random ideals in `nvars` variables: each generator has 1-3 terms with
    exponents 0..2 and nonzero integer coefficients in -3..3 (or drawn from
    `coefficients`)."""
    return st.lists(
        st.dictionaries(
            st.tuples(*[st.integers(0, 2)] * nvars),
            coefficients,
            min_size=1,
            max_size=3,
        ),
        min_size=min_gens,
        max_size=max_gens,
    )


def sympy_reduced_basis(sympy, gens, nvars, order):
    """sympy's reduced basis of the rational generators, each element made monic."""
    xs = sympy.symbols(f"p1:{nvars + 1}")
    exprs = [
        sum(
            sympy.Rational(c.numerator, c.denominator) * sympy.prod(x**e for x, e in zip(xs, m))
            for m, c in g.items()
        )
        for g in gens
    ]
    expected = set()
    # sympy scales elements to integer content; make each monic instead.
    for g in sympy.groebner(exprs, *xs, order=order.value).exprs:
        terms = sympy.Poly(g, *xs).terms(order=order.value)
        lc = Fraction(int(terms[0][1].p), int(terms[0][1].q))
        expected.add(
            Polynomial(nvars, {m: Fraction(int(c.p), int(c.q)) / lc for m, c in terms})
        )
    return expected


# Nonzero n/d with n in -3..3 and d in {1, 2, 3, 6}.
RATIONALS = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.sampled_from((1, 2, 3, 6)))


class TestSympyOracle:
    """The reduced basis is unique, so it must equal sympy's exactly."""

    @pytest.mark.parametrize("order", list(MonomialOrder))
    @seed(20250610)
    @settings(max_examples=150, deadline=None)
    @given(ideals(3, 1, 3))
    def test_reduced_basis_matches_sympy(self, sympy, order, gens):
        gb = buchberger_reduced([Polynomial(3, g) for g in gens], order)
        expected = sympy_reduced_basis(sympy, gens, 3, order)
        assert len(gb.elements) == len(expected)
        assert set(gb.elements) == expected

    # Four variables and 2-4 generators: minimal bases of several elements,
    # so the interreduction pass reduces each one by many others.
    @pytest.mark.parametrize("order", list(MonomialOrder))
    @seed(20250611)
    @settings(max_examples=60, deadline=None)
    @given(ideals(4, 2, 4))
    def test_four_variable_basis_matches_sympy(self, sympy, order, gens):
        gb = buchberger_reduced([Polynomial(4, g) for g in gens], order)
        expected = sympy_reduced_basis(sympy, gens, 4, order)
        assert len(gb.elements) == len(expected)
        assert set(gb.elements) == expected

    # Rational generators: leading coefficients other than +-1 make the
    # integer division core rescale mid-division.
    @pytest.mark.parametrize("order", list(MonomialOrder))
    @seed(20261018)
    @settings(max_examples=100, deadline=None)
    @given(ideals(3, 2, 3, RATIONALS))
    def test_rational_basis_matches_sympy(self, sympy, order, gens):
        gb = buchberger_reduced([Polynomial(3, g) for g in gens], order)
        expected = sympy_reduced_basis(sympy, gens, 3, order)
        assert len(gb.elements) == len(expected)
        assert set(gb.elements) == expected


def _max_scan_reduce(f, basis, order, counter):
    """Division as it ran before the heap: each step scans the whole working
    dict for its largest monomial."""
    lead = [(g.leading_monomial(order), g.leading_coefficient(order), g) for g in basis]
    quotients = [Polynomial.zero(f.nvars) for _ in basis]
    remainder = Polynomial.zero(f.nvars)
    work = f
    while work:
        counter.tick()
        mono = max(work.terms, key=order_key(order))
        for i, (lm, lc, g) in enumerate(lead):
            if all(a >= b for a, b in zip(mono, lm)):
                quot = Polynomial.monomial(
                    f.nvars, [a - b for a, b in zip(mono, lm)], work.terms[mono] / lc
                )
                quotients[i] = quotients[i] + quot
                work = work - quot * g
                break
        else:
            term = Polynomial.monomial(f.nvars, mono, work.terms[mono])
            remainder = remainder + term
            work = work - term
    return quotients, remainder


def _random_poly(rng, nvars, nterms, max_deg):
    terms = {}
    for _ in range(nterms):
        mono = [0] * nvars
        for _ in range(rng.randint(0, max_deg)):
            mono[rng.randrange(nvars)] += 1
        terms[tuple(mono)] = Fraction(rng.choice([-2, -1, 1, 2, 3]), rng.choice([1, 1, 2]))
    return Polynomial(nvars, terms)


def _division_cases():
    # x^4 + x^2 by x^2 + x + 1: the first step cancels x^2, the second
    # recreates it.
    yield P("p1^4 + p1^2", ["p1", "p2"]), [P("p1^2 + p1 + 1", ["p1", "p2"])]
    rng = random.Random(20071)
    for _ in range(60):
        nvars = rng.randint(2, 5)
        basis = [_random_poly(rng, nvars, rng.randint(1, 5), 3) for _ in range(rng.randint(1, 3))]
        basis = [g for g in basis if g]
        # Near-members of the ideal: their division cancels many terms.
        f = _random_poly(rng, nvars, rng.randint(0, 4), 5)
        for g in basis:
            f = f + _random_poly(rng, nvars, rng.randint(1, 4), 3) * g
        if basis and f:
            yield f, basis


class TestHeapDivisionOracle:
    @pytest.mark.parametrize("order", list(MonomialOrder))
    def test_matches_the_max_scan_division(self, order, monkeypatch):
        # Spy on the term updates to see that some monomial is cancelled and
        # later recreated within one division, which leaves a stale heap entry.
        cancelled, recreated = set(), []
        real_addmul = groebner.packed_addmul

        def spy(acc, coeff, shift, tail, heap=None):
            before = set(acc)
            real_addmul(acc, coeff, shift, tail, heap)
            recreated.extend(m for m in set(acc) - before if m in cancelled)
            cancelled.update(before - set(acc))

        monkeypatch.setattr(groebner, "packed_addmul", spy)
        for f, basis in _division_cases():
            cancelled.clear()
            heap_steps, scan_steps = StepCounter(), StepCounter()
            got = reduce(f, basis, order, heap_steps)
            assert got == _max_scan_reduce(f, basis, order, scan_steps)
            assert heap_steps.steps == scan_steps.steps
            q, r = got
            assert sum((qi * g for qi, g in zip(q, basis)), r) == f
        assert len(recreated) > 1


def _mono_div(a, b):
    """a / b on exponent tuples, or None when b does not divide a."""
    quot = tuple(x - y for x, y in zip(a, b))
    return None if any(e < 0 for e in quot) else quot


def _monomial_pairs(n):
    # Exponents small enough to divide each other often, or large enough to
    # reach the top field bits while the degree stays below 2^15.
    exponents = st.one_of(st.integers(0, 3), st.integers(0, (2**15 - 1) // max(n, 1)))
    return st.tuples(st.tuples(*[exponents] * n), st.tuples(*[exponents] * n))


MONOMIAL_PAIRS = st.integers(0, 4).flatmap(_monomial_pairs)


class TestPacking:
    """Packed exponent vectors: one int per monomial, additive under
    multiplication, smaller for a larger monomial, divisibility by one
    guarded subtract."""

    @pytest.mark.parametrize("order", list(MonomialOrder))
    @seed(20261019)
    @settings(max_examples=300, deadline=None)
    @given(MONOMIAL_PAIRS)
    # Top exponents in disjoint fields: the lcm's degree passes 2^15.
    @example(pair=((2**15 - 1, 0), (0, 2**15 - 1)))
    def test_pack_laws(self, order, pair):
        a, b = pair
        p = groebner.Packing(len(a), order)
        key = order_key(order)
        ka, kb = p.key(a), p.key(b)
        assert p.mono(ka) == a and p.mono(kb) == b
        assert (ka < kb) == (key(a) > key(b))
        if sum(a) + sum(b) < groebner.DEGREE_LIMIT:
            assert p.key(tuple(map(add, a, b))) == ka + kb
        # The test `_divide` runs on a popped monomial a and a leading one b.
        divides = ((p.bits(ka) | p.guard) - p.bits(kb)) & p.guard == p.guard
        quot = _mono_div(a, b)
        assert divides == (quot is not None)
        if divides:
            assert ka - kb == p.key(quot)
        assert p.divides(kb, ka) == divides
        assert p.divides(ka, kb) == (_mono_div(b, a) is not None)
        assert p.divides_bits(p.bits(kb), p.bits(ka)) == divides
        assert p.divides_bits(p.bits(ka), p.bits(kb)) == (_mono_div(b, a) is not None)
        # lcm * gcd = a * b, and the lcm is the product exactly when the
        # supports are disjoint.
        lcm, gcd = tuple(map(max, a, b)), tuple(map(min, a, b))
        kl, degree = p.lcm(ka, kb)
        assert p.mono(kl) == lcm and degree == sum(lcm)
        assert kl + p.key(gcd) == ka + kb
        if degree < groebner.DEGREE_LIMIT:
            assert kl == p.key(lcm)
        assert (kl == ka + kb) == (not any(gcd))
        assert p.lcm(kb, ka) == (kl, degree)

    @pytest.mark.parametrize("order", list(MonomialOrder))
    def test_degree_at_the_field_limit_is_refused(self, order):
        limit = groebner.DEGREE_LIMIT
        assert limit == 2**15
        p = groebner.Packing(2, order)
        assert p.mono(p.key((limit - 1, 0))) == (limit - 1, 0)
        with pytest.raises(ValueError, match="limit 32768"):
            p.key((limit - 7, 7))
        x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        with pytest.raises(ValueError, match="limit 32768"):
            buchberger_reduced([x**limit - y], order)
        with pytest.raises(ValueError, match="limit 32768"):
            reduce(x - y, [y**limit + 1], order)
        with pytest.raises(ValueError, match="limit 32768"):
            reduce(x ** (limit - 1) * y, [x - 1], order)
        # Inputs below the limit whose S-pair lcm reaches it.
        half = limit // 2
        with pytest.raises(ValueError, match="limit 32768"):
            buchberger_reduced([x**half * y - 1, x * y**half - 1], order)
        with pytest.raises(ValueError, match="limit 32768"):
            s_polynomial(x**half * y - 1, x * y**half - 1, order)
        # The SOS witness squares: degree 2^14 squares to the limit.
        gb = groebner.GroebnerBasis(order, (x**half - y,))
        with pytest.raises(ValueError, match="limit 32768"):
            sos_bounds(gb)
