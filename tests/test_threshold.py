import dataclasses
import itertools
import os
import random
import sys
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerpoly import (
    Polynomial,
    MonomialOrder,
    buchberger_reduced,
    build_hypothesis,
    coefficient_polytope,
    parse_polynomial,
    principal_umpu,
    radical_membership,
    rank_threshold,
    recover_test,
    sample_null_points,
    semialgebraic_umpu,
    sos_bounds,
    union_separating,
)
from powerpoly import threshold
from powerpoly.groebner import GroebnerBasis, StepCounter, StepLimitExceeded
from powerpoly.hypotheses import custom
from powerpoly.linprog import solve_lp
from powerpoly.polynomial import simplex_coefficients
from powerpoly.power import box_check
from powerpoly.threshold import EXACT, _definite_form, _level

from conftest import monomials_of_degree, order_key

F = Fraction
VARS3 = ["p1", "p2", "p3"]

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

from workloads import THRESHOLD, pool  # noqa: E402


def P(text, names=VARS3):
    return parse_polynomial(text, names)


def gb_of(hyp, order=MonomialOrder.GREVLEX):
    return buchberger_reduced(hyp.substituted_generators(), order)


class TestSosBounds:
    def test_independence_2x2(self):
        hyp = build_hypothesis({"kind": "independence", "params": {"p": 2, "q": 2}})
        report = sos_bounds(gb_of(hyp), hypothesis=hyp)
        assert report.ntub_bound == 4
        assert report.sub_bound == 4
        assert report.cut_out_degree == 2
        assert report.exactness == EXACT
        det_sub = hyp.substituted_generators()[0]
        assert report.ntub_witness == det_sub * det_sub

    def test_example5_degrees_and_redundancy(self, example5_polys):
        hyp = build_hypothesis(
            {
                "kind": "custom",
                "params": {
                    "k": 6,
                    "substituted": True,
                    "generators": [
                        "p11 - p12 - p13 + 2*p21",
                        "p12*p21 - p12*p22 - p13*p22 + 2*p21*p22",
                        "2*p12^2 + 4*p12*p13 + 2*p13^2 - 4*p13*p21 + 2*p21^2"
                        " - 4*p12*p22 - 4*p13*p22 + 8*p21*p22 - p12 - p13 + 2*p21",
                        "2*p13^2*p21 - 4*p13*p21^2 + 2*p21^3 + 2*p12*p13*p22"
                        " + 2*p13^2*p22 - 8*p13*p21*p22 + 6*p21^2*p22 - 4*p12*p22^2"
                        " - 4*p13*p22^2 + 8*p21*p22^2 - p13*p21 + 2*p21^2",
                    ],
                    "vars": ["p11", "p12", "p13", "p21", "p22"],
                },
            }
        )
        gb = gb_of(hyp)
        assert sorted(g.total_degree() for g in gb.elements) == [1, 2, 2, 3]
        report = sos_bounds(gb, hypothesis=hyp)
        assert report.ntub_bound == 2
        assert report.cut_out_degree == 2
        assert report.sub_bound == 4
        assert report.ntub_witness.total_degree() == 2
        # SUB witness only uses the degree <= 2 elements.
        assert report.sub_witness.total_degree() == 4

    def test_single_linear_generator(self):
        gb = buchberger_reduced([P("p1", ["p1", "p2"])])
        report = sos_bounds(gb)
        assert report.ntub_bound == report.sub_bound == 2
        assert report.ntub_witness == P("p1^2", ["p1", "p2"])

    @pytest.mark.parametrize(
        "k, generators",
        [(3, ["p1 + p2 + p3"]), (1, ["p1"]), (3, ["p1 - p2", "p1 - p2 - 1"])],
    )
    def test_empty_null_set_is_refused(self, k, generators):
        # On sum(p) = 1 these generators have no common zero, so the reduced
        # basis is {1} and P0 is empty.
        hyp = build_hypothesis({"kind": "custom", "params": {"k": k, "generators": generators}})
        gb = gb_of(hyp)
        assert gb.contains_constant()
        with pytest.raises(ValueError, match="^empty null set: .* P0 has no point$"):
            sos_bounds(gb, hypothesis=hyp)

    @pytest.mark.parametrize(
        "k, generators",
        [(3, ["p1^2 + p2^2 + p3^2"]), (3, ["-p1^2 - p2^2 - p3^2", "p1*p2"]), (3, ["1 - p1*p2"]),
         (4, ["p1 - p2", "p1^3 + p2^3 + p3^3 + p4^3 + p1*p2*p3"]),
         (3, ["p1^2 - p1*p2 + p2^2 + p3^2"])],
        ids=["sum-of-squares", "negative-definite", "negative-top-degree", "positive-cubic",
             "mixed-coefficients"],
    )
    def test_definite_generator_is_refused(self, k, generators):
        # Homogenized by p1 + ... + pk, each listed generator has all its
        # coefficients of one sign and every pure power present, so it has
        # no zero on the simplex; the reduced basis holds no constant.
        # (1 - p1 p2 homogenizes to p1^2 + p1 p2 + p2^2 + 2 p1 p3 + ...,
        # although its top-degree part is negative; p1^2 - p1 p2 + p2^2 + p3^2
        # gets there two degrees higher.)
        hyp = build_hypothesis({"kind": "custom", "params": {"k": k, "generators": generators}})
        gb = gb_of(hyp)
        assert not gb.contains_constant()
        with pytest.raises(ValueError, match="^empty null set: .* P0 has no point$"):
            sos_bounds(gb, hypothesis=hyp)

    @pytest.mark.parametrize(
        "spec",
        [{"kind": "custom", "params": {"k": 3, "generators": ["p1 - 1/2", "p2 - 2/3"]}},
         {"kind": "affine", "params": {"C": [[1, 0, 0], [0, 1, 0]], "d": ["1/2", "2/3"], "k": 3}}],
        ids=["custom", "affine"],
    )
    def test_linear_null_set_off_the_simplex_is_refused(self, spec):
        # p1 = 1/2 and p2 = 2/3 leave p3 = -1/6: the linear basis holds no
        # constant, and no generator has one strict sign on the simplex.
        hyp = build_hypothesis(spec)
        gb = gb_of(hyp)
        assert not gb.contains_constant()
        with pytest.raises(ValueError, match="^empty null set: the linear generators .* P0 has no point$"):
            sos_bounds(gb, hypothesis=hyp)

    def test_linear_refusal_matches_an_exact_lp(self):
        # 1-3 random linear generators in k = 3 or 4 ambient coordinates,
        # through one rational point with coordinate sum 1, inside the
        # simplex or not: P0 is refused exactly when the LP over x >= 0,
        # sum(x) = 1 and the generators' equations is infeasible.
        outcomes = []
        for seed in range(60):
            rng = random.Random(seed)
            k = rng.randint(3, 4)
            weights = [rng.randint(-2, 4) for _ in range(k)]
            weights[-1] += sum(weights) == 0
            point = [F(w, sum(weights)) for w in weights]
            units = [tuple(int(i == j) for j in range(k)) for i in range(k)]
            rows = [([-int(i == j) for j in range(k)], 0) for i in range(k)]
            rows += [([1] * k, 1), ([-1] * k, -1)]
            gens = []
            for _ in range(rng.randint(1, 3)):
                c = [rng.randint(-2, 2) for _ in range(k)]
                c[rng.randrange(k)] = rng.choice([-1, 1])
                c0 = -sum(a * x for a, x in zip(c, point))
                gens.append(Polynomial(k, {**dict(zip(units, c)), (0,) * k: c0}))
                rows += [(c, -c0), ([-v for v in c], c0)]
            empty = solve_lp(k, [0] * k, rows).status == "infeasible"
            hyp = custom(gens, k)
            if all(g.is_zero() for g in hyp.substituted_generators()):
                continue  # every generator is a multiple of sum(p) - 1
            try:
                sos_bounds(gb_of(hyp), hypothesis=hyp)
                refused = False
            except ValueError as exc:
                assert str(exc).startswith("empty null set: ")
                refused = True
            assert refused == empty, seed
            outcomes.append(refused)
        assert 10 <= sum(outcomes) <= len(outcomes) - 10

    @pytest.mark.parametrize(
        "generators",
        [["p1*p2"], ["p1^2 + p2^2 - p3^2"], ["p1^2 + p2^2"], ["p1^2 - p1*p2 + p2^2 + p3^2 - 1/2"],
         ["p1 - 1"], ["p1 - 1/2"], ["p1 - p2", "p3 - 1/3"], ["p1 + p2 - 2*p3"]],
        ids=["coordinate-planes", "indefinite", "no-pure-p3", "mixed-signs", "linear-vertex",
             "linear-edge", "linear-point", "linear-segment"],
    )
    def test_generators_with_simplex_zeros_are_accepted(self, generators):
        hyp = build_hypothesis({"kind": "custom", "params": {"k": 3, "generators": generators}})
        sos_bounds(gb_of(hyp), hypothesis=hyp)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-3, 3), min_size=6, max_size=6), st.integers(0, 2))
    def test_refused_quadrics_are_positive_on_a_simplex_grid(self, coeffs, constant):
        # The refusal is sound: a quadric it refuses is nonzero at every
        # point of a rational grid on the simplex.
        monos = [m for m in itertools.product(range(3), repeat=3) if sum(m) == 2]
        g = Polynomial(3, dict(zip(monos, coeffs))) + Polynomial.constant(3, F(constant, 2))
        sign = _definite_form(g, 3) if g.total_degree() >= 1 else 0
        if not sign:
            return
        grid = [(F(a, 6), F(b, 6), F(6 - a - b, 6)) for a in range(7) for b in range(7 - a)]
        assert all(sign * g.evaluate(p) > 0 for p in grid)

    def test_degree_raises_tick_the_counter(self):
        # p1^2 - p1 p2 + p2^2 + p3^2 is proved positive at degree 4: two
        # raises, drawing the 10 cubic and then the 15 quartic monomials.
        # (p1 - p2)^2 + p3^2 vanishes at (1/2, 1/2, 0): every raise up to
        # the cap is drawn, and no sign is proved.  The centroid refutes
        # p1^2 - p1 p2 + p2^2 + p3^2 - 1/2 with no raise.
        positive = P("p1^2 - p1*p2 + p2^2 + p3^2")
        counter = StepCounter(25)
        assert _definite_form(positive, 3, counter) == 1
        assert counter.steps == 25
        with pytest.raises(StepLimitExceeded):
            _definite_form(positive, 3, StepCounter(24))
        counter = StepCounter()
        assert _definite_form(P("p1^2 - 2*p1*p2 + p2^2 + p3^2"), 3, counter) == 0
        assert counter.steps == sum(comb(n + 2, 2) for n in range(3, 3 + threshold._POLYA_RAISES))
        counter = StepCounter()
        assert _definite_form(P("p1^2 - p1*p2 + p2^2 + p3^2 - 1/2"), 3, counter) == 0
        assert counter.steps == 0

    def test_gram_diagonal_form(self):
        # SUB witness is f^T f, the unit sum of squares: reconstruct directly.
        hyp = build_hypothesis({"kind": "independence", "params": {"p": 2, "q": 3}})
        gb = gb_of(hyp)
        report = sos_bounds(gb, hypothesis=hyp)
        direct = sum((g * g for g in gb.elements), P("0", hyp.substituted_names()))
        assert report.sub_witness == direct

    def test_ntub_square_comes_from_the_sub_sum(self, monkeypatch):
        # One squaring call per report: the NTUB witness g_min^2 comes
        # from the call that forms the SUB sum.
        from powerpoly import threshold

        calls = []
        real = threshold._sum_of_squares

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(threshold, "_sum_of_squares", spy)
        hyp = build_hypothesis({"kind": "independence", "params": {"p": 2, "q": 3}})
        # Reversed, so that g_min is not the first element.
        gb = GroebnerBasis(MonomialOrder.GREVLEX, gb_of(hyp).elements[::-1])
        order, key = gb.order, order_key(gb.order)
        g_min = min(gb.elements, key=lambda g: (g.total_degree(), key(g.leading_monomial(order))))
        assert g_min is not gb.elements[0]
        report = sos_bounds(gb, hypothesis=hyp)
        assert report.ntub_witness == g_min * g_min
        assert report.sub_witness == sum(
            (g * g for g in gb.elements), P("0", hyp.substituted_names())
        )
        rep = rank_threshold(3, 3, 2)
        rank = build_hypothesis({"kind": "rank_lt", "params": {"p": 3, "q": 3, "r": 2}})
        first = rank.generators[0]
        assert rep.ntub_witness == first * first
        assert len(calls) == 2

    def test_similarity_on_sampled_nulls(self):
        for spec in [
            {"kind": "independence", "params": {"p": 2, "q": 2}},
            {"kind": "symmetry", "params": {"p": 2}},
        ]:
            hyp = build_hypothesis(spec)
            report = sos_bounds(gb_of(hyp), hypothesis=hyp)
            for pt in sample_null_points(hyp, 10, seed=5):
                reduced = pt[:-1]
                assert report.ntub_witness.evaluate(reduced) == 0
                assert report.sub_witness.evaluate(reduced) == 0


def _mixed_degree_hypothesis(seed):
    """A custom hypothesis in k - 1 = 2..4 substituted variables: 2 or 3
    generators of degrees 1 to 3 that share a rational simplex point."""
    rng = random.Random(seed)
    k = rng.randint(3, 5)
    n = k - 1
    weights = [rng.randint(1, 5) for _ in range(k)]
    point = [F(w, sum(weights)) for w in weights[:n]]
    gens = []
    for _ in range(rng.randint(2, 3)):
        d = rng.randint(1, 3)
        monos = [m for m in itertools.product(range(d + 1), repeat=n) if 0 < sum(m) <= d]
        chosen = rng.sample(monos, min(len(monos), rng.randint(2, 4)))
        terms = {m: F(rng.randint(-3, 3)) for m in chosen}
        terms[max(monos, key=sum)] = F(1)
        g = Polynomial(n, terms)
        gens.append(g - Polynomial.constant(n, g.evaluate(point)))
    return custom(gens, k, substituted=True)


def _pool_hypotheses():
    specs = [spec["hypothesis"] for spec in pool(THRESHOLD) if "hypothesis" in spec]
    hyps = [build_hypothesis(spec) for spec in specs]
    return [h for h in hyps if h.family not in ("rank_lt", "polytope")]


class TestCutOutByDegree:
    """`sos_bounds` skips the cut-out checks at degrees from the largest
    generator degree D on; with D = None every degree is checked, and the
    reports are equal."""

    @staticmethod
    def _both(hyp):
        gb = gb_of(hyp)
        fast, slow = StepCounter(), StepCounter()
        report = sos_bounds(gb, hypothesis=hyp, counter=fast)
        forced = sos_bounds(dataclasses.replace(gb, generator_degree=None), hypothesis=hyp,
                            counter=slow)
        assert report == forced
        assert fast.steps <= slow.steps
        return fast.steps < slow.steps

    def test_threshold_pool(self):
        assert any([self._both(h) for h in _pool_hypotheses()])

    def test_seeded_mixed_degree_hypotheses(self):
        assert any([self._both(_mixed_degree_hypothesis(seed)) for seed in range(40)])

    def test_generator_degree_recorded(self):
        gb = buchberger_reduced([P("p1^3 - p2"), P("p1*p2 - p3"), P("0")])
        assert gb.generator_degree == 3
        assert GroebnerBasis(MonomialOrder.GREVLEX, gb.elements).generator_degree is None

    def test_constrained_cubics_need_no_rabinowitsch_basis(self, monkeypatch):
        # The 3x3 minors with one linear constraint: the basis has cubics,
        # certified against the quadric generators by degree alone.
        names = [f"p{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)]
        minors = [f"p{a}{c}*p{b}{d} - p{a}{d}*p{b}{c}" for a, b in itertools.combinations("123", 2)
                  for c, d in itertools.combinations("123", 2)]
        params = {"k": 9, "vars": names, "generators": minors + ["-p11 + 2*p13 + 2*p23 + 2*p32 + p33"]}
        hyp = build_hypothesis({"kind": "custom", "params": params})
        gb = gb_of(hyp)
        assert sorted({g.total_degree() for g in gb.elements}) == [1, 2, 3]

        def refuse(*args):
            raise AssertionError("a cut-out check built a Rabinowitsch basis")

        monkeypatch.setattr(threshold, "radical_membership", refuse)
        report = sos_bounds(gb, hypothesis=hyp)
        assert report.cut_out_degree == 2
        assert report.notes[0].startswith("elements of degree > 2 certified redundant")


def _cut_out_by_membership(gb):
    """The cut-out degree as `radical_membership` finds it at every degree
    below the generator degree D, the linear degree included."""
    for d in sorted({g.total_degree() for g in gb.elements}):
        lower = [g for g in gb.elements if g.total_degree() <= d]
        rest = [g for g in gb.elements if g.total_degree() > d]
        if d >= gb.generator_degree or all(radical_membership(g, lower) for g in rest):
            return d


class TestLinearDegreeSkip:
    """`sos_bounds` calls no `radical_membership` on linear elements alone:
    a reduced basis's linear elements generate a prime ideal whose radical
    holds none of its other elements.  The cut-out degree is the one the
    membership calls find."""

    @pytest.fixture
    def guarded(self, monkeypatch):
        real = threshold.radical_membership

        def guard(f, gens, counter=None):
            if all(g.total_degree() <= 1 for g in gens):
                raise AssertionError("radical_membership called at a linear degree")
            return real(f, gens, counter)

        monkeypatch.setattr(threshold, "radical_membership", guard)

    @staticmethod
    def _skips(hyp, order=MonomialOrder.GREVLEX):
        """Check one basis; True when it has linear and higher elements."""
        gb = gb_of(hyp, order)
        expected = _cut_out_by_membership(gb)
        report = sos_bounds(gb, hypothesis=hyp)
        assert (report.cut_out_degree, report.sub_bound) == (expected, 2 * expected)
        degrees = {g.total_degree() for g in gb.elements}
        return 1 in degrees and len(degrees) > 1

    def test_threshold_pool(self, guarded):
        assert sum([self._skips(h) for h in _pool_hypotheses()]) >= 18

    @pytest.mark.parametrize("order", [MonomialOrder.GREVLEX, MonomialOrder.GRLEX])
    def test_seeded_mixed_degree_hypotheses(self, guarded, order):
        assert any([self._skips(_mixed_degree_hypothesis(seed), order) for seed in range(400)])


ONE_SIGN = "empty null set: f has one strict sign on the simplex, so P0 has no point"
BAD_PRINCIPAL = [
    ("p1", VARS3, 2, F(3, 2), "alpha must lie in (0, 1)"),
    ("7", VARS3, 0, F(0), "alpha must lie in (0, 1)"),
    ("7", VARS3, 0, F(1, 20), "generator must be nonconstant"),
    ("p1*p2 - p3^2", VARS3, 3, F(1, 20), "sample size 3 below threshold 4"),
    ("p1", ["p1"], 2, F(1, 20), "need n >= 1 and k >= 2"),
    ("p1 + p2 + p3", VARS3, 2, F(1, 20), ONE_SIGN),
    ("-p1 - p2 - p3", VARS3, 2, F(1, 20), ONE_SIGN),
    ("p1^2 + p2^2 + p3^2", VARS3, 4, F(1, 20), ONE_SIGN),
    ("-p1^2 - p2^2 - p3^2", VARS3, 4, F(1, 20), ONE_SIGN),
    ("p1 + p2 + 2*p3", VARS3, 2, F(1, 20), ONE_SIGN),
    ("p1^2 - p1*p2 + p2^2 + p3^2", VARS3, 4, F(1, 20), ONE_SIGN),
    ("p1 + p2 + p3 - 1", VARS3, 2, F(1, 20), "null set is the whole simplex, no alternative: "),
]


class TestPrincipalChecks:
    """`principal_umpu`, `semialgebraic_umpu` and `coefficient_polytope`
    check (f, n, alpha) in one function, in one order."""

    @pytest.mark.parametrize("f, names, n, alpha, message", BAD_PRINCIPAL)
    def test_principal_umpu_refuses_what_the_coefficient_polytope_refuses(
        self, f, names, n, alpha, message
    ):
        f = parse_polynomial(f, names)
        with pytest.raises(ValueError) as principal:
            principal_umpu(f, n, alpha)
        with pytest.raises(ValueError) as polytope:
            coefficient_polytope(f, n, alpha)
        assert str(principal.value) == str(polytope.value)
        assert str(principal.value).startswith(message)

    @pytest.mark.parametrize(
        "f, names, n, alpha, message",
        BAD_PRINCIPAL[:3]
        + [
            ("p1*p2 - p3^2", VARS3, 1, F(1, 20), "sample size 1 below threshold 2"),
            ("p1", ["p1"], 1, F(1, 20), "need n >= 1 and k >= 2"),
            ("p1 + p2 + p3", VARS3, 1, F(1, 20), ONE_SIGN),
            ("-p1 - p2 - p3", VARS3, 1, F(1, 20),
             "null set is the whole simplex, no alternative: f is negative"),
            ("p1^2 + p2^2 + p3^2", VARS3, 2, F(1, 20), ONE_SIGN),
            ("-p1^2 - p2^2 - p3^2", VARS3, 2, F(1, 20),
             "null set is the whole simplex, no alternative: f is negative on the simplex"),
            ("p1 + p2 + p3 - 1", VARS3, 1, F(1, 20),
             "null set is the whole simplex, no alternative: f vanishes"),
        ],
    )
    def test_semialgebraic_refusals(self, f, names, n, alpha, message):
        # {f <= 0} is empty for f = 1 on the simplex and all of it for f <= 0.
        with pytest.raises(ValueError) as exc:
            semialgebraic_umpu(parse_polynomial(f, names), n, alpha)
        assert str(exc.value).startswith(message)

    def test_sum_of_all_is_refused_at_every_size(self):
        # beta = (p1 + p2 + p3)^2 would be a test that always rejects.
        f = P("p1 + p2 + p3")
        for n in (2, 3):
            with pytest.raises(ValueError, match="^empty null set: "):
                principal_umpu(f, n, F(1, 20))


class TestPrincipalUMPU:
    def test_sphere_c_alpha_4alpha(self):
        hyp = build_hypothesis({"kind": "sphere", "params": {"k": 4, "delta_sq": "1/4"}})
        f = hyp.generators[0]
        for alpha in (F(1, 20), F(1, 10), F(1, 4), F(1, 2)):
            res = principal_umpu(f, 4, alpha)
            assert res.c_alpha == 4 * alpha

    def test_sphere_phi_case_table(self):
        hyp = build_hypothesis({"kind": "sphere", "params": {"k": 4, "delta_sq": "1/4"}})
        alpha = F(1, 20)
        phi = recover_test(principal_umpu(hyp.generators[0], 4, alpha).beta)
        expected = {
            (4,): 2 * alpha,
            (3, 1): F(0),
            (2, 2): 2 * alpha,
            (2, 1, 1): F(4, 3) * alpha,
            (1, 1, 1, 1): 2 * alpha,
        }
        for x, value in phi.items():
            pattern = tuple(sorted((c for c in x if c), reverse=True))
            assert value == expected[pattern]

    def test_linear_generator_bounds(self):
        f = P("p1 + p2 - p3")
        res = principal_umpu(f, 2, F(1, 20))
        # Six degree-2 multiindices: tightest bound is alpha*2/2 at p1*p3.
        assert res.c_alpha == F(1, 20)

    def test_two_category_golden(self):
        f = parse_polynomial("p1 - p2", ["p1", "p2"])
        res = principal_umpu(f, 2, F(1, 2))
        assert res.c_alpha == F(1, 2)
        assert res.beta.poly == parse_polynomial("p1^2 + p2^2", ["p1", "p2"])

    def test_sample_size_validation(self):
        with pytest.raises(ValueError):
            principal_umpu(P("p1*p2 - p3^2"), 3, F(1, 20))
        with pytest.raises(ValueError):
            principal_umpu(P("p1"), 2, F(3, 2))

    def test_maximality(self):
        f = P("p1 + p2 - p3")
        for n, alpha in [(2, F(1, 20)), (4, F(1, 7)), (3, F(1, 3))]:
            if n < 2:
                continue
            res = principal_umpu(f, n, alpha)
            bumped = (res.c_alpha * F(1001, 1000)) * (f * f).homogenize(n) + alpha * (
                parse_polynomial("p1+p2+p3", VARS3) ** n
            )
            assert not box_check(bumped, n, 3)

    def test_monotone_in_alpha(self):
        # Monotonicity holds when the binding box constraint is the lower
        # (alpha-side) one throughout (0, 1/2], as in the sphere and
        # symmetric linear examples.  It is NOT universal: for
        # f = p1*p2 - p3^2 at n = 4, c_alpha = min(6*alpha, 1 - alpha)
        # peaks at alpha = 1/7 and then decreases.
        hyp = build_hypothesis({"kind": "sphere", "params": {"k": 4, "delta_sq": "1/4"}})
        for f, n in [(hyp.generators[0], 4), (P("p1 + p2 - p3"), 2)]:
            values = [principal_umpu(f, n, F(i, 20)).c_alpha for i in range(1, 11)]
            assert all(a <= b for a, b in zip(values, values[1:]))
        counter = [principal_umpu(P("p1*p2 - p3^2"), 4, a).c_alpha for a in (F(1, 5), F(1, 4))]
        assert counter[0] > counter[1]

    def test_cross_check_with_normalize(self):
        from powerpoly import normalize_to_power

        for f, n in [
            (P("p1 + p2 - p3"), 2),
            (P("p1*p2 - p3^2"), 4),
            (parse_polynomial("p1 - p2", ["p1", "p2"]), 2),
        ]:
            beta_norm, a, b = normalize_to_power(f * f, n, f.nvars)
            assert b > 0
            res = principal_umpu(f, n, a * b)
            assert res.beta.poly == beta_norm.poly
            assert res.c_alpha == a


def _level_oracle(shape, n, alpha):
    """The Fraction body `_level` replaced: (c_alpha, beta polynomial)."""
    bounds = simplex_coefficients(shape.nvars, n)
    caps = [
        (1 - alpha) * bounds[x] / c if c > 0 else alpha * bounds[x] / -c
        for x, c in shape.terms.items()
    ]
    c_alpha = min(caps)
    return c_alpha, c_alpha * shape + alpha * Polynomial.simplex_power(shape.nvars, n)


#: Levels near 0, 1/2 and 1.
ALPHAS = [F(1, 10**6), F(1, 20), F(499, 1000), F(1, 2), F(501, 1000), F(19, 20), F(10**6 - 1, 10**6)]


class TestLevelOnIntegers:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 5), st.integers(2, 4), st.sampled_from(ALPHAS), st.data())
    def test_matches_fraction_oracle(self, n, k, alpha, data):
        # Homogeneous shapes with coefficients over 1, 3, 6 and 16.
        coeff = st.builds(
            F, st.integers(-20, 20), st.sampled_from([1, 3, 6, 16])
        )
        monos = monomials_of_degree(k, n)
        chosen = data.draw(st.lists(st.sampled_from(monos), min_size=1, unique=True))
        shape = Polynomial(k, {m: data.draw(coeff) for m in chosen})
        if shape.is_zero():
            with pytest.raises(ValueError, match="zero separating polynomial"):
                _level(shape, n, alpha)
            return
        c_alpha, beta = _level_oracle(shape, n, alpha)
        res = _level(shape, n, alpha)
        assert res.c_alpha == c_alpha and type(res.c_alpha) is F
        assert res.beta.poly == beta
        assert box_check(res.beta.poly, n, k)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_principal_and_semialgebraic(self, alpha):
        hyp = build_hypothesis({"kind": "sphere", "params": {"k": 3, "delta_sq": "1/6"}})
        f = hyp.generators[0]
        for n in (4, 6):
            c_alpha, beta = _level_oracle((f * f).homogenize(n), n, alpha)
            res = principal_umpu(f, n, alpha)
            assert (res.c_alpha, res.beta.poly) == (c_alpha, beta)
            c_alpha, beta = _level_oracle(f.homogenize(n), n, alpha)
            res = semialgebraic_umpu(f, n, alpha)
            assert (res.c_alpha, res.beta.poly) == (c_alpha, beta)


class TestSemialgebraicUMPU:
    def test_halving_golden(self):
        f = parse_polynomial("p1 - 1/2", ["p1", "p2"])
        res = semialgebraic_umpu(f, 1, F(1, 4))
        assert res.c_alpha == F(1, 2)
        phi = recover_test(res.beta)
        assert phi((1, 0)) == F(1, 2) and phi((0, 1)) == 0

    def test_level_half(self):
        f = parse_polynomial("p1 - 1/2", ["p1", "p2"])
        res = semialgebraic_umpu(f, 1, F(1, 2))
        phi = recover_test(res.beta)
        assert res.c_alpha == 1
        assert phi((1, 0)) == 1 and phi((0, 1)) == 0

    def test_threshold_is_half_the_algebraic_one(self):
        # Square-hypothesis witness at t=3/4 has degree 2; the one-sided
        # test needs only n = 2 while the squared (algebraic) route needs 4.
        t = F(3, 4)
        names = ["p1", "p2"]
        w = -1 * (parse_polynomial("p1", names) - t) * (
            parse_polynomial("p2", names) - t
        )
        res = semialgebraic_umpu(w, 2, F(1, 20))
        assert res.beta.poly.total_degree() == 2
        assert res.c_alpha > 0


class TestUnionAndRank:
    def test_two_hyperplanes(self):
        w1 = P("p1 - p2") ** 2
        w2 = P("p1 - p3") ** 2
        u = union_separating([w1, w2])
        assert u == (P("p1 - p2") * P("p1 - p3")) ** 2
        assert u.total_degree() == 4

    def test_pairwise_equal_k3(self):
        ws = [P("p1 - p2") ** 2, P("p1 - p3") ** 2, P("p2 - p3") ** 2]
        u = union_separating(ws)
        assert u.total_degree() == 6  # 2 * C(3, 2)

    def test_single_witness_identity(self):
        w = P("p1*p2 - p3^2")
        assert union_separating([w]) == w

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            union_separating([])

    @pytest.mark.parametrize("pqr,expect", [((2, 2, 2), 4), ((3, 3, 2), 4), ((3, 3, 3), 6)])
    def test_rank_thresholds(self, pqr, expect):
        rep = rank_threshold(*pqr)
        assert rep.ntub_bound == rep.sub_bound == expect
        assert rep.exactness == EXACT

    @pytest.mark.parametrize("pqr", [(2, 2, 2), (2, 3, 2), (3, 3, 2), (3, 4, 3), (4, 4, 3)])
    def test_rank_threshold_ticks_one_step_per_term_product(self, pqr):
        counter = StepCounter()
        rep = rank_threshold(*pqr, counter=counter)
        minors = build_hypothesis({"kind": "rank_lt", "params": dict(zip("pqr", pqr))}).generators
        assert counter.steps == sum(len(g.terms) ** 2 for g in minors)
        assert rep == rank_threshold(*pqr)

    @pytest.mark.parametrize("pqr", [(2, 3, 2), (3, 4, 3), (4, 4, 3)])
    def test_rank_threshold_reads_given_minors(self, pqr, monkeypatch):
        minors = build_hypothesis({"kind": "rank_lt", "params": dict(zip("pqr", pqr))}).generators
        built, given_ = StepCounter(), StepCounter()
        want = rank_threshold(*pqr, counter=built)

        def refuse(*args):
            raise AssertionError("minors built again")

        monkeypatch.setattr(threshold, "rank_lt", refuse)
        assert rank_threshold(*pqr, counter=given_, minors=minors) == want
        assert given_.steps == built.steps

    def test_rank_threshold_refuses_before_squaring(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("squared past the budget")

        monkeypatch.setattr(threshold, "_sum_of_squares", refuse)
        with pytest.raises(StepLimitExceeded):
            rank_threshold(6, 6, 6, counter=StepCounter(518_399))

    def test_rank_witness_structure(self):
        rep = rank_threshold(3, 3, 2)
        hyp = build_hypothesis({"kind": "rank_lt", "params": {"p": 3, "q": 3, "r": 2}})
        direct = sum((g * g for g in hyp.generators), parse_polynomial("0", hyp.names))
        assert rep.sub_witness == direct
        for pt in sample_null_points(hyp, 10, seed=3):
            assert rep.sub_witness.evaluate(pt) == 0

    def test_sub_witness_positive_off_null(self):
        rep = rank_threshold(2, 2, 2)
        off_null = [F(1, 2), F(1, 4), F(1, 8), F(1, 8)]
        assert rep.sub_witness.evaluate(off_null) > 0
