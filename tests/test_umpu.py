import math
import random
import re
import time
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

from powerpoly import (
    Polynomial,
    StepCounter,
    StepLimitExceeded,
    build_hypothesis,
    coefficient_polytope,
    componentwise_max,
    convex_peeling,
    enumerate_vertices,
    parse_polynomial,
    principal_umpu,
    umpu,
    umpu_search,
)
from powerpoly.linalg import primitive_ints
from powerpoly.linprog import solve_lp
from powerpoly.polynomial import MonomialOrder, default_names
from powerpoly.polytope import (
    Vertices,
    enumerate_vertices_dd,
    facet_rows,
    irredundant_rows,
    vertex_faces,
)
from powerpoly.power import box_check
from powerpoly.umpu import (
    CANDIDATE,
    EXISTS,
    NOT_EXISTS,
    _incomparable_pair,
    _peak_index,
)

from conftest import (
    PRINTED_VERTICES_SUM,
    PRINTED_VERTICES_WEIGHTED,
    enumerate_vertices_brute_force,
    monomials_of_degree,
    multinomial,
    order_key,
    printed_to_exact,
)

F = Fraction
VARS3 = ["p1", "p2", "p3"]


def P(text, names=VARS3):
    return parse_polynomial(text, names)


def sphere3():
    return build_hypothesis({"kind": "sphere", "params": {"k": 3, "delta_sq": "1/6"}}).generators[0]


def _nonzero_rows(poly):
    """(L, B_L, c_L) for every L whose row c_L = scale P_L is nonzero."""
    return [
        (L, bound, tuple([poly.scale * c for c in row]))
        for L, bound, row in poly.multiindices
        if row is not None
    ]


def _lp_rows(poly):
    a, b = poly.one_sided()
    return list(zip(a, b))


def _fix(dim, values):
    """x_pos = v for each fixed coordinate, as its two <= rows."""
    rows = []
    for pos, v in values.items():
        unit = [F(int(i == pos)) for i in range(dim)]
        rows += [(unit, v), ([-u for u in unit], -v)]
    return rows


def _lp_replay(poly):
    """The UMPU decision by exact LPs instead of the vertex list.

    Returns (status, failing_layer, h coefficients or None).  Exists when
    the coordinate maxima over the whole polytope are jointly feasible;
    otherwise each peeling layer maximizes its coordinates with the
    earlier layers' maxima fixed, and fails when its maxima are jointly
    infeasible.
    """
    dim = poly.dim
    base = _lp_rows(poly)

    def maximize(cons, pos):
        res = solve_lp(dim, [F(int(i == pos)) for i in range(dim)], cons)
        assert res.is_optimal
        return res.value

    def feasible(values):
        if len(values) == dim:  # a single point: no LP needed
            return all(sum(r * values[i] for i, r in enumerate(row)) <= bound
                       for row, bound in base)
        return solve_lp(dim, [F(0)] * dim, base + _fix(dim, values)).is_optimal

    peak = {pos: maximize(base, pos) for pos in range(dim)}
    if feasible(peak):
        return EXISTS, None, [peak[i] for i in range(dim)]
    position = {J: i for i, J in enumerate(poly.h_index)}
    fixed = {}
    for layer_no, layer in enumerate(convex_peeling(poly.k, poly.nprime)):
        cons = base + _fix(dim, fixed)
        # Layer 0 maximizes over the whole polytope: its maxima are the peak's.
        maxima = {
            position[J]: maximize(cons, position[J]) if fixed else peak[position[J]]
            for J in layer
        }
        if not feasible({**fixed, **maxima}):
            return NOT_EXISTS, layer_no, None
        fixed.update(maxima)
    return CANDIDATE, None, [fixed[i] for i in range(dim)]


class TestCoefficientPolytope:
    def test_rows_are_counted_before_they_are_built(self):
        counter = StepCounter()
        coefficient_polytope(P("p1 + p2 - p3"), 4, F(1, 20), counter)
        assert counter.steps == math.comb(4 + 2, 2)
        # C(302, 2) = 45,451 rows: refused before the first is built.
        with pytest.raises(StepLimitExceeded):
            coefficient_polytope(P("p1 + p2 - p3"), 300, F(1, 20), StepCounter(10))

    def test_linear_f_dimensions(self):
        poly = coefficient_polytope(P("p1 + p2 - p3"), 3, F(1, 20))
        assert poly.nprime == 1
        assert poly.dim == 3
        assert len(poly.multiindices) == 10  # all degree-3 multiindices
        assert poly.halfspace_count() == 20

    def test_nprime_zero_is_interval(self):
        poly = enumerate_vertices(coefficient_polytope(P("p1 + p2 - p3"), 2, F(1, 20)))
        assert poly.dim == 1
        assert len(poly.vertices) == 2
        upper = max(v[0] for v in poly.vertices)
        assert upper == principal_umpu(P("p1 + p2 - p3"), 2, F(1, 20)).c_alpha

    def test_origin_feasible(self):
        poly = coefficient_polytope(sphere3(), 6, F(1, 20))
        for _, bound, _ in _nonzero_rows(poly):
            assert -poly.alpha * bound < 0 < (1 - poly.alpha) * bound
        assert min(poly.one_sided()[1]) > 0

    def test_sphere_halfspace_counts(self):
        # Raw H-rep: one two-sided row per degree-n multiindex, all nonzero.
        for n, expect_rows in [(5, 21), (6, 28), (7, 36), (8, 45)]:
            poly = coefficient_polytope(sphere3(), n, F(1, 20))
            assert len(_nonzero_rows(poly)) == expect_rows
            assert poly.halfspace_count() == 2 * expect_rows

    @pytest.mark.parametrize(
        "weights, n",
        [
            ((1, 1, 1, 1, -1), 3),
            ((2, 1, 1, 1, -1), 3),
            ((1, 1, 1, 1, 1, -1), 3),
            ((1, 1, -1), 4),
            ((1, 2, -3), 4),
            ((1, 1, 1, 1, 1, 1, -1), 3),
            ((2, 1, 1, 1, 1, -1), 3),
            ((1, -1, 0, 0), 4),
            ((1, -1, 0, 0, 0, 0, 0, 0, 0), 3),
            ((1, 1, 1, 1, -1, -1, -1, -1), 3),
            ("sphere", 5),
        ],
    )
    def test_rows_match_the_probing_formula(self, weights, n):
        # Entry (L, J) probed as the coefficient of x^(L - J) in f~^2, or 0
        # where L - J has a negative exponent; the rows scale P_L must be
        # identical, and a zero row is stored as None.
        if weights == "sphere":
            f = sphere3()
        else:
            k = len(weights)
            units = [tuple(int(i == j) for j in range(k)) for i in range(k)]
            f = Polynomial(k, dict(zip(units, weights)))
        alpha = F(1, 20)
        poly = coefficient_polytope(f, n, alpha)
        fsq = f.homogenize(f.total_degree()) ** 2
        grevlex = order_key(MonomialOrder.GREVLEX)
        h_index = sorted(monomials_of_degree(f.nvars, poly.nprime), key=grevlex, reverse=True)
        expected = []
        for L in sorted(monomials_of_degree(f.nvars, n), key=grevlex, reverse=True):
            coeffs = []
            for J in h_index:
                diff = tuple(l - j for l, j in zip(L, J))
                coeffs.append(fsq.coefficient(diff) if min(diff) >= 0 else F(0))
            expected.append((L, multinomial(n, L), tuple(coeffs) if any(coeffs) else None))
        got = [
            (L, bound, None if row is None else tuple([poly.scale * c for c in row]))
            for L, bound, row in poly.multiindices
        ]
        assert poly.h_index == tuple(h_index)
        assert repr(got) == repr(expected)
        assert all(type(c) is int for _, _, row in poly.multiindices if row for c in row)

    def test_sample_size_validation(self):
        with pytest.raises(ValueError):
            coefficient_polytope(sphere3(), 3, F(1, 20))
        with pytest.raises(ValueError):
            coefficient_polytope(sphere3(), 4, F(5, 4))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("p1 + p2 + p3", "empty null set"),
            ("p1 + p2 + p3 + 1", "empty null set"),
            ("2*p1^2 + 2*p2^2 + 2*p3^2 + 4*p1*p2 + 4*p1*p3 + 4*p2*p3", "empty null set"),
            ("p1 + p2 + p3 - 1", "null set is the whole simplex, no alternative"),
            ("p1^2 + p1*p2 + p1*p3 - p1", "null set is the whole simplex, no alternative"),
        ],
    )
    def test_f_constant_on_the_simplex_is_refused(self, text, message):
        # f is 1, 2 or 2 on sum(p) = 1, so P0 is empty; or f is 0 there, so
        # P0 is all of the simplex.  No test tells P0 from an alternative.
        f = P(text)
        with pytest.raises(ValueError, match=f"^{message}: "):
            coefficient_polytope(f, 4, F(1, 20))
        with pytest.raises(ValueError, match=f"^{message}: "):
            umpu_search(f, 4, F(1, 20))

    @seed(20261020)
    @settings(max_examples=60, deadline=None)
    @given(
        c=st.integers(-2, 2),
        g=st.lists(st.integers(-2, 2), min_size=4, max_size=4),
        extra=st.lists(st.sampled_from([0, 0, 0, 1, -1]), min_size=3, max_size=3),
    )
    def test_refused_exactly_when_constant_or_of_one_strict_sign(self, c, g, extra):
        # f = c (sum p)^2 + (g0 + g.p)(sum p - 1) + extra.p is c + extra.p
        # on the simplex, a linear function: of one strict sign there
        # exactly when its values c + extra_i at the vertices are, and
        # constant when extra is.  Zero is the whole simplex; any other
        # one-signed f has an empty null set.
        x = [Polynomial.variable(3, i) for i in range(3)]
        total = x[0] + x[1] + x[2]
        f = c * total**2 + (g[0] + sum(gi * xi for gi, xi in zip(g[1:], x))) * (total - 1)
        f = f + sum(e * xi for e, xi in zip(extra, x))
        assume(f.total_degree() >= 1)
        vertex = [f.evaluate([int(i == j) for j in range(3)]) for i in range(3)]
        if min(vertex) > 0 or max(vertex) < 0 or not any(vertex):
            message = "empty null set" if any(vertex) else "null set is the whole simplex"
            with pytest.raises(ValueError, match=f"^{message}"):
                coefficient_polytope(f, 4, F(1, 20))
        else:
            assert coefficient_polytope(f, 4, F(1, 20)).k == 3

    @pytest.mark.parametrize("alpha, facets", [(F(1, 20), 15), (F(1, 2), 30), (F(19, 20), 15)])
    def test_one_sided_puts_the_nearest_rows_first(self, alpha, facets):
        poly = coefficient_polytope(P("p1 + p2 - p3"), 4, alpha)
        a, b = poly.one_sided()
        # Sorted by b_i / max_j |a_ij|, the l1 distance from h = 0 to row i.
        keys = [bound / max(map(abs, row)) for row, bound in zip(a, b)]
        assert keys == sorted(keys)
        # The rows of both sides, with ties in the near-side order.
        lower, upper = _sides(poly)
        near_first = lower + upper if alpha <= F(1, 2) else upper + lower
        expected = sorted(near_first, key=lambda row: row[1] / max(map(abs, row[0])))
        assert [(*row, bound) for row, bound in zip(a, b)] == [
            primitive_ints((*row, bound)) for row, bound in expected
        ]
        assert poly.facet_count() == facets


@pytest.mark.parametrize(
    "f, k, n",
    [
        ("p1 + p2 - p3", 3, 4),
        ("2*p1 + p2 - p3", 3, 4),
        ("p1 + p2 - 2*p3", 3, 4),
        ("p1 + p2 + p3 - p4", 4, 3),
    ],
)
@pytest.mark.parametrize("alpha", [F(1, 20), F(1, 10), F(1, 2), F(7, 10)])
def test_face_reader_finds_the_facets_of_the_polar_lps(f, k, n, alpha):
    # Two independent facet tests on one polytope: the masks of one double
    # description, and one exact polar LP per row.  Duplicate rows, if
    # any, count once, as their first copy.
    poly = coefficient_polytope(parse_polynomial(f, default_names(k)), n, alpha)
    a, b = poly.one_sided()
    vertices, faces = vertex_faces(a, b)
    facets = [i for i in facet_rows(faces, len(vertices)) if a.index(a[i]) == i]
    assert facets == irredundant_rows(a, b)


def _sides(poly):
    """The lower rows -c_L.h <= alpha B_L and the upper rows c_L.h <= (1 - alpha) B_L."""
    rows = _nonzero_rows(poly)
    lower = [([-c for c in coeffs], poly.alpha * bound) for _, bound, coeffs in rows]
    upper = [(list(coeffs), (1 - poly.alpha) * bound) for _, bound, coeffs in rows]
    return lower, upper


def _near_side_first(poly):
    """The rows in the order before nearest-first: near side, then far side."""
    lower, upper = _sides(poly)
    rows = lower + upper if poly.alpha <= F(1, 2) else upper + lower
    return [row for row, _ in rows], [bound for _, bound in rows]


# The polytopes of the nearest-first tests: (weights of a linear f, or the
# k = 3 sphere, with its rational f), n, alpha.
NEAREST_FIRST_CASES = [
    ((1, 1, -1), 3, F(1, 20)),
    ((2, 1, -1), 3, F(1, 10)),
    ((2, -1, -1), 3, F(1, 20)),
    ((1, 1, -2), 4, F(1, 20)),
    ((1, 2, -3), 3, F(1, 20)),
    ((1, 2, -3), 4, F(1, 10)),
    ((1, 1, -1, -1), 3, F(1, 10)),
    ((1, 1, 1, -1), 3, F(1, 20)),
    ((1, 1, -1), 4, F(1, 20)),
    ((1, 1, -1), 4, F(1, 2)),
    ((1, 1, -1), 4, F(19, 20)),
    ((3, -1, 1), 4, F(7, 10)),
    ((1, 1, -1), 5, F(1, 20)),
    ((1, 1, 1, -1), 4, F(1, 20)),
    ((1, -1, 0, 0), 4, F(1, 2)),
    ((1, 1, 1, 1, -1), 3, F(1, 20)),
    ((2, 1, 1, 1, -1), 3, F(1, 20)),
    ((1, 1, 1, 1, 1, -1), 3, F(1, 20)),
    ((1, 1, 1, 1, 1, 1, -1), 3, F(1, 20)),
    ((2, 1, 1, 1, 1, -1), 3, F(1, 20)),
    ((1, -1, 0, 0, 0, 0, 0, 0, 0), 3, F(1, 20)),
    ((1, 1, 1, 1, -1, -1, -1, -1), 3, F(1, 20)),
    ("sphere", 4, F(1, 10)),
    ("sphere", 5, F(1, 20)),
    ("sphere", 6, F(1, 20)),
    ("sphere", 6, F(1, 2)),
]


def _case_generator(weights):
    if weights == "sphere":
        return sphere3()
    k = len(weights)
    units = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    return Polynomial(k, {u: c for u, c in zip(units, weights) if c})


@pytest.mark.parametrize("weights, n, alpha", NEAREST_FIRST_CASES)
def test_nearest_first_keeps_the_near_side_vertices(weights, n, alpha):
    # Oracle: the same double description fed the near-side-first order.
    # An order changes only how many rays are built on the way.
    f = _case_generator(weights)
    poly = coefficient_polytope(f, n, alpha)
    expected = enumerate_vertices_dd(*_near_side_first(poly))
    assert enumerate_vertices(poly).vertices == expected


@pytest.mark.parametrize("weights, n", [(weights, n) for weights, n, _ in NEAREST_FIRST_CASES])
@seed(20261019)
@settings(max_examples=8, deadline=None)
@given(alpha=st.fractions(F(1, 20), F(19, 20), max_denominator=40))
@example(alpha=F(1, 20))
@example(alpha=F(1, 2))
@example(alpha=F(19, 20))
def test_one_sided_rows_are_the_primitive_sorted_sides(weights, n, alpha):
    # Row i of one_sided() is the i-th row of the Fraction sides, stably
    # sorted nearest first, scaled to a primitive integer vector.
    poly = coefficient_polytope(_case_generator(weights), n, alpha)
    near_first = zip(*_near_side_first(poly))
    expected = sorted(near_first, key=lambda row: row[1] / max(map(abs, row[0])))
    a, b = poly.one_sided()
    assert len(a) == len(b) == len(expected)
    for i, (row, bound) in enumerate(expected):
        assert (*a[i], b[i]) == primitive_ints((*row, bound))


@pytest.mark.parametrize(
    "text, k, n",
    [
        ("p1 + p2 - p3", 3, 3),
        ("p1 + p2 - p3", 3, 4),
        ("2*p1 + p2 - p3", 3, 3),
        ("p1 - p2", 3, 4),
        ("p1 + p2 + p3 - p4", 4, 3),
    ],
)
@pytest.mark.parametrize("alpha", [F(1, 20), F(1, 10), F(1, 2)])
def test_power_polynomial_from_rows_matches_the_product(text, k, n, alpha):
    # Oracle: beta = f~^2 h + alpha (p1 + ... + pk)^n by polynomial algebra.
    names = [f"p{i + 1}" for i in range(k)]
    f = parse_polynomial(text, names)
    ftilde = f.homogenize(f.total_degree())
    level = alpha * Polynomial.simplex_power(k, n)
    poly = enumerate_vertices(coefficient_polytope(f, n, alpha))
    assert poly.vertices
    for v in poly.vertices:
        beta = poly.power_polynomial(v)
        assert beta.poly == ftilde * ftilde * poly.h_polynomial(v) + level
        assert (beta.n, beta.k) == (n, k)


def _power_polynomial_oracle(poly, coeffs):
    """phi_L(h) = c_L.h + alpha B_L in Fractions, with c_L = scale P_L."""
    terms = {}
    for L, bound, row in poly.multiindices:
        c = poly.alpha * bound
        if row is not None:
            c += poly.scale * sum(x * h for x, h in zip(row, coeffs) if x)
        if c:
            terms[L] = c
    return Polynomial(poly.k, terms)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([("p1 + p2 - p3", 3), ("2*p1 + p2 - p3", 3), ("p1 - p2", 4)]),
    st.sampled_from([F(1, 1000), F(1, 20), F(1, 2), F(501, 1000), F(999, 1000)]),
    st.data(),
)
def test_power_polynomial_on_integers_matches_fraction_oracle(case, alpha, data):
    # Inside: a vertex or a mixture of two; outside: a vertex pushed past
    # its box, which must fail with the message of the Fraction check.
    text, n = case
    poly = enumerate_vertices(coefficient_polytope(P(text), n, alpha))
    first, second = (data.draw(st.sampled_from(poly.vertices)) for _ in range(2))
    t = data.draw(st.sampled_from([F(0), F(1, 3), F(1, 2), F(1), F(3, 2), F(5)]))
    h = tuple((1 - t) * u + t * v for u, v in zip(first, second))
    want = _power_polynomial_oracle(poly, h)
    if box_check(want, n, poly.k):
        assert poly.power_polynomial(h).poly == want
    else:
        message = f"not a power polynomial: {box_check(want, n, poly.k).reason}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            poly.power_polynomial(h)


class TestVertexGoldens:
    def check_tight_rows(self, poly):
        # Each vertex is feasible and its tight rows have rank >= dim.  Rows
        # and vertices are scaled to integers, as in the stretch test, so
        # the slacks need no Fraction arithmetic.
        a, b = poly.one_sided()
        from powerpoly.linalg import rank

        int_rows = []
        for row, bound in zip(a, b):
            den = math.lcm(*(F(c).denominator for c in row), F(bound).denominator)
            int_rows.append(([int(c * den) for c in row], int(bound * den)))
        for v in poly.vertices:
            den = math.lcm(*(F(c).denominator for c in v))
            iv = [int(c * den) for c in v]
            slacks = [bound * den - sum(c * x for c, x in zip(row, iv)) for row, bound in int_rows]
            assert min(slacks) >= 0
            assert rank([row for (row, _), s in zip(int_rows, slacks) if s == 0]) >= poly.dim

    def test_sum_hypothesis_eight_vertices(self):
        poly = enumerate_vertices(coefficient_polytope(P("p1 + p2 - p3"), 3, F(1, 20)))
        assert len(poly.vertices) == 8
        # The printed table lists coordinates as (h_{p3}, h_{p2}, h_{p1}).
        printed = {tuple(reversed(v)) for v in printed_to_exact(PRINTED_VERTICES_SUM)}
        assert set(poly.vertices) == printed
        a, b = poly.one_sided()
        assert list(poly.vertices) == enumerate_vertices_brute_force(a, b)
        self.check_tight_rows(poly)

    def test_weighted_hypothesis_thirteen_vertices(self):
        poly = enumerate_vertices(coefficient_polytope(P("2*p1 + p2 - p3"), 3, F(1, 20)))
        assert len(poly.vertices) == 13
        a, b = poly.one_sided()
        assert list(poly.vertices) == enumerate_vertices_brute_force(a, b)
        self.check_tight_rows(poly)
        # Compare against the printed table (reversed coordinate order),
        # reporting mismatches instead of failing: two printed entries are
        # suspected misprints (-0.5 for -0.05; a sign flip on 0.03438).
        printed = [tuple(reversed(v)) for v in printed_to_exact(PRINTED_VERTICES_WEIGHTED)]
        computed = set(poly.vertices)
        mismatched_rows = []
        for row_no, cand in enumerate(printed):
            near = any(
                all(abs(float(a_) - float(b_)) < 5e-5 for a_, b_ in zip(cand, v))
                for v in computed
            )
            if not near:
                mismatched_rows.append(row_no)
        report = [PRINTED_VERTICES_WEIGHTED[i] for i in mismatched_rows]
        print(f"printed-table rows without exact computed match: {report}")
        assert set(mismatched_rows) <= {4, 8}

    def test_sphere_n5_vertices(self):
        poly = enumerate_vertices(coefficient_polytope(sphere3(), 5, F(1, 20)))
        assert len(poly.vertices) == 8
        fifth = F(1, 5)
        expected = set()
        for signs in [
            (-1, -1, -1), (-1, -1, 1), (-1, 1, -1), (1, -1, -1),
            (-1, 1, 1), (1, -1, 1), (1, 1, -1),
        ]:
            expected.add(tuple(s * fifth for s in signs))
        expected.add((F(1, 3), F(1, 3), F(1, 3)))
        assert set(poly.vertices) == expected
        cw = componentwise_max(poly.vertices)
        assert cw.vertex == (F(1, 3), F(1, 3), F(1, 3))

    def test_sphere_n6_vertex_count(self):
        poly = enumerate_vertices(coefficient_polytope(sphere3(), 6, F(1, 20)))
        assert len(poly.vertices) == 188

    # Both counts were first found with the rows interleaved (upper and
    # lower row per multiindex), which took 19 s and 242 s on a 2-vCPU VM.
    @pytest.mark.parametrize(
        "text, names, n, count",
        [
            ("p1 + p2 - p3", VARS3, 5, 1_122),
            ("p1 + p2 + p3 - p4", ["p1", "p2", "p3", "p4"], 4, 1_774),
        ],
    )
    def test_larger_linear_vertex_counts(self, text, names, n, count):
        poly = enumerate_vertices(coefficient_polytope(P(text, names), n, F(1, 20)))
        assert len(poly.vertices) == count
        self.check_tight_rows(poly)

    def test_alpha_one_half_vertex_and_step_counts(self):
        # At alpha = 1/2 neither side of the rows is nearer.  f~ = p1 - p2
        # leaves p3 and p4 out, so the polytope is the product of six
        # factors, one per exponent of (p3, p4) in h's columns: (0, 0)
        # with 3 columns, (1, 0) and (0, 1) with 2, (2, 0), (1, 1) and
        # (0, 2) with 1.  The three one-column factors have the same rows
        # on their column, so four double descriptions and the 1,536
        # product vertices take 1,588 steps with the rows nearest first
        # (1,601 with one double description per factor); one double
        # description of all the rows took 1,585, and the near-side-first
        # order tested 1.77 M pairs.
        names = ["p1", "p2", "p3", "p4"]
        counter = StepCounter()
        poly = enumerate_vertices(coefficient_polytope(P("p1 - p2", names), 4, F(1, 2)), counter)
        assert [len(cols) for cols in poly.factors] == [3, 2, 1, 2, 1, 1]
        assert len(poly.vertices) == 1_536
        assert counter.steps == 1_588
        self.check_tight_rows(poly)


class TestComponentwiseMax:
    def test_single_vertex(self):
        got = componentwise_max([(F(1), F(2))])
        assert got.vertex == (F(1), F(2))

    def test_maximum_found(self):
        got = componentwise_max([(0, 0), (1, 0), (0, 1), (1, 1)])
        assert got.vertex == (1, 1)

    def test_certificate_when_absent(self):
        got = componentwise_max([(0, 0), (1, 0), (0, 1)])
        assert got.vertex is None
        a, b = got.certificate
        assert any(x > y for x, y in zip(a, b))
        assert any(y > x for x, y in zip(a, b))


def _peak_in_fractions(points):
    """The Fraction test the integer keys replaced: is the coordinate max a point?"""
    peak = tuple(map(max, zip(*points)))
    return points.index(peak) if peak in points else None


class TestPeakIndex:
    def test_mixed_denominators(self):
        pts = [(F(1, 3), F(1, 2)), (F(2, 5), F(3, 7)), (F(2, 5), F(1, 2)), (F(-1, 6), 1)]
        assert _peak_index(Vertices(pts).keys) == _peak_in_fractions(pts) == None
        pts[3] = (F(-1, 6), F(1, 2))
        assert _peak_index(Vertices(pts).keys) == _peak_in_fractions(pts) == 2

    def test_ties_and_duplicates_give_the_first(self):
        pts = [(F(1, 2), 0), (F(1, 2), F(1, 4)), (F(2, 4), F(1, 4)), (0, F(1, 4))]
        assert _peak_index(Vertices(pts).keys) == _peak_in_fractions(pts) == 1

    @seed(20261019)
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda d: st.lists(
                st.tuples(*[st.fractions(-2, 2, max_denominator=6)] * d), min_size=1, max_size=10
            )
        ),
        st.data(),
    )
    def test_matches_the_fraction_test(self, points, data):
        # A dominating point is appended half the time, then repeats of
        # points already drawn are inserted anywhere.
        if data.draw(st.booleans()):
            points.append(tuple(map(max, zip(*points))))
        for _ in range(data.draw(st.integers(0, 3))):
            points.insert(
                data.draw(st.integers(0, len(points))),
                data.draw(st.sampled_from(points)),
            )
        assert _peak_index(Vertices(points).keys) == _peak_in_fractions(points)


def _incomparable_pair_quadratic(points):
    """The O(V^2) maximal-set scan that `_incomparable_pair` replaced."""

    def dominates(x, y):
        return all(a >= b for a, b in zip(x, y))

    maximal = [p for p in points if not any(dominates(q, p) and q != p for q in points)]
    for i in range(len(maximal)):
        for j in range(i + 1, len(maximal)):
            if not dominates(maximal[i], maximal[j]) and not dominates(
                maximal[j], maximal[i]
            ):
                return (maximal[i], maximal[j])
    return None


def _incomparable_pair_in_fractions(points):
    """The Fraction pair scan `componentwise_max` ran before the integer keys."""

    def dominates(x, y):
        return all(a >= b for a, b in zip(x, y))

    maxima: list = []
    for p in sorted(set(points), reverse=True):
        if not any(dominates(q, p) for q in maxima):
            maxima.append(p)
    kept = set(maxima)
    maximal = [p for p in points if p in kept]
    for i in range(len(maximal)):
        for j in range(i + 1, len(maximal)):
            if not dominates(maximal[i], maximal[j]) and not dominates(
                maximal[j], maximal[i]
            ):
                return (maximal[i], maximal[j])
    return None


class TestComponentwiseMaxCertificate:
    def test_mixed_denominators_with_duplicates(self):
        pts = [(F(1, 3), F(1, 2)), (F(2, 5), F(3, 7)), (F(1, 3), F(1, 2)), (F(-1, 6), 1)]
        got = componentwise_max(pts)
        assert got.vertex is None
        assert got.certificate == _incomparable_pair_in_fractions(pts)
        assert got.certificate == ((F(1, 3), F(1, 2)), (F(2, 5), F(3, 7)))

    @seed(20261019)
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda d: st.lists(
                st.tuples(*[st.fractions(-2, 2, max_denominator=7)] * d), min_size=1, max_size=12
            )
        ),
        st.data(),
    )
    def test_matches_the_fraction_pair_scan(self, points, data):
        # Mixed denominators, with repeats of points already drawn.
        for _ in range(data.draw(st.integers(0, 3))):
            points.insert(
                data.draw(st.integers(0, len(points))),
                data.draw(st.sampled_from(points)),
            )
        got = componentwise_max(points)
        if got.vertex is None:
            assert got.certificate == _incomparable_pair_in_fractions(points)
            assert all(type(x) is type(y) for x, y in zip(got.certificate[0], points[0]))
        else:
            assert _incomparable_pair_in_fractions(points) is None


def _incomparable_points(points):
    """The points at the indices `_incomparable_pair` returns, or None."""
    pair = _incomparable_pair(points)
    return None if pair is None else (points[pair[0]], points[pair[1]])


class TestIncomparablePair:
    def test_repeated_maximum_is_no_pair(self):
        assert _incomparable_pair([(1, 1), (0, 1), (1, 1)]) is None

    def test_pair_in_input_order(self):
        pts = [(0, 0), (0, 2), (1, 1), (2, 0)]
        assert _incomparable_pair(pts) == (1, 2)
        assert _incomparable_points(pts) == ((0, 2), (1, 1))

    def test_repeated_first_maximum_pairs_with_the_next_value(self):
        # The repeat of the first maximal point is skipped, not paired.
        assert _incomparable_pair([(1, 0), (1, 0), (0, 1)]) == (0, 2)

    @seed(20250613)
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda d: st.lists(
                st.tuples(*[st.fractions(-2, 2, max_denominator=3)] * d), min_size=1, max_size=12
            )
        ),
        st.data(),
    )
    def test_matches_quadratic_scan(self, points, data):
        # Unsorted, with repeats of points already drawn.
        for _ in range(data.draw(st.integers(0, 3))):
            points.insert(
                data.draw(st.integers(0, len(points))),
                data.draw(st.sampled_from(points)),
            )
        assert _incomparable_points(points) == _incomparable_pair_quadratic(points)
        # The indices are each point's first occurrence, as `list.index` gave.
        pair = _incomparable_pair(points)
        assert pair is None or all(points.index(points[i]) == i for i in pair)


class TestConvexPeeling:
    def test_k3_layer_shapes(self):
        layers = convex_peeling(3, 5)
        assert set(layers[0]) == {(5, 0, 0), (0, 5, 0), (0, 0, 5)}
        assert set(layers[1]) == {
            (4, 1, 0), (4, 0, 1), (1, 4, 0), (0, 4, 1), (1, 0, 4), (0, 1, 4),
        }
        assert set(layers[2]) == {
            (3, 2, 0), (3, 0, 2), (2, 3, 0), (0, 3, 2), (2, 0, 3), (0, 2, 3),
        }

    def test_k2_peeling(self):
        layers = convex_peeling(2, 4)
        assert [set(l) for l in layers] == [
            {(4, 0), (0, 4)},
            {(3, 1), (1, 3)},
            {(2, 2)},
        ]

    def test_nprime_zero(self):
        layers = convex_peeling(3, 0)
        assert layers == (((0, 0, 0),),)

    def test_layers_partition_lattice(self):
        layers = convex_peeling(3, 6)
        seen = [m for layer in layers for m in layer]
        assert len(seen) == len(set(seen)) == 28
        # The points left before each layer shrink strictly.
        sizes = [len(seen) - sum(map(len, layers[:i])) for i in range(len(layers))]
        assert sizes == sorted(sizes, reverse=True)
        assert all(a > b for a, b in zip(sizes, sizes[1:]))

    def test_hull_tests_draw_on_the_budget(self):
        with pytest.raises(StepLimitExceeded):
            convex_peeling(3, 5, StepCounter(limit=1))
        # n' = 2: one double description of the six points' polar strips the
        # corners (6 steps), and one of the three midpoints' polar strips
        # them (3 steps).
        counter = StepCounter()
        assert len(convex_peeling(3, 2, counter)) == 2
        assert counter.steps == 9

    @pytest.mark.parametrize("k, top", [(2, 11), (3, 8), (4, 5), (5, 3)])
    def test_matches_a_peeling_on_highs(self, k, top):
        # A remaining point is a hull vertex when no lambda >= 0 with sum 1
        # combines the other remaining points into it; HiGHS decides that
        # feasibility LP.
        optimize = pytest.importorskip("scipy.optimize")

        def highs_peeling(nprime):
            remaining = monomials_of_degree(k, nprime)
            layers = []
            while remaining:
                hull = []
                for i, point in enumerate(remaining):
                    others = remaining[:i] + remaining[i + 1 :]
                    if not others:
                        hull.append(point)
                        continue
                    ref = optimize.linprog(
                        [0] * len(others),
                        A_eq=[list(col) for col in zip(*others)] + [[1] * len(others)],
                        b_eq=list(point) + [1],
                        bounds=[(0, None)] * len(others),
                        method="highs",
                    )
                    assert ref.status in (0, 2)
                    if ref.status == 2:
                        hull.append(point)
                layers.append(set(hull))
                remaining = [m for m in remaining if m not in layers[-1]]
            return layers

        for nprime in range(top + 1):
            assert [set(layer) for layer in convex_peeling(k, nprime)] == highs_peeling(nprime)


class TestUmpuSearch:
    def test_sum_hypothesis_exists(self):
        verdict = umpu_search(P("p1 + p2 - p3"), 3, F(1, 20))
        assert verdict.status == EXISTS
        s = Polynomial.simplex_power(3, 1)
        f = P("p1 + p2 - p3")
        assert verdict.beta.poly == F(3, 20) * f * f * s + F(1, 20) * s**3
        assert verdict.h_star == F(3, 20) * s

    def test_weighted_hypothesis_not_exists(self):
        verdict = umpu_search(P("2*p1 + p2 - p3"), 3, F(1, 20))
        assert verdict.status == NOT_EXISTS
        assert verdict.failing_layer == 0
        a, b = verdict.certificate
        assert any(x > y for x, y in zip(a, b)) and any(y > x for x, y in zip(a, b))

    def test_sphere_n5_exists(self):
        verdict = umpu_search(sphere3(), 5, F(1, 20))
        assert verdict.status == EXISTS
        assert verdict.h_star == F(1, 3) * Polynomial.simplex_power(3, 1)

    def test_sphere_n6_candidate(self):
        verdict = umpu_search(sphere3(), 6, F(1, 20))
        assert verdict.status == CANDIDATE
        expect = parse_polynomial(
            "3/5*p1^2 + 3/5*p2^2 + 3/5*p3^2 + 6/5*p1*p2 + 6/5*p1*p3 + 6/5*p2*p3",
            VARS3,
        )
        assert verdict.h_star == expect

    def test_exists_implies_layer_conditions(self):
        # Sufficient implies necessary: rerun the peeling recursion manually
        # for a case with a componentwise-max vertex and check consistency.
        f = P("p1 + p2 - p3")
        verdict = umpu_search(f, 3, F(1, 20))
        assert verdict.status == EXISTS
        poly = enumerate_vertices(coefficient_polytope(f, 3, F(1, 20)))
        cw = componentwise_max(poly.vertices)
        dims = poly.dim
        peak = cw.vertex
        # Layer recursion maxima must reproduce the peak coordinates.
        cons = _lp_rows(poly)
        for pos in range(dims):
            obj = [F(0)] * dims
            obj[pos] = F(1)
            res = solve_lp(dims, obj, cons)
            assert res.value == peak[pos]

    def test_h_star_nonnegative(self):
        for f, n in [(P("p1 + p2 - p3"), 3), (sphere3(), 5), (sphere3(), 6)]:
            verdict = umpu_search(f, n, F(1, 20))
            if verdict.h_star is not None:
                assert all(c >= 0 for c in verdict.h_star.terms.values())

    def test_exists_max_dominates_pointwise(self):
        # Coefficient dominance implies pointwise dominance over the simplex.
        poly = enumerate_vertices(coefficient_polytope(P("p1 + p2 - p3"), 3, F(1, 20)))
        cw = componentwise_max(poly.vertices)
        h_star = poly.h_polynomial(cw.vertex)
        points = [
            (F(1, 2), F(1, 4), F(1, 4)),
            (F(1, 7), F(2, 7), F(4, 7)),
            (F(1), F(0), F(0)),
        ]
        for v in poly.vertices:
            hv = poly.h_polynomial(v)
            for s in points:
                assert h_star.evaluate(s) >= hv.evaluate(s)

    def test_nprime_zero_matches_principal(self):
        f = P("p1 + p2 - p3")
        verdict = umpu_search(f, 2, F(1, 20))
        assert verdict.status == EXISTS
        res = principal_umpu(f, 2, F(1, 20))
        assert verdict.beta.poly == res.beta.poly

    def test_step_limit(self):
        with pytest.raises(StepLimitExceeded):
            umpu_search(sphere3(), 6, F(1, 20), StepCounter(5))


@pytest.mark.parametrize(
    "text,k,n,alpha,status",
    [
        ("p1 + p2 - p3", 3, 3, F(1, 20), EXISTS),
        ("2*p1 + p2 - p3", 3, 3, F(1, 10), NOT_EXISTS),
        ("p1 + p2 - 2*p3", 3, 4, F(1, 20), CANDIDATE),
        ("p1 + 2*p2 - 3*p3", 3, 4, F(1, 10), NOT_EXISTS),
        ("p1 + p2 - p3 - p4", 4, 3, F(1, 10), EXISTS),
        ("sphere", 3, 4, F(1, 10), EXISTS),
        ("sphere", 3, 5, F(1, 20), EXISTS),
    ],
)
def test_vertex_search_matches_lp_replay(text, k, n, alpha, status):
    f = sphere3() if text == "sphere" else P(text, [f"p{i + 1}" for i in range(k)])
    verdict = umpu_search(f, n, alpha)
    poly = coefficient_polytope(f, n, alpha)
    lp_status, failing_layer, h = _lp_replay(poly)
    assert verdict.status == lp_status == status
    assert verdict.failing_layer == failing_layer
    assert verdict.h_star == (None if h is None else poly.h_polynomial(h))
    if status == NOT_EXISTS:
        a, b = verdict.certificate
        assert any(x > y for x, y in zip(a, b)) and any(y > x for x, y in zip(a, b))


@pytest.mark.parametrize(
    "text, k, n, alpha",
    [("p1 + p2 - p3", 3, 3, F(1, 20)), ("2*p1 + p2 - p3", 3, 3, F(1, 10)),
     ("p1 + p2 - 2*p3", 3, 4, F(1, 20)), ("p1 + p2 - p3 - p4", 4, 3, F(1, 10)),
     ("sphere", 3, 5, F(1, 20))],
)
def test_carried_keys_answer_as_a_plain_copy(text, k, n, alpha, monkeypatch):
    # The stored vertex tuple carries the keys double description sorted
    # on; a plain tuple of the same vertices has them computed, and both
    # give the same answers.
    f = sphere3() if text == "sphere" else P(text, [f"p{i + 1}" for i in range(k)])
    poly = enumerate_vertices(coefficient_polytope(f, n, alpha))
    plain = tuple(tuple(v) for v in poly.vertices)
    assert isinstance(poly.vertices, Vertices)
    assert componentwise_max(poly.vertices) == componentwise_max(plain)
    assert componentwise_max(poly.vertices) == componentwise_max(list(plain))
    keyed = umpu_search(f, n, alpha)
    rebuilt = replace(poly, vertices=Vertices(plain))
    monkeypatch.setattr(umpu, "enumerate_vertices", lambda *args: rebuilt)
    assert umpu_search(f, n, alpha) == keyed


def _umpu_search_by_keys(f, n, alpha):
    """The search `umpu_search` ran before it carried vertex indices.

    The face is a list of key tuples, the pair is found among the layer
    projections as points, and h* and the certificate are mapped back by
    `keys.index` and a projection dict.  Returns (status, h*, failing
    layer, certificate), h* as a vertex.
    """
    poly = enumerate_vertices(coefficient_polytope(f, n, alpha))
    keys = poly.vertices.keys
    top = _peak_index(keys)
    if top is not None:
        return EXISTS, poly.vertices[top], None, None
    position = {J: i for i, J in enumerate(poly.h_index)}
    face = keys
    for layer_no, layer in enumerate(convex_peeling(poly.k, poly.nprime)):
        maxima = {position[J]: max(v[position[J]] for v in face) for J in layer}
        attained = [v for v in face if all(v[pos] == m for pos, m in maxima.items())]
        if not attained:
            layer_pos = sorted(maxima)
            argmax = [next(v for v in face if v[pos] == maxima[pos]) for pos in layer_pos]
            pair = _incomparable_pair_in_fractions(
                [tuple([v[q] for q in layer_pos]) for v in argmax]
            )
            projection = {
                tuple([v[q] for q in layer_pos]): tuple(
                    [poly.vertices[keys.index(v)][q] for q in layer_pos]
                )
                for v in argmax
            }
            certificate = None if pair is None else tuple(map(projection.__getitem__, pair))
            return NOT_EXISTS, None, layer_no, certificate
        face = attained
    return CANDIDATE, poly.vertices[keys.index(face[0])], None, None


def _random_principal_specs():
    """Linear f with random small coefficients: k = 3 at n <= 4 and k = 4 at
    n <= 3, two per (k, n, alpha), drawn from one seeded generator."""
    rng = random.Random(20261019)
    specs = []
    for k, sizes in ((3, (2, 3, 4)), (4, (2, 3))):
        for n in sizes:
            for alpha in (F(1, 20), F(1, 10), F(1, 2)):
                for _ in range(2):
                    coeffs = [0] * k
                    while not any(coeffs):
                        coeffs = [rng.randint(-3, 3) for _ in range(k)]
                    specs.append((coeffs, n, alpha))
    return specs


@pytest.mark.parametrize(
    "coeffs, n, alpha",
    [
        *_random_principal_specs(),
        # The paper's no-UMPU example, at every level.
        *[([2, 1, -1], n, alpha) for n in (3, 4) for alpha in (F(1, 20), F(1, 10), F(1, 2))],
        # Larger polytopes, under a second each: 2,304 to 4,711 vertices at
        # k = 3, n = 5, and 1,088 and 2,535 at k = 4, n = 4.
        ([1, 1, 0], 5, F(1, 20)),
        ([2, -3, 3], 5, F(1, 20)),
        ([2, -2, 2], 5, F(1, 10)),
        ([-3, 3, 0, 1], 4, F(1, 10)),
        ([1, -1, 1, -1], 4, F(1, 20)),
    ],
)
def test_search_by_index_matches_the_key_search(coeffs, n, alpha):
    k = len(coeffs)
    units = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    f = Polynomial(k, {e: F(c) for e, c in zip(units, coeffs) if c})
    if min(coeffs) > 0 or max(coeffs) < 0:
        # The seeded draws hold [-1, -3, -3] and [1, 3, 2]: f has one strict
        # sign on the simplex, its null set is empty, and both refuse it.
        for search in (umpu_search, coefficient_polytope):
            with pytest.raises(ValueError, match="^empty null set: f has one strict sign "):
                search(f, n, alpha)
        return
    verdict = umpu_search(f, n, alpha)
    status, h, failing_layer, certificate = _umpu_search_by_keys(f, n, alpha)
    poly = coefficient_polytope(f, n, alpha)
    assert verdict.status == status
    assert verdict.h_star == (None if h is None else poly.h_polynomial(h))
    assert verdict.beta == (None if h is None else poly.power_polynomial(h))
    assert verdict.failing_layer == failing_layer
    assert verdict.certificate == certificate


def _decomposable_spec(k, n, alpha):
    """A seeded form f on a proper subset of the k cells whose coefficient
    polytope is a product of two or more factors with at most 2,000
    vertices, drawn again until it is.  Returns (f, poly) with the
    vertices attached."""
    rng = random.Random(f"decomposable {k} {n} {alpha}")
    for _ in range(100):
        cells = rng.sample(range(k), rng.randint(2, k - 1))
        degree = rng.choice([d for d in (1, 2) if n - 2 * d >= 1])
        terms = {}
        for e in monomials_of_degree(len(cells), degree):
            if rng.random() < 0.7:
                exps = [0] * k
                for cell, x in zip(cells, e):
                    exps[cell] = x
                terms[tuple(exps)] = F(rng.randint(-3, 3))
        f = Polynomial(k, {e: c for e, c in terms.items() if c})
        if f.is_zero():
            continue
        try:
            poly = enumerate_vertices(coefficient_polytope(f, n, alpha), StepCounter(40_000))
        except (ValueError, StepLimitExceeded):
            continue  # f is refused, or its polytope is too large for the oracle
        if len(poly.factors) > 1 and len(poly.vertices) <= 2_000:
            return f, poly
    raise AssertionError(f"no decomposable spec drawn at k = {k}, n = {n}, alpha = {alpha}")


def _whole_polytope_vertices(p, counter=None):
    """`umpu.enumerate_vertices` as one double description of all the rows."""
    return replace(p, vertices=enumerate_vertices_dd(*p.one_sided(), counter))


def _check_against_one_double_description(f, poly, monkeypatch):
    """The factored vertices and the UMPU verdict equal those of one
    double description of the whole polytope."""
    n, alpha = poly.n, poly.alpha
    whole = enumerate_vertices_dd(*poly.one_sided())
    assert poly.vertices == whole
    assert (poly.vertices.keys, poly.vertices.den) == (whole.keys, whole.den)
    values = [x for v in poly.vertices for x in v]
    assert len(set(map(id, values))) == len(set(values))  # one Fraction per value
    assert sorted(c for cols in poly.factors for c in cols) == list(range(poly.dim))
    verdict = umpu_search(f, n, alpha)
    monkeypatch.setattr(umpu, "enumerate_vertices", _whole_polytope_vertices)
    # Status, h*, beta, the certificate and the failing layer.
    assert verdict == umpu_search(f, n, alpha)


@pytest.mark.parametrize("alpha", [F(1, 20), F(1, 10), F(1, 2), F(3, 4)])
@pytest.mark.parametrize(
    "k, n", [(k, n) for k in (3, 4, 5, 6) for n in (3, 4, 5) if n != 4 or k < 5]
)
def test_factored_vertices_match_one_double_description(k, n, alpha, monkeypatch):
    # f leaves at least one cell out, so the polytope is a product; its
    # vertices, keys and den are those of one double description of the
    # whole polytope, and so is every UMPU answer read off them.  At n = 4
    # and k >= 5 no draw fits the oracle: a linear f gives over 2,000
    # vertices, and a quadratic one leaves n' = 0, one column.
    _check_against_one_double_description(*_decomposable_spec(k, n, alpha), monkeypatch)


@pytest.mark.parametrize("alpha", [F(1, 20), F(1, 10)])
def test_factored_candidate_matches_one_double_description(alpha, monkeypatch):
    # p1 + p2 - 2 p3 over four cells at n = 4: three factors, one per
    # exponent of p4 in h's columns, no componentwise maximum, and every
    # layer condition holds.
    f = P("p1 + p2 - 2*p3", ["p1", "p2", "p3", "p4"])
    poly = enumerate_vertices(coefficient_polytope(f, 4, alpha))
    assert len(poly.factors) == 3
    assert umpu_search(f, 4, alpha).status == CANDIDATE
    _check_against_one_double_description(f, poly, monkeypatch)


@pytest.mark.parametrize(
    "f, n",
    [(sphere3(), 5), (P("p1 + p2 - p3"), 4), (P("p1 - 1/3"), 3), (P("p1 - 1/3"), 5)],
    ids=["sphere", "p1+p2-p3", "p1-1/3-n3", "p1-1/3-n5"],
)
def test_f_on_every_cell_gives_one_factor(f, n):
    # p1 - 1/3 homogenizes to p1 - (p1 + p2 + p3)/3, which holds every cell.
    poly = coefficient_polytope(f, n, F(1, 20))
    assert poly.factors == (tuple(range(poly.dim)),)


def test_product_vertices_are_counted_before_they_are_built():
    # p1 - p2 over 20 cells at n = 3: one 2-column factor with 4 vertices
    # and 18 intervals, 4 * 2^18 = 1,048,576 product vertices, refused at
    # once after the factors' small double descriptions.
    names = [f"p{i}" for i in range(1, 21)]
    counter = StepCounter(1_000_000)
    poly = coefficient_polytope(P("p1 - p2", names), 3, F(1, 20), counter)
    assert [len(cols) for cols in poly.factors] == [2] + [1] * 18
    start = time.perf_counter()
    with pytest.raises(StepLimitExceeded):
        enumerate_vertices(poly, counter)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize(
    "cells, n, alpha, runs, steps",
    [(9, 3, F(1, 20), 2, 525), (4, 4, F(1, 2), 4, 1_588)],
    ids=["9-cells", "4-cells-half"],
)
def test_alike_factors_share_one_double_description(cells, n, alpha, runs, steps, monkeypatch):
    # p1 - p2 over 9 cells at n = 3: the seven one-column factors off p1
    # and p2 have the same six rows, so 2 of the 8 factors run a double
    # description (555 steps when all 8 ran); over 4 cells at n = 4 the
    # three one-column factors are alike, so 4 of 6 run (1,601 steps).
    # The vertices are those of one double description of all the rows.
    names = [f"p{i}" for i in range(1, cells + 1)]
    f = P("p1 - p2", names)
    seen = []

    def spy(a, b, counter=None):
        seen.append((tuple(map(tuple, a)), tuple(b)))
        return enumerate_vertices_dd(a, b, counter)

    monkeypatch.setattr(umpu, "enumerate_vertices_dd", spy)
    counter = StepCounter()
    poly = enumerate_vertices(coefficient_polytope(f, n, alpha), counter)
    assert (len(seen), len(set(seen)), counter.steps) == (runs, runs, steps)
    monkeypatch.undo()
    _check_against_one_double_description(f, poly, monkeypatch)
