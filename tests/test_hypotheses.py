import hashlib
import json
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from powerpoly import (
    build_hypothesis,
    log_odds_to_binomial,
    parse_polynomial,
    polytope_existence,
    sample_null_points,
)
from powerpoly import hypotheses, power, threshold, umpu
from powerpoly.cli import main
from powerpoly.hypotheses import (
    UnsupportedSampling,
    _nth_root,
    independence,
    log_odds,
    rank_lt,
    sphere,
)
from powerpoly.linalg import rank
from powerpoly.polynomial import Polynomial, table_names
from powerpoly.polytope import enumerate_vertices_dd, vertex_keys

F = Fraction


class TestBuilders:
    def test_independence_2x2_single_det(self):
        h = independence(2, 2)
        assert len(h.generators) == 1
        det = parse_polynomial("p11*p22 - p12*p21", table_names(2, 2))
        assert h.generators[0] == det
        sub = h.substituted_generators()[0]
        expect = parse_polynomial(
            "p11 - p11^2 - p11*p12 - p11*p21 - p12*p21", ["p11", "p12", "p21"]
        )
        assert sub == expect

    @pytest.mark.parametrize(
        "p,q,expected", [(2, 2, 1), (2, 3, 3), (3, 3, 9), (3, 4, 18)]
    )
    def test_independence_minor_count(self, p, q, expected):
        h = independence(p, q)
        assert len(h.generators) == expected
        assert all(g.total_degree() == 2 for g in h.generators)

    @pytest.mark.parametrize("p, q", [(p, q) for p in range(2, 5) for q in range(2, 5)])
    def test_independence_is_rank_below_two(self, p, q):
        h, minors = independence(p, q), rank_lt(p, q, 2)
        assert (h.generators, h.names, h.k) == (minors.generators, minors.names, minors.k)
        assert (h.family, h.params) == ("independence", {"p": p, "q": q, "r": 2})

    @pytest.mark.parametrize("p, q", [(1, 3), (3, 1), (1, 1)])
    def test_independence_needs_two_rows_and_columns(self, p, q):
        with pytest.raises(ValueError, match="at least 2 rows and 2 columns"):
            independence(p, q)

    def test_rank_generator_counts(self):
        assert len(rank_lt(3, 3, 3).generators) == 1
        assert len(rank_lt(2, 3, 2).generators) == 3
        assert len(rank_lt(3, 3, 2).generators) == 9

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            rank_lt(2, 3, 3)

    def test_sphere_generator(self):
        h = sphere(4, delta=F(1, 4))
        g = h.generators[0]
        # sum (p_i - 1/4)^2 - 1/16
        names = ["p1", "p2", "p3", "p4"]
        expect = parse_polynomial(
            "p1^2+p2^2+p3^2+p4^2 - 1/2*p1 - 1/2*p2 - 1/2*p3 - 1/2*p4 + 1/4 - 1/16",
            names,
        )
        assert g == expect

    def test_sphere_quadric_equals_its_sum_of_squares(self):
        # The builder writes the expanded quadric directly; it must equal
        # sum (p_i - 1/k)^2 - delta^2 built by polynomial arithmetic, also
        # at delta^2 = 1/k, where the constant term is 0.
        cases = 0
        for k in range(2, 10):
            for dsq in (F(1, 6), F(1, 8), F(1, 4), F(1, k), F(5, 8), F(1, 100), F(2, 9)):
                if dsq >= (1 - F(1, k)) ** 2:
                    continue
                want = Polynomial.constant(k, -dsq)
                for i in range(k):
                    v = Polynomial.variable(k, i) - Polynomial.constant(k, F(1, k))
                    want = want + v * v
                g = sphere(k, delta_sq=dsq).generators[0]
                assert (g, hash(g)) == (want, hash(want)), (k, dsq)
                cases += 1
        assert cases == 51

    def test_sphere_radius_validation(self):
        with pytest.raises(ValueError):
            sphere(4, delta=F(3, 4))
        with pytest.raises(ValueError):
            sphere(3, delta=F(1, 4), delta_sq=F(1, 16))

    def test_symmetry_generators(self):
        h = build_hypothesis({"kind": "symmetry", "params": {"p": 3}})
        assert len(h.generators) == 3
        point = [F(1, 9)] * 9
        assert all(g.evaluate(point) == 0 for g in h.generators)

    def test_motzkin_contains_quarter_point(self):
        h = build_hypothesis({"kind": "motzkin", "params": {}})
        assert h.generators[0].evaluate([F(1, 4)] * 4) == 0

    def test_custom_substituted(self):
        h = build_hypothesis(
            {
                "kind": "custom",
                "params": {
                    "k": 3,
                    "substituted": True,
                    "generators": ["p1 - p2"],
                    "vars": ["p1", "p2"],
                },
            }
        )
        assert h.substituted_generators()[0] == parse_polynomial("p1 - p2", ["p1", "p2"])

    def test_custom_not_substituted(self):
        # The JSON value false, given or left out, reads p3 as a variable.
        spec = {"k": 3, "generators": ["p1 + p2 - p3"]}
        h = build_hypothesis({"kind": "custom", "params": spec})
        spec["substituted"] = False
        assert build_hypothesis({"kind": "custom", "params": spec}) == h
        assert h.substituted_generators()[0] == parse_polynomial("2*p1 + 2*p2 - 1", ["p1", "p2"])


class TestLogOdds:
    def test_equal_odds(self):
        names = ["p1", "p2", "p3"]
        assert log_odds_to_binomial([F(1), F(1)], F(1), 3) == parse_polynomial(
            "p1*p2 - p3^2", names
        )

    def test_odds_ratio_one(self):
        assert log_odds_to_binomial([F(1), F(-1)], F(1), 3) == parse_polynomial(
            "p1 - p2", ["p1", "p2", "p3"]
        )

    def test_denominator_clearing(self):
        assert log_odds_to_binomial([F(1, 2), F(1)], F(1), 3) == parse_polynomial(
            "p1*p2^2 - p3^3", ["p1", "p2", "p3"]
        )

    def test_target_power_tracks_scaling(self):
        # 1/2 log(p1/p3) = log 2 -> p1 = 4 p3 after doubling.
        got = log_odds_to_binomial([F(1, 2), F(0)], F(2), 3)
        assert got == parse_polynomial("p1 - 4*p3", ["p1", "p2", "p3"])

    def test_disjoint_supports_and_primitive(self):
        from math import gcd

        for a, c in [
            ([F(2), F(3)], F(5)),
            ([F(1, 3), F(-2)], F(7, 2)),
            ([F(2), F(-2)], F(9)),
        ]:
            g = log_odds_to_binomial(a, c, 3)
            monos = sorted(g.terms)
            assert len(monos) == 2
            lo, hi = monos
            assert all(x == 0 or y == 0 for x, y in zip(lo, hi))
            divisor = 0
            for x, y in zip(hi, lo):
                divisor = gcd(divisor, abs(x - y))
            assert divisor == 1
            # homogeneous: both sides have the same total degree
            assert sum(lo) == sum(hi)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            log_odds_to_binomial([F(0), F(0)], F(1), 3)

    @pytest.mark.parametrize(
        "root, n",
        [
            (F(10**40 + 1), 2),  # float sqrt is off by more than one here
            (F(3**700, 7**90), 2),  # past float range
            (F(10**30 + 7, 3), 3),
            (F(2**61 - 1), 5),
            (F(0), 4),
            (F(1, 10**50), 7),
        ],
    )
    def test_nth_root_of_perfect_powers_is_exact(self, root, n):
        assert _nth_root(root**n, n) == root

    @pytest.mark.parametrize(
        "value, n",
        [
            (F((10**40 + 1) ** 2 + 1), 2),
            (F((10**40 + 1) ** 2 - 1), 2),
            (F(3**1400, 2), 2),
            (F(3**1401), 2),
            (F((2**61 - 1) ** 5 - 1), 5),
            (F(1, 10**50 + 1), 7),
        ],
    )
    def test_nth_root_of_non_powers_is_none(self, value, n):
        assert _nth_root(value, n) is None

    def test_large_square_target_is_halved(self):
        # (p1 p2 / p3^2)^2 = (10^40 + 1)^2 takes the root: p1*p2 - (10^40 + 1) p3^2.
        got = log_odds_to_binomial([F(2), F(2)], F((10**40 + 1) ** 2), 3)
        assert got.total_degree() == 2
        assert got.coefficient((0, 0, 2)) == -(10**40 + 1)

    def test_float_coefficient_rejected(self):
        with pytest.raises(ValueError) as err:
            build_hypothesis(
                {"kind": "logodds", "params": {"a": [1.4142, 1], "c": "1", "k": 3}}
            )


# One float per entry point of the library that reads a rational.  Each
# used to answer: 0.1 stored as 3602879701896397/36028797018963968.
PLANE = parse_polynomial("p1 + p2 - p3", ["p1", "p2", "p3"])
HALF = power.TestFunction.constant(2, 2, F(1, 2))
FLOAT_ENTRY_POINTS = [
    pytest.param(lambda: sphere(3, delta_sq=0.1), 0.1, id="sphere-delta_sq"),
    pytest.param(lambda: sphere(3, delta=0.1), 0.1, id="sphere-delta"),
    pytest.param(lambda: hypotheses.affine([[1, -1, 0]], [0.25], 3), 0.25, id="affine"),
    pytest.param(lambda: hypotheses.polytope_hypothesis([[1.0, 0]], ["3/10"], 3), 1.0,
                 id="polytope"),
    pytest.param(lambda: log_odds([1, -1], 2.0, 3), 2.0, id="log_odds-c"),
    pytest.param(lambda: threshold.principal_umpu(PLANE, 2, 0.05), 0.05, id="principal_umpu"),
    pytest.param(lambda: threshold.semialgebraic_umpu(PLANE, 2, 0.05), 0.05,
                 id="semialgebraic_umpu"),
    pytest.param(lambda: umpu.umpu_search(PLANE, 3, 0.05), 0.05, id="umpu_search"),
    pytest.param(lambda: umpu.coefficient_polytope(PLANE, 3, 0.05), 0.05,
                 id="coefficient_polytope"),
    pytest.param(lambda: power.exact_power(HALF, [0.25, "3/4"]), 0.25, id="exact_power"),
    pytest.param(lambda: power.max_statistic_test(4, 0.1), 0.1, id="max_statistic_test"),
    pytest.param(lambda: power.TestFunction(2, 2, {(2, 0): 0.1, (1, 1): "1/2"}), 0.1,
                 id="TestFunction"),
    pytest.param(lambda: power.TestFunction.constant(2, 2, 0.1), 0.1,
                 id="TestFunction.constant"),
    pytest.param(lambda: hypotheses.polytope_existence([[-1, 0], [0, -1]], [-0.3, -0.3], 3),
                 -0.3, id="polytope_existence"),
    pytest.param(lambda: log_odds_to_binomial([0.5, 1], 1, 3), 0.5, id="log_odds_to_binomial-a"),
    pytest.param(lambda: log_odds_to_binomial([1, -1], 2.0, 3), 2.0,
                 id="log_odds_to_binomial-c"),
]


@pytest.mark.parametrize("call, value", FLOAT_ENTRY_POINTS)
def test_floats_are_refused_at_every_entry_point(call, value):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == f"expected an exact rational (p/q string), got {value!r}"


def test_float_log_odds_coefficient_names_the_irrational_case():
    with pytest.raises(ValueError) as err:
        log_odds([0.5, 1], 1, 3)
    assert str(err.value) == (
        "expected an exact rational (p/q string), got 0.5; "
        "irrational log-odds coefficients admit no non-trivial unbiased test"
    )


class TestPolytopeExistence:
    def square(self, t):
        return ([[-1, 0], [0, -1]], [-t, -t])

    def test_square_large_t_exists(self):
        a, b = self.square(F(3, 4))
        verdict = polytope_existence(a, b, 3)
        assert verdict.exists
        names = ["p1", "p2"]
        e = parse_polynomial("p1 - 3/4", names) * parse_polynomial("p2 - 3/4", names)
        assert verdict.witness == -1 * e

    def test_square_small_t_fails_at_corner(self):
        a, b = self.square(F(1, 4))
        verdict = polytope_existence(a, b, 3)
        assert not verdict.exists
        assert verdict.witness_point == (F(1, 4), F(1, 4))
        assert verdict.failing_pair == (0, 1)

    def test_ordering_hypothesis_fails_at_barycenter(self):
        # p1 <= p2 <= p3 over the projected 2-simplex.
        verdict = polytope_existence([[-1, 1], [-1, -2]], [0, -1], 3)
        assert not verdict.exists
        assert verdict.witness_point == (F(1, 3), F(1, 3))

    def test_row_scaling_invariance(self):
        for t, expect in [(F(3, 4), True), (F(1, 4), False)]:
            a, b = self.square(t)
            scaled_a = [[F(7) * v for v in a[0]], [F(2, 3) * v for v in a[1]]]
            scaled_b = [F(7) * b[0], F(2, 3) * b[1]]
            assert polytope_existence(scaled_a, scaled_b, 3).exists is expect

    def test_empty_hypothesis_rejected(self):
        with pytest.raises(ValueError, match="^empty polytope hypothesis: P0 has no point$"):
            polytope_existence([[1, 0]], [2], 3)  # p1 >= 2 impossible

    def test_flat_hypothesis_rejected(self):
        # p1 >= 1/2 and p1 <= 1/2: a segment, not full-dimensional.
        with pytest.raises(
            ValueError, match="^polytope hypothesis is not full-dimensional in the simplex$"
        ):
            polytope_existence([[1, 0], [-1, 0]], [F(1, 2), F(-1, 2)], 3)

    def test_redundant_row_rejected(self):
        a = [[-1, 0], [0, -1], [-1, -1]]
        b = [F(-3, 4), F(-3, 4), F(-7, 4)]  # third row implied by the first two
        with pytest.raises(ValueError):
            polytope_existence(a, b, 3)

    def test_facet_outside_simplex_rejected(self):
        with pytest.raises(ValueError):
            polytope_existence([[-1, 0], [0, -1]], [-2, -2], 3)

    @pytest.mark.parametrize(
        "a, b, k",
        [
            ([[0, 0]], [0], 3),  # 0 >= 0 holds on the whole simplex
            ([[0], [1]], [0, F(1, 4)], 2),  # a zero row beside a facet
        ],
    )
    def test_trivially_true_zero_row_is_redundant(self, a, b, k, tmp_path):
        # P0 is full-dimensional; the zero row's face is all of P0.
        with pytest.raises(ValueError, match="^halfspace row 0 is redundant"):
            polytope_existence(a, b, k)
        path = tmp_path / "zero_row.json"
        spec = {"A": [[str(v) for v in row] for row in a], "b": [str(v) for v in b], "k": k}
        path.write_text(json.dumps({"kind": "polytope", "params": spec}))
        assert main(["polytope-exists", "--hypothesis", str(path)]) == 1

    @pytest.mark.parametrize(
        "a, b, row",
        [
            ([[1, 0], [0, 1], [2, 0]], [F(1, 4), F(1, 4), F(1, 2)], 0),  # duplicate of row 2
            ([[0, 1], [1, 0], [3, 0]], [F(1, 4), F(1, 4), F(3, 4)], 1),  # duplicate of row 2
            ([[1, 1], [1, 0], [0, 1]], [F(1, 2), F(1, 4), F(1, 4)], 0),  # tangent at a corner
            ([[1, 0], [0, 1], [1, 1]], [F(1, 4), F(1, 4), -1], 2),  # far outside
            ([[1, 0], [0, 0], [0, 1]], [F(1, 4), -1, F(1, 4)], 1),  # zero row, tight nowhere
            ([[1, 0], [0, 1], [0, 0]], [F(1, 4), F(1, 4), 0], 2),  # zero row, tight everywhere
        ],
    )
    def test_redundant_row_is_named(self, a, b, row):
        # P0 = {p1 >= 1/4, p2 >= 1/4} with one redundant row; the first
        # redundant row is named.
        message = f"^halfspace row {row} is redundant: it does not cut P0$"
        with pytest.raises(ValueError, match=message):
            polytope_existence(a, b, 3)

    def test_no_lp_answers_either_verdict(self, monkeypatch):
        # The verdict and the witness point both read off P0's vertex list.
        def refused(*args):
            raise AssertionError("no LP may run")

        monkeypatch.setattr("powerpoly.linprog.solve_lp", refused)
        monkeypatch.setattr("powerpoly.polytope.solve_lp", refused)
        for t, exists in [(F(3, 4), True), (F(1, 4), False)]:
            a, b = self.square(t)
            assert polytope_existence(a, b, 3).exists is exists

    def test_centroid_witness_on_an_edge_face(self):
        # H_0 and H_1 meet P0 in the edge from (0, 1/2, 1/4) to
        # (1/2, 0, 1/4); both ends lie on a simplex facet, so the centroid
        # of the face is the deepest candidate.
        verdict = polytope_existence([[1, 1, 0], [0, 0, 1]], ["1/2", "1/4"], 4)
        assert verdict.failing_pair == (0, 1)
        assert verdict.witness_point == (F(1, 4), F(1, 4), F(1, 4))

    def test_verdicts_match_highs(self):
        # The pair criterion in floats: max t with a_i.x = b_i, a_j.x = b_j,
        # A x >= b, x_l >= t and sum(x) <= 1 - t; the pair fails when t > 0.
        optimize = pytest.importorskip("scipy.optimize")
        rng = random.Random(20261018)
        checked = 0
        for case in range(160):
            d = rng.randint(1, 4)
            a = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(rng.randint(1, 5))]
            a = [row if any(row) else [1] + row[1:] for row in a]
            if case % 2:
                raw = [rng.randint(1, 6) for _ in range(d + 1)]
                x = [F(v, sum(raw)) for v in raw[:d]]
                b = [sum(r * xi for r, xi in zip(row, x)) - F(rng.randint(0, 3), 8) for row in a]
            else:
                b = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in a]
            try:
                verdict = polytope_existence(a, b, d + 1)
            except ValueError:
                continue
            upper = [[-float(v) for v in row] + [0] for row in a]
            upper += [[-float(i == l) for i in range(d)] + [1] for l in range(d)]
            upper.append([1] * (d + 1))
            bounds = [-float(v) for v in b] + [0] * d + [1]
            expected = None
            for i in range(len(a)):
                for j in range(i + 1, len(a)):
                    ref = optimize.linprog(
                        [0] * d + [-1],
                        A_ub=upper,
                        b_ub=bounds,
                        A_eq=[[float(v) for v in a[i]] + [0], [float(v) for v in a[j]] + [0]],
                        b_eq=[float(b[i]), float(b[j])],
                        bounds=[(None, None)] * (d + 1),
                        method="highs",
                    )
                    assert ref.status in (0, 2)
                    if expected is None and ref.status == 0 and -ref.fun > 1e-9:
                        expected, best = (i, j), -ref.fun
            assert verdict.exists is (expected is None), (a, b)
            assert verdict.failing_pair == expected, (a, b)
            if expected is not None:
                # The witness lies on H_i and H_j, in P0, and strictly inside
                # the simplex, no deeper than the face allows and at least as
                # deep as every vertex of the face.
                x = verdict.witness_point
                i, j = expected
                slack = [sum(r * xi for r, xi in zip(row, x)) - bi for row, bi in zip(a, b)]
                assert slack[i] == slack[j] == 0, (a, b)
                assert min(slack) >= 0, (a, b)
                assert min(x) > 0 and sum(x) < 1, (a, b)
                depth = min(*x, 1 - sum(x))
                assert float(depth) <= best + 1e-9, (a, b)
                rows, rhs = hypotheses._polytope_rows(a, b, d)
                for v in enumerate_vertices_dd(rows, rhs):
                    if all(sum(r * vi for r, vi in zip(a[h], v)) == b[h] for h in (i, j)):
                        assert depth >= min(*v, 1 - sum(v)), (a, b)
            checked += 1
        assert checked >= 40


def affine_rank_verdict(a, b, k):
    """polytope_existence's outcome by the affine-rank rule, without the witness point.

    Faces are vertex sets found by exact dot products, and a row defines
    a facet when its face spans a (d-1)-flat and no other row has that
    face.  Returns the error message, the failing pair, or None when a
    test exists.
    """
    d = k - 1
    rows, rhs = hypotheses._polytope_rows(a, b, d)
    m = len(a)
    vertices = enumerate_vertices_dd(rows, rhs)
    if not vertices:
        return "empty polytope hypothesis: P0 has no point"

    def affine_rank(pts):  # -1 for no point
        return rank([[x - y for x, y in zip(p, pts[0])] for p in pts[1:]]) if pts else -1

    if affine_rank(vertices) < d:
        return "polytope hypothesis is not full-dimensional in the simplex"
    faces = [
        frozenset(n for n, v in enumerate(vertices) if sum(x * y for x, y in zip(row, v)) == r)
        for row, r in zip(rows, rhs)
    ]
    for i in range(m):
        if affine_rank([vertices[n] for n in sorted(faces[i])]) != d - 1 or faces.count(faces[i]) > 1:
            return f"halfspace row {i} is redundant: it does not cut P0"
    for i, j in combinations(range(m), 2):
        common = faces[i] & faces[j]
        if common and all(common - face for face in faces[m:]):
            return (i, j)
    return None


def draw_polytope_hypothesis(rng, family):
    """Rows A and bounds b of A pi >= b over the projected simplex, k = d + 1.

    "interior": rows through or just below an interior point; "bounds":
    random bounds; "multiple": either of those plus a positive multiple
    of row 0; "zero": either of those with a zero row, b in {-1, 0, 1},
    put in at a random place.
    """
    d = rng.randint(1, 3)
    a = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(rng.randint(1, 4))]
    a = [row if any(row) else [1] + row[1:] for row in a]
    if family in ("multiple", "zero"):
        base = rng.choice(["interior", "bounds"])
    else:
        base = family
    if base == "interior":
        raw = [rng.randint(1, 6) for _ in range(d + 1)]
        x = [F(v, sum(raw)) for v in raw[:d]]
        b = [sum(r * xi for r, xi in zip(row, x)) - F(rng.choice([0, 0, 1, 2]), 8) for row in a]
    else:
        b = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in a]
    if family == "multiple":
        scale = F(rng.choice([1, 2, 3]), rng.choice([1, 2]))
        a.append([scale * v for v in a[0]])
        b.append(scale * b[0])
    elif family == "zero":
        at = rng.randint(0, len(a))
        a.insert(at, [0] * d)
        b.insert(at, F(rng.choice([-1, 0, 1])))
    return a, b, d + 1


def test_face_masks_agree_with_the_affine_rank_rule():
    # The mask rule counts a face as strictly inside another proper face
    # only; a zero row with b = 0 has the face P0, which holds every face.
    rng = random.Random(20261019)
    outcomes = Counter()
    for family in ("interior", "bounds", "multiple", "zero"):
        for _ in range(300):
            a, b, k = draw_polytope_hypothesis(rng, family)
            expected = affine_rank_verdict(a, b, k)
            try:
                verdict = polytope_existence(a, b, k)
            except ValueError as exc:
                got = str(exc)
            else:
                assert verdict.exists is (verdict.failing_pair is None)
                got = verdict.failing_pair
            assert got == expected, (a, b, k)
            outcomes[expected.split()[0] if isinstance(expected, str) else type(expected)] += 1
    assert all(outcomes[key] >= 50 for key in ("empty", "polytope", "halfspace", tuple, type(None)))


class TestSampling:
    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "independence", "params": {"p": 2, "q": 2}},
            {"kind": "independence", "params": {"p": 3, "q": 3}},
            {"kind": "rank_lt", "params": {"p": 3, "q": 3, "r": 3}},
            {"kind": "symmetry", "params": {"p": 2}},
            {"kind": "symmetry", "params": {"p": 3}},
            {"kind": "sphere", "params": {"k": 3, "delta_sq": "1/6"}},
            {"kind": "sphere", "params": {"k": 4, "delta_sq": "1/4"}},
            {"kind": "affine", "params": {"C": [["1", "-1", "0"]], "d": ["0"], "k": 3}},
            {"kind": "logodds", "params": {"a": ["1", "1"], "c": "1", "k": 3}},
            {"kind": "logodds", "params": {"a": ["1/2", "1"], "c": "4", "k": 3}},
            # With the case above, the log-odds hypotheses of the threshold
            # pool, and one of its polytope hypotheses.
            {"kind": "logodds", "params": {"a": ["1", "2"], "c": "3", "k": 3}},
            {"kind": "logodds", "params": {"a": ["1", "-1"], "c": "2", "k": 3}},
            {"kind": "logodds", "params": {"a": ["2", "1"], "c": "1/2", "k": 3}},
            {"kind": "logodds", "params": {"a": ["1", "-2", "1"], "c": "2", "k": 4}},
            {"kind": "logodds", "params": {"a": ["1", "1", "1"], "c": "3", "k": 4}},
            {"kind": "polytope", "params": {"A": [[-1, 1], [-1, -2]], "b": [0, -1], "k": 3}},
        ],
    )
    def test_points_annihilate_generators_exactly(self, spec):
        h = build_hypothesis(spec)
        points = sample_null_points(h, 20, seed=11)
        assert len(points) == 20
        for pt in points:
            assert sum(pt) == 1
            assert all(c >= 0 for c in pt)
            for g in h.generators:
                assert g.evaluate(pt) == 0

    def test_polytope_sampling_respects_halfspaces(self):
        h = build_hypothesis(
            {
                "kind": "polytope",
                "params": {"A": [["-1", "0"], ["0", "-1"]], "b": ["-3/4", "-3/4"], "k": 3},
            }
        )
        for pt in sample_null_points(h, 10, seed=2):
            assert sum(pt) == 1 and all(c >= 0 for c in pt)
            for row, bound in zip(h.polytope_a, h.polytope_b):
                assert sum(r * c for r, c in zip(row, pt[:-1])) >= bound

    @pytest.mark.parametrize(
        "c_rows, d",
        [
            ([["1", "0", "0"]], ["0"]),  # the slice p1 = 0 lies on the boundary
            ([["1", "1", "1"]], ["2"]),  # contradicts sum(p) = 1
            ([["1", "0", "0"], ["1", "0", "0"]], ["1/4", "1/2"]),
        ],
    )
    def test_affine_without_interior_point_is_refused(self, c_rows, d):
        h = build_hypothesis({"kind": "affine", "params": {"C": c_rows, "d": d, "k": 3}})
        with pytest.raises(
            ValueError, match="^affine hypothesis has no relative-interior simplex point$"
        ):
            sample_null_points(h, 3, seed=0)

    @pytest.mark.parametrize(
        "c_rows, d, k",
        [
            ([["1", "-1", "0", "0"], ["0", "0", "1", "-2"]], ["0", "0"], 4),
            ([["2", "1", "0", "-1", "0"]], ["1/3"], 5),
            ([["1", "-1"]], ["0"], 2),  # the slice is the single point (1/2, 1/2)
        ],
    )
    def test_affine_points_lie_in_the_open_simplex(self, c_rows, d, k):
        h = build_hypothesis({"kind": "affine", "params": {"C": c_rows, "d": d, "k": k}})
        points = sample_null_points(h, 15, seed=3)
        assert len(points) == 15
        for pt in points:
            assert sum(pt) == 1 and all(c > 0 for c in pt)
            for row, rhs in zip(h.params["C"], h.params["d"]):
                assert sum(r * c for r, c in zip(row, pt)) == rhs
        if k == 2:
            assert set(points) == {(F(1, 2), F(1, 2))}

    def test_deterministic_given_seed(self):
        h = build_hypothesis({"kind": "independence", "params": {"p": 2, "q": 2}})
        assert sample_null_points(h, 5, seed=4) == sample_null_points(h, 5, seed=4)
        assert sample_null_points(h, 5, seed=4) != sample_null_points(h, 5, seed=5)

    def test_unsupported_family(self):
        h = build_hypothesis({"kind": "motzkin", "params": {}})
        with pytest.raises(UnsupportedSampling):
            sample_null_points(h, 3, seed=0)

    def test_logodds_common_factor_needs_rational_root(self):
        # c = 2 has no rational square root, so p1^2 p2^2 - 2 p3^4 keeps its
        # exponents' common factor 2 and no rational null point is built.
        with pytest.raises(
            UnsupportedSampling,
            match="log-odds binomial exponents share a factor whose root of c is irrational",
        ):
            sample_null_points(log_odds([2, 2], 2, 3), 3, 0)
        # c = 4 has one: the factor is divided out, leaving p1 p2 - 2 p3^2.
        h = log_odds([2, 2], 4, 3)
        points = sample_null_points(h, 3, 0)
        assert len(points) == 3
        assert all(h.generators[0].evaluate(pt) == 0 for pt in points)

    def test_solve_unimodular_solves_exactly_the_primitive_vectors(self):
        # Lengths 1 to 7, entries in -9..9 with zeros and negatives: e.x = 1
        # when gcd(e) = 1, and a refusal otherwise (all zeros included).
        rng = random.Random(20261021)
        outcomes = Counter()
        for _ in range(3000):
            e = [rng.choice([0, rng.randint(-9, 9)]) for _ in range(rng.randint(1, 7))]
            if math.gcd(*e) == 1:
                x = hypotheses._solve_unimodular(e)
                assert len(x) == len(e) and sum(a * b for a, b in zip(e, x)) == 1, e
            else:
                with pytest.raises(ValueError, match="^exponent vector is not primitive$"):
                    hypotheses._solve_unimodular(e)
            outcomes[math.gcd(*e) == 1, 0 in e, min(e) < 0] += 1
        assert len(outcomes) == 8

    def test_k2_sphere_gives_both_points(self):
        h = build_hypothesis({"kind": "sphere", "params": {"k": 2, "delta_sq": "1/8"}})
        assert sample_null_points(h, 1, seed=0) == [(F(1, 4), F(3, 4))]
        assert sample_null_points(h, 2, seed=5) == [(F(1, 4), F(3, 4)), (F(3, 4), F(1, 4))]
        with pytest.raises(UnsupportedSampling, match="has only 2 simplex points"):
            sample_null_points(h, 3, seed=0)

    def test_sphere_without_rational_points_is_refused(self):
        # k=3, radius 1/6 : u1^2 + u1 u2 + u2^2 = 1/72 has no rational
        # solutions (the prime 2 appears to an odd power), so the correct
        # behaviour is a clear refusal rather than an inexact point.
        h = build_hypothesis({"kind": "sphere", "params": {"k": 3, "delta": "1/6"}})
        with pytest.raises(UnsupportedSampling):
            sample_null_points(h, 3, seed=0)

    @pytest.mark.parametrize(
        "k, dsq",
        [(7, F(1, 3))] + [(k, dsq) for k in (7, 8, 9) for dsq in (F(1, 10), F(1, 12), F(1, 20))],
        ids=str,
    )
    def test_spheres_beyond_k6_find_their_rational_points(self, k, dsq):
        # A zero-sum point of a k <= 6 sphere, padded with zeros, lies on
        # the same sphere for every larger k.
        h = sphere(k, delta_sq=dsq)
        points = sample_null_points(h, 10, 7)
        assert len(set(points)) == 10
        for pt in points:
            assert h.generators[0].evaluate(pt) == 0
            assert min(pt) >= 0 and sum(pt) == 1

    @pytest.mark.parametrize("k", [7, 8, 9])
    def test_base_point_search_covers_the_six_coordinate_box(self, k):
        for dsq in (F(num, den) for den in range(1, 40) for num in range(1, 6)):
            if hypotheses._sphere_base_point(6, dsq) is not None:
                u = hypotheses._sphere_base_point(k, dsq)
                assert u is not None and sum(u) == 0 and sum(x * x for x in u) == dsq

    @pytest.mark.parametrize(
        "k, dsq", [(7, F(1, 4)), (8, F(1, 4)), (9, F(1, 4)), (8, F(1, 6)), (9, F(1, 6))], ids=str
    )
    def test_wide_spheres_beyond_k6_find_their_rational_points(self, k, dsq):
        # Only a small part of these spheres lies inside the simplex; the
        # aimed lines still reach it.
        h = sphere(k, delta_sq=dsq)
        points = sample_null_points(h, 10, 7)
        assert len(set(points)) == 10
        for pt in points:
            assert h.generators[0].evaluate(pt) == 0
            assert min(pt) >= 0 and sum(pt) == 1
        assert sample_null_points(h, 10, 7) == points


def _sphere_aimed_search_oracle(k, dsq, count, seed):
    """The aimed search of `_sample_sphere` with every candidate built as
    Fractions: the float target t and the direction e are computed as the
    sampler computes them, and the second intersection of u0 + s e with
    the sphere is 1/k + u0 - 2 (u0.e) / (e.e) e."""
    u0 = hypotheses._sphere_base_point(k, dsq)
    if u0 is None:
        raise UnsupportedSampling(
            f"found no rational point on the radius^2 = {dsq} sphere; "
            "this radius may admit none"
        )
    base = seed * 7919 + 1
    c, radius = 1 / k, math.sqrt(float(dsq))
    out, seen = [], set()
    for t in range(200 * count + 200):
        nums, den = hypotheses._halton_ints(base + t, k - 1)
        cuts = sorted(float(F(x, den)) for x in nums)
        spacings = [b - a for a, b in zip([0.0, *cuts], [*cuts, 1.0])]
        v = [x - c for x in spacings]
        norm = 0.0
        for x in v:
            norm += x * x
        if not norm:
            continue
        target = [x * (radius / math.sqrt(norm)) for x in v]
        if min(target) < -c:
            continue
        e = [round(64 * (a - float(b))) for a, b in zip(target[:-1], u0)]
        e.append(-sum(e))
        ee = sum(x * x for x in e)
        if ee == 0:
            continue
        ue = sum(a * b for a, b in zip(u0, e))
        pi = tuple(F(1, k) + a - 2 * ue / ee * b for a, b in zip(u0, e))
        if all(x >= 0 for x in pi) and pi not in seen:
            seen.add(pi)
            out.append(pi)
            if len(out) == count:
                return out
    raise UnsupportedSampling(
        f"exhausted the search budget with {len(out)} of {count} simplex "
        f"points on the radius^2 = {dsq} sphere"
    )


def _outcome(sample, *args):
    try:
        return sample(*args)
    except UnsupportedSampling as exc:
        return str(exc)


# k = 2 never reaches the line search (test_k2_sphere_gives_both_points).
# The oracle's cost grows fast with k, so count 50 stops at k = 6.  Near
# the vertices, at k = 5 and radius^2 5/8, the search runs out of budget.
_SPHERE_CASES = [
    pytest.param(k, dsq, count, seed, id=f"k{k}-{dsq}-count{count}-seed{seed}")
    for k in range(3, 9)
    for dsq in (F(1, 6), F(1, 8), F(1, 4))
    if dsq < (1 - F(1, k)) ** 2
    for count, seeds in ((10, (0, 3, 5)), (50, (0, 7) if k <= 5 else (7,) if k == 6 else ()))
    for seed in seeds
] + [pytest.param(5, F(5, 8), 10, 7, id="k5-5/8-count10-seed7")]


@pytest.mark.parametrize("k, dsq, count, seed", _SPHERE_CASES)
def test_sphere_sampling_matches_the_fraction_aimed_search(k, dsq, count, seed):
    h = sphere(k, delta_sq=dsq)
    expected = _outcome(_sphere_aimed_search_oracle, k, dsq, count, seed)
    assert _outcome(sample_null_points, h, count, seed) == expected


def test_sphere_oracle_cases_cover_both_refusals():
    # The cases above assert equality with the oracle, so the sampler's own
    # outcomes show which refusals they reach.
    outcomes = [
        _outcome(sample_null_points, sphere(k, delta_sq=dsq), count, seed)
        for k, dsq, count, seed in (case.values for case in _SPHERE_CASES)
    ]
    refusals = [o for o in outcomes if isinstance(o, str)]
    assert any(o.startswith("found no rational point") for o in refusals)
    assert any(o.startswith("exhausted the search budget") for o in refusals)
    assert len(refusals) < len(outcomes)


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "independence", "params": {"p": 2, "q": 2}},
        {"kind": "independence", "params": {"p": 2, "q": 4}},
        {"kind": "independence", "params": {"p": 3, "q": 4}},
        {"kind": "rank_lt", "params": {"p": 3, "q": 3, "r": 3}},
        {"kind": "rank_lt", "params": {"p": 4, "q": 4, "r": 3}},
        {"kind": "rank_lt", "params": {"p": 4, "q": 4, "r": 4}},
        # More than 20 Halton coordinates, each on its own prime base.
        {"kind": "rank_lt", "params": {"p": 5, "q": 5, "r": 5}},
        {"kind": "rank_lt", "params": {"p": 6, "q": 6, "r": 6}},
    ],
    ids=lambda spec: "{kind}-{p}x{q}".format(kind=spec["kind"], **spec["params"]),
)
def test_rank_tables_are_positive_with_rank_exactly_r_minus_one(spec):
    # At a rank below r - 1 every r x r minor's gradient vanishes, and the
    # gradient evidence of `powerpoly threshold` would show nothing.
    h = build_hypothesis(spec)
    p, q, r = h.params["p"], h.params["q"], h.params["r"]
    for seed in (0, 7):
        for pt in sample_null_points(h, 10, seed):
            assert sum(pt) == 1 and all(c > 0 for c in pt)
            assert rank([pt[i * q : (i + 1) * q] for i in range(p)]) == r - 1


@pytest.mark.parametrize("p", [2, 3, 4])
def test_symmetry_points_are_positive_symmetric_tables(p):
    h = build_hypothesis({"kind": "symmetry", "params": {"p": p}})
    points = sample_null_points(h, 10, seed=7)
    assert len(set(points)) == 10
    for pt in points:
        assert sum(pt) == 1 and all(c > 0 for c in pt)
        assert all(pt[i * p + j] == pt[j * p + i] for i in range(p) for j in range(p))


def _convex_combinations_oracle(vertices, count, base):
    """The Fraction loop the linear samplers mixed vertices with before."""
    out = []
    for t in range(count):
        nums, den = hypotheses._halton_ints(base + t, len(vertices))
        raw = [F(x, den) for x in nums]
        total = sum(raw, F(0))
        point = [F(0)] * len(vertices[0])
        for w, v in zip((x / total for x in raw), vertices):
            for i, c in enumerate(v):
                point[i] += w * c
        out.append(tuple(point))
    return out


def test_vertex_mixtures_match_the_fraction_loop():
    rng = random.Random(5)
    for _ in range(40):
        dim, nverts = rng.randint(1, 5), rng.randint(1, 25)
        vertices = [
            tuple(F(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(dim))
            for _ in range(nverts)
        ]
        count, base = rng.randint(1, 6), rng.randint(1, 10**5)
        expected = _convex_combinations_oracle(vertices, count, base)
        assert hypotheses._vertex_mixtures(*vertex_keys(vertices), count, base) == expected


def _sample_linear_on_ambient_rows(h, count, seed):
    """The linear sampler before it read `_polytope_rows`: one double
    description on ambient rows over all k coordinates, the simplex as
    -x <= 0 with sum(x) = 1 as two rows."""
    k = h.k
    unit = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    rows = [[-v for v in e] for e in unit] + [[1] * k, [-1] * k]
    rhs = [0] * k + [1, -1]
    for g in h.generators:
        c = [g.terms.get(e, 0) for e in unit]
        c0 = g.terms.get((0,) * k, 0)
        rows += [c, [-v for v in c]]
        rhs += [-c0, c0]
    for a, b in zip(h.polytope_a, h.polytope_b):
        rows.append([-v for v in a] + [0])
        rhs.append(-b)
    vertices = enumerate_vertices_dd(rows, rhs)
    if not all(any(v[i] for v in vertices) for i in range(k)):
        raise ValueError(f"{h.family} hypothesis has no relative-interior simplex point")
    return hypotheses._vertex_mixtures(*vertex_keys(vertices), count, seed * 7919 + 1)


def _points_or_refusal(sample, *args):
    try:
        return sample(*args)
    except ValueError as exc:
        return str(exc)


_LINEAR_SPECS = [
    {"kind": "symmetry", "params": {"p": 2}},
    {"kind": "symmetry", "params": {"p": 3}},
    {"kind": "symmetry", "params": {"p": 4}},
    {"kind": "affine", "params": {"C": [[1, -1, 0]], "d": [0], "k": 3}},
    {"kind": "affine", "params": {"C": [[1, -1, 0, 0], [0, 0, 1, -2]], "d": [0, 0], "k": 4}},
    {"kind": "affine", "params": {"C": [[2, 1, 0, -1, 0]], "d": ["1/3"], "k": 5}},
    {"kind": "affine", "params": {"C": [[1, -1]], "d": [0], "k": 2}},
    # sum(p) = 1 itself: the substituted rows are 0 >= 0.
    {"kind": "affine", "params": {"C": [[1, 1, 1]], "d": [1], "k": 3}},
    {"kind": "polytope", "params": {"A": [[-1, 1], [-1, -2]], "b": [0, -1], "k": 3}},
    {"kind": "polytope", "params": {"A": [[-1, 0], [0, -1]], "b": ["-3/4", "-3/4"], "k": 3}},
    {"kind": "polytope", "params": {"A": [[1, 0, 0], [0, 1, -1]], "b": ["1/5", 0], "k": 4}},
    # Refused: boundary slices, a contradiction of sum(p) = 1, an empty
    # set, P0 in a simplex facet, and an empty polytope.
    {"kind": "affine", "params": {"C": [[1, 0, 0]], "d": [0], "k": 3}},
    {"kind": "affine", "params": {"C": [[1, 1, 1]], "d": [2], "k": 3}},
    {"kind": "affine", "params": {"C": [[1, 0, 0], [1, 0, 0]], "d": ["1/4", "1/2"], "k": 3}},
    {"kind": "affine", "params": {"C": [[1, 1, 0, 0]], "d": [1], "k": 4}},
    {"kind": "polytope", "params": {"A": [[-1, 0]], "b": [0], "k": 3}},
    {"kind": "polytope", "params": {"A": [[1, 1]], "b": [2], "k": 3}},
]


@pytest.mark.parametrize("seed", [0, 1, 7, 11])
@pytest.mark.parametrize("spec", _LINEAR_SPECS, ids=lambda spec: json.dumps(spec["params"]))
def test_linear_sampling_matches_the_ambient_rows(spec, seed):
    h = build_hypothesis(spec)
    expected = _points_or_refusal(_sample_linear_on_ambient_rows, h, 10, seed)
    assert _points_or_refusal(sample_null_points, h, 10, seed) == expected


def test_linear_sampling_points_are_pinned():
    # The points and refusals of every linear spec at four seeds, as the
    # sampler gave them when it rebuilt the vertices' keys from Fractions;
    # it now reads the keys double description carries.
    outcomes = []
    for spec in _LINEAR_SPECS:
        h = build_hypothesis(spec)
        for seed in (0, 1, 7, 11):
            got = _points_or_refusal(sample_null_points, h, 10, seed)
            outcomes.append(got if isinstance(got, str) else [list(map(str, p)) for p in got])
    digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
    assert digest == "5e50e53559814d6ebef079050f6503f87c12b175a1eac9230ebda6591068d879"


def test_linear_oracle_specs_cover_the_refusals():
    outcomes = [
        _points_or_refusal(sample_null_points, build_hypothesis(spec), 3, 0)
        for spec in _LINEAR_SPECS
    ]
    assert sum(isinstance(o, str) for o in outcomes) == 6


def test_polytope_in_a_simplex_facet_is_refused():
    # -p1 >= 0 holds P0 in the facet p1 = 0, where no point is interior.
    h = build_hypothesis({"kind": "polytope", "params": {"A": [[-1, 0]], "b": [0], "k": 3}})
    with pytest.raises(
        ValueError, match="^polytope hypothesis has no relative-interior simplex point$"
    ):
        sample_null_points(h, 3, seed=0)
