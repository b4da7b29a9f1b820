import copy
import dataclasses
import hashlib
import itertools
import operator
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from powerpoly import (
    StepCounter,
    StepLimitExceeded,
    coefficient_polytope,
    enumerate_vertices,
    parse_polynomial,
)
from powerpoly import polytope
from powerpoly.hypotheses import build_hypothesis
from powerpoly.linalg import primitive_ints, rank
from powerpoly.linprog import solve_lp
from powerpoly.polytope import (
    Vertices,
    _cone_rows,
    _extreme_rays,
    enumerate_vertices_dd,
    facet_rows,
    irredundant_rows,
    vertex_faces,
)

from conftest import enumerate_vertices_brute_force


def cube(d, lo=-1, hi=1):
    a, b = [], []
    for i in range(d):
        row = [0] * d
        row[i] = 1
        a.append(list(row))
        b.append(hi)
        a.append([-v for v in row])
        b.append(-lo)
    return a, b


def draw_box_with_cuts(data):
    """The box [-2, 2]^d, d = 3 or 4, with random integer cuts.

    Some cuts pass through a corner of the box, and positive multiples of
    rows already present are appended: degenerate vertices (more than d
    tight rows) and duplicated rows.
    """
    dim = data.draw(st.sampled_from([3, 4]))
    a, b = cube(dim, -2, 2)
    for _ in range(data.draw(st.integers(1, 4))):
        row = data.draw(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim))
        if not any(row):
            continue
        if data.draw(st.booleans()):
            corner = data.draw(st.lists(st.sampled_from([-2, 2]), min_size=dim, max_size=dim))
            rhs = sum(r * c for r, c in zip(row, corner))
        else:
            rhs = data.draw(st.integers(-2, 6))
        a.append(row)
        b.append(rhs)
    for _ in range(data.draw(st.integers(0, 2))):
        i = data.draw(st.integers(0, len(a) - 1))
        scale = data.draw(st.integers(1, 2))
        a.append([scale * v for v in a[i]])
        b.append(scale * b[i])
    return a, b


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_carried_keys_are_the_keys_of_a_plain_copy(data):
    # Rows times 2 or 3 are integer rows that are not primitive, and rows
    # times 1/2 or 2/3 are Fraction rows: both are rescaled to primitive
    # cone rows, and give the vertices and faces of the rows as drawn.
    a, b = draw_box_with_corners_cut(data)
    scaled_a, scaled_b = [], []
    for row, r in zip(a, b):
        m = data.draw(st.sampled_from([1, 2, 3, Fraction(1, 2), Fraction(2, 3)]))
        scaled_a.append([m * v for v in row])
        scaled_b.append(m * r)
    assert _cone_rows(scaled_a, scaled_b) == [primitive_ints((*row, -r)) for row, r in zip(a, b)]
    vertices = enumerate_vertices_dd(scaled_a, scaled_b)
    assert isinstance(vertices, Vertices) and vertices == enumerate_vertices_dd(a, b)
    assert vertex_faces(scaled_a, scaled_b) == vertex_faces(a, b)
    keys, den = vertices.keys, vertices.den
    plain = Vertices([tuple(v) for v in vertices])
    assert (keys, den) == (plain.keys, plain.den)
    assert tuple(tuple(Fraction(x, den) for x in key) for key in keys) == vertices
    # Strictly increasing, as the vertices are: the keys order them as
    # their values do.
    assert all(p < q for p, q in zip(keys, keys[1:]))
    assert all(p < q for p, q in zip(vertices, vertices[1:]))


def test_vertex_tuples_copy_with_their_keys():
    vertices = enumerate_vertices_dd(*cube(2, Fraction(-1, 2), 3))
    for copied in (pickle.loads(pickle.dumps(vertices)), copy.deepcopy(vertices)):
        assert copied == vertices and isinstance(copied, Vertices)
        assert (copied.keys, copied.den) == (vertices.keys, vertices.den)
    assert (vertices.keys, vertices.den) == (((-1, -1), (-1, 6), (6, -1), (6, 6)), 2)
    # `dataclasses.asdict` rebuilds the tuple from its vertices alone.
    h = Fraction(1, 20)
    poly = enumerate_vertices(coefficient_polytope(parse_polynomial("p1 + p2 - p3", ["p1", "p2", "p3"]), 3, h))
    rebuilt = dataclasses.asdict(poly)["vertices"]
    assert isinstance(rebuilt, Vertices) and rebuilt == poly.vertices
    assert (rebuilt.keys, rebuilt.den) == (poly.vertices.keys, poly.vertices.den)
    plain = Vertices(list(poly.vertices))
    assert (rebuilt.keys, rebuilt.den) == (plain.keys, plain.den)


def draw_factor(data):
    """A box of dimension 1 or 2 with fractional bounds around 0, the
    square with a corner cut half the time."""
    dim = data.draw(st.integers(1, 2))
    lo = data.draw(st.fractions(-3, Fraction(-1, 4), max_denominator=4))
    hi = data.draw(st.fractions(Fraction(1, 4), 3, max_denominator=5))
    a, b = cube(dim, lo, hi)
    if dim == 2 and data.draw(st.booleans()):
        a.append([1, 1])
        b.append(hi)
    return a, b


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_vertex_product_is_the_double_description_of_the_product(data):
    # Two or three factors on interleaved columns: the product's vertices,
    # keys and den are those of one double description of the block rows,
    # and the product ticks its vertex count once.
    factors = [draw_factor(data) for _ in range(data.draw(st.integers(2, 3)))]
    dim = sum(len(a[0]) for a, _ in factors)
    order = data.draw(st.permutations(range(dim)))
    columns, start = [], 0
    for a, _ in factors:
        columns.append(tuple(order[start : start + len(a[0])]))
        start += len(a[0])
    rows, rhs = [], []
    for (a, b), cols in zip(factors, columns):
        for row, r in zip(a, b):
            full = [0] * dim
            for c, x in zip(cols, row):
                full[c] = x
            rows.append(full)
            rhs.append(r)
    parts = [enumerate_vertices_dd(a, b) for a, b in factors]
    counter = StepCounter()
    got = polytope.vertex_product(parts, columns, counter)
    whole = enumerate_vertices_dd(rows, rhs)
    assert isinstance(got, Vertices)
    assert (got, got.keys, got.den) == (whole, whole.keys, whole.den)
    assert counter.steps == len(whole)


def test_vertex_product_of_an_empty_factor_is_empty():
    empty = enumerate_vertices_dd([[1], [-1]], [-1, -1])
    square = enumerate_vertices_dd(*cube(2, Fraction(-1, 2), 3))
    got = polytope.vertex_product([square, empty], [(0, 2), (1,)])
    assert (got, got.keys, got.den) == ((), (), 1) == (empty, empty.keys, empty.den)


def assert_tight_masks_on_cutting_rows(a, b):
    """Each extreme ray's tight mask is the set of rows it lies on among the
    initial rows and the rows that cut when inserted.

    The initial rows are the first d + 1 independent cone rows.  The others
    are inserted in order, and a row cuts when some x of the cone of the
    rows before it has row.x > 0: an exact LP over that cone within the
    cube |x_i| <= 1 has a positive optimum.
    """
    rays = _extreme_rays(a, b)
    d1 = len(a[0]) + 1
    cone = [*_cone_rows(a, b), (0,) * (d1 - 1) + (-1,)]
    initial = []
    for j, row in enumerate(cone):
        if len(initial) < d1 and rank([cone[i] for i in initial] + [row]) > len(initial):
            initial.append(j)
    unit = [[int(i == j) for j in range(d1)] for i in range(d1)]
    cube_rows = [(u, 1) for u in unit] + [([-v for v in u], 1) for u in unit]
    described = set(initial)
    before = [(cone[i], 0) for i in initial]
    for j, row in enumerate(cone):
        if j in initial:
            continue
        if solve_lp(d1, row, before + cube_rows).value > 0:
            described.add(j)
        before.append((row, 0))
    for ray in rays:
        on = sum(1 << j for j in described if sum(map(operator.mul, cone[j], ray.vec)) == 0)
        assert ray.tight == on, (ray.vec, bin(ray.tight), bin(on))


def assert_faces_exact(a, b):
    """vertex_faces gives the brute-force vertices, and bit n of row i's face
    is set exactly when a_i . v_n = b_i."""
    vertices, faces = vertex_faces(a, b)
    assert list(vertices) == enumerate_vertices_brute_force(a, b)
    assert enumerate_vertices_dd(a, b) == vertices
    assert faces == [
        sum(1 << n for n, v in enumerate(vertices) if sum(map(operator.mul, row, v)) == r)
        for row, r in zip(a, b)
    ]


def draw_box_with_corners_cut(data):
    """A random box in 2 to 4 dimensions with corners cut off and rows repeated.

    The box rows come first, so when the first cut is inserted the rays
    are the box's corners.  Each cut s.x <= s.c - depth strictly removes
    the corner c that maximizes s.x and keeps the box's centre strictly
    inside, so the first cut drops a ray and adds new ones: the new rays
    reuse the ids of the dropped ones.  Copies and positive multiples of
    earlier rows follow.
    """
    dim = data.draw(st.integers(2, 4))
    lo = data.draw(st.lists(st.integers(-3, 0), min_size=dim, max_size=dim))
    width = data.draw(st.lists(st.integers(1, 3), min_size=dim, max_size=dim))
    a, b = [], []
    for i in range(dim):
        unit = [int(i == j) for j in range(dim)]
        a += [unit, [-v for v in unit]]
        b += [lo[i] + width[i], -lo[i]]
    for _ in range(data.draw(st.integers(1, 3))):
        s = data.draw(st.lists(st.sampled_from([-2, -1, 1, 2]), min_size=dim, max_size=dim))
        top = sum(v * (l + w if v > 0 else l) for v, l, w in zip(s, lo, width))
        span = sum(abs(v) * w for v, w in zip(s, width))  # s.x over the box spans [top - span, top]
        depth = Fraction(data.draw(st.integers(1, span - 1)), 2)  # below span / 2
        a.append(s)
        b.append(top - depth)
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(a) - 1))
        scale = data.draw(st.integers(1, 3))
        a.append([scale * v for v in a[i]])
        b.append(scale * b[i])
    return a, b


class TestDoubleDescription:
    def test_unit_square(self):
        a, b = cube(2, 0, 1)
        vs = enumerate_vertices_dd(a, b)
        assert list(vs) == sorted(
            [
                (Fraction(0), Fraction(0)),
                (Fraction(0), Fraction(1)),
                (Fraction(1), Fraction(0)),
                (Fraction(1), Fraction(1)),
            ]
        )

    def test_simplex_3d(self):
        a = [[-1, 0, 0], [0, -1, 0], [0, 0, -1], [1, 1, 1]]
        b = [0, 0, 0, 1]
        vs = enumerate_vertices_dd(a, b)
        assert len(vs) == 4

    def test_cube_with_corner_cut(self):
        a, b = cube(3)
        a.append([1, 1, 1])
        b.append(Fraction(5, 2))
        vs = enumerate_vertices_dd(a, b)
        # Cutting one corner replaces 1 vertex by 3.
        assert len(vs) == 10

    def test_interval(self):
        vs = enumerate_vertices_dd([[1], [-1]], [Fraction(3, 4), Fraction(1, 5)])
        assert vs == ((Fraction(-1, 5),), (Fraction(3, 4),))

    def test_unbounded_detected(self):
        with pytest.raises(ValueError):
            enumerate_vertices_dd([[1, 0], [0, 1]], [1, 1])

    def test_strip_is_rank_deficient(self):
        # 0 <= x <= 1 in the plane: the cone rows (1, 0, -1), (-1, 0, 0) and
        # (0, 0, -1) have rank 2 < 3, so the cone holds the line of (0, 1, 0)
        # and has no initial simplicial cone.
        with pytest.raises(ValueError, match="rank deficient"):
            enumerate_vertices_dd([[1, 0], [-1, 0]], [1, 0])

    def test_empty_with_recession_direction_gives_no_vertices(self):
        # {x >= 0, x <= -1, y >= 0}: empty, though y may grow without bound.
        a, b = [[-1, 0], [1, 0], [0, -1]], [0, -1, 0]
        assert list(enumerate_vertices_dd(a, b)) == enumerate_vertices_brute_force(a, b) == []

    def test_vertices_satisfy_constraints_with_tight_rank(self):
        a = [[2, 1], [-1, 2], [-1, -1], [0, -1], [1, -2]]
        b = [4, 3, 1, 1, 2]
        vs = enumerate_vertices_dd(a, b)
        assert list(vs) == enumerate_vertices_brute_force(a, b)
        for v in vs:
            tight = []
            for row, bound in zip(a, b):
                lhs = sum(Fraction(r) * x for r, x in zip(row, v))
                assert lhs <= bound
                if lhs == bound:
                    tight.append(row)
            assert rank(tight) == 2

    def test_step_limit(self):
        a, b = cube(4)
        with pytest.raises(StepLimitExceeded):
            enumerate_vertices_dd(a, b, StepCounter(2))

    def test_step_count_pinned(self):
        # One step per inserted row plus one per (positive, negative) ray pair.
        poly = coefficient_polytope(
            parse_polynomial("p1 + p2 - p3", ["p1", "p2", "p3"]), 4, Fraction(1, 20)
        )
        a, b = poly.one_sided()
        counter = StepCounter()
        assert len(enumerate_vertices_dd(a, b, counter)) == 44
        assert counter.steps == 427
        assert len(enumerate_vertices_dd(a, b, StepCounter(427))) == 44
        with pytest.raises(StepLimitExceeded):
            enumerate_vertices_dd(a, b, StepCounter(426))

    def test_weakly_redundant_row_after_the_box(self, monkeypatch):
        # The cube [0, 2]^3, then x + y + z <= 9, which cuts nothing: the ray
        # box is built after it (step 9).  x + y <= 4 is redundant but passes
        # through the edge x = y = 2, so its box bound is exactly 0: it is
        # evaluated, and the two corners on it record it in their tight
        # masks.  x + y + z <= 8 lies strictly outside the box and is skipped.
        # x + y + z <= 5 cuts the corner (2, 2, 2) and drops the box, which
        # x + z <= 7 rebuilds (step 20) and -t <= 0 then skips.
        counter = StepCounter()
        built = []  # the step count at each box built
        ray_box = polytope._ray_box
        monkeypatch.setattr(
            polytope, "_ray_box", lambda rays: built.append(counter.steps) or ray_box(rays)
        )
        a, b = cube(3, 0, 2)
        a += [[1, 1, 1], [1, 1, 0], [1, 1, 1], [1, 1, 1], [1, 0, 1]]
        b += [9, 4, 8, 5, 7]
        vertices = enumerate_vertices_dd(a, b, counter)
        assert list(vertices) == enumerate_vertices_brute_force(a, b)
        assert len(vertices) == 10
        assert (built, counter.steps) == ([9, 20], 21)
        assert_tight_masks_on_cutting_rows(a, b)
        assert_faces_exact(a, b)

    @seed(20261018)
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_far_copies_of_rows_in_any_order(self, data):
        # Copies of a polytope's rows moved outward by 0 (weakly redundant:
        # the box bound can be exactly 0) or by a positive amount (strictly
        # redundant, skipped once a box exists), all rows shuffled.
        a, b = draw_box_with_cuts(data)
        for i in data.draw(st.lists(st.integers(0, len(a) - 1), min_size=1, max_size=4)):
            shift = data.draw(st.sampled_from([0, 0, Fraction(1, 2), 1, 5]))
            a.append(list(a[i]))
            b.append(b[i] + shift * sum(map(abs, a[i])))
        perm = data.draw(st.permutations(range(len(a))))
        a, b = [a[i] for i in perm], [b[i] for i in perm]
        assert_tight_masks_on_cutting_rows(a, b)
        assert_faces_exact(a, b)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 4)
            ),
            min_size=1,
            max_size=7,
        )
    )
    def test_matches_brute_force_on_random_polytopes(self, extra):
        # Bounding box keeps everything bounded; random cuts through it.
        a, b = cube(2, -2, 2)
        for (x, y, rhs) in extra:
            if x or y:
                a.append([x, y])
                b.append(Fraction(rhs))
        assert list(enumerate_vertices_dd(a, b)) == enumerate_vertices_brute_force(a, b)

    @seed(20250612)
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_brute_force_in_three_and_four_dimensions(self, data):
        a, b = draw_box_with_cuts(data)
        # A cut may empty the box; both then give no vertices.
        assert list(enumerate_vertices_dd(a, b)) == enumerate_vertices_brute_force(a, b)

    @seed(20251018)
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_brute_force_on_boxes_with_corners_cut(self, data):
        a, b = draw_box_with_corners_cut(data)
        vertices = enumerate_vertices_dd(a, b)
        assert vertices and list(vertices) == enumerate_vertices_brute_force(a, b)

    def test_faces_of_a_square_with_tangent_and_duplicate_rows(self):
        # Vertices (-1, -1), (-1, 1), (1, -1), (1, 1); x + y <= 2 touches
        # the last only, and 2x <= 2 repeats x <= 1.
        a, b = cube(2)
        a += [[1, 1], [2, 0]]
        b += [2, 2]
        assert vertex_faces(a, b)[1] == [0b1100, 0b0011, 0b1010, 0b0101, 0b1000, 0b1100]
        assert vertex_faces([[1], [-1]], [-1, 0]) == ((), [0, 0])

    @seed(20261019)
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_faces_match_exact_dot_products(self, data):
        assert_faces_exact(*draw_box_with_cuts(data))

    @seed(20250614)
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_row_order_does_not_change_the_vertices(self, data):
        # Insertion order moves the work, never the sorted vertex list.
        a, b = draw_box_with_cuts(data)
        perm = data.draw(st.permutations(range(len(a))))
        assert enumerate_vertices_dd([a[i] for i in perm], [b[i] for i in perm]) == (
            enumerate_vertices_dd(a, b)
        )


def _vertex_digest(vertices):
    text = ";".join(",".join(map(str, v)) for v in vertices)
    return hashlib.sha256(text.encode()).hexdigest()


# The distinct coefficient polytopes of the `vertices` benchmark pool and
# the k = 3, delta^2 = 1/6 sphere at n = 5 and 6 (alpha = 1/20): the
# double-description steps, the vertex count and the sha256 of the sorted
# vertex list, as the plain method gives them.  f and -f give one polytope.
DD_CHARACTERIZATION = [
    ((1, 1, 1, 1, -1), 3, "1/20", 242, 32, "7a9b0c4d8f229f206d407a912d382a23e5ffc7a365ae0c0f3053b7581773ec47"),
    ((1, 1, 1, 1, -1), 3, "1/10", 242, 32, "b9e4b5de3537b66cc8d25a228d5d2be0be91238464c3c037e1f5e2fb853a8b2a"),
    ((2, 1, 1, 1, -1), 3, "1/20", 1315, 73, "ee7ca05bd7c539ac7def079617c5410cbc3ca7fe2f1851e6ffcea7badf9c088b"),
    ((2, 1, 1, 1, -1), 3, "1/10", 1315, 73, "dcbdff21f17b9452ff1ecd2700ea22adea4c77c5a57e60a95a1c7686c5f02ee3"),
    ((1, 1, 1, 1, 1, -1), 3, "1/20", 803, 64, "c432d73d42c2d49c9ded9836248fd9d42f64144e37eaa3aca21e7fcc2ee49b30"),
    ((1, 1, 1, 1, 1, -1), 3, "1/10", 803, 64, "0924d46b8239fea491084785dca49e5a3e658923253f8d1e0acb173dc6baa988"),
    ((1, 1, -1), 4, "1/20", 427, 44, "296b4edecd9a56fcf68dbd76b09df9b3a4981c4d9b72a72f873aa24d6b47ea31"),
    ((1, 1, -1), 4, "1/10", 427, 44, "1f06e6816c5e6618e6a545038c38de2d58191f37f7007bc4fe6b51958904775c"),
    ((1, 2, -3), 4, "1/20", 2551, 99, "bfa0be64ea367ddf9f2cc2f99845303461481c515dc7dd7e4276dd5f4c467e1b"),
    ((1, 1, 1, 1, 1, 1, -1), 3, "1/20", 2922, 128, "23f0f0e8b8dec24836710ec76f871ecd4c8e541e9a876084fa8c9884aa409db4"),
    ((1, 1, 1, 1, 1, 1, -1), 3, "1/10", 2922, 128, "88192c13e2c3f5ee81ad7d235c3a95773d7f93ee4f3b06dbd9ca1835f045cb5c"),
    ((2, 1, 1, 1, 1, -1), 3, "1/20", 6321, 153, "ce9ac11ae9c73c3c031330affa6bdd4c7d5a1b799520b8c5016ef017f80ea02d"),
    ((2, 1, 1, 1, 1, -1), 3, "1/10", 6321, 153, "fa50786a8cbf7b2b42eea4f117ad3d1906e673c2b1211b56bf8ae2dfce6e8376"),
    ((1, -1, 0, 0), 4, "1/20", 763, 640, "18e2bd6b2a5fe4d9a6c2c530253e64e57e0610990e622064781f8ae000e670a5"),
    ((1, -1, 0, 0), 4, "1/10", 763, 640, "4a8b9ce95e08955996fd680814bae527855732f2cb8401fa5c84f7acdfdc6b6e"),
    ((1, -1, 0, 0, 0, 0, 0, 0, 0), 3, "1/20", 551, 512, "32ff9126594f5a5e0e321951aa76733e89c289cd31e5f2ba7dac056f6bae4dcf"),
    ((1, -1, 0, 0, 0, 0, 0, 0, 0), 3, "1/10", 551, 512, "97efae00576336eaae8088f4391268103b7c981f1e46b08f681ef73394646099"),
    ((1, 1, 1, 1, -1, -1, -1, -1), 3, "1/20", 17800, 256, "ac801596409b3918aff662658b29e1ce67ac51177eb86d30bdc1c61879af4cdc"),
    ((1, 1, 1, 1, -1, -1, -1, -1), 3, "1/10", 17800, 256, "008959e2f1448dadbb82ce0c9a60fba4ce19beb06d1d9e5723c3f31db6841e2a"),
    ("sphere", 5, "1/20", 56, 8, "c292e5f0a9eef9df3e8579c4022992692cfc4cf2514b3350aee00cb1f1072d72"),
    ("sphere", 6, "1/20", 5220, 188, "dc4628e774c3e0ea9420afdaada6daa1195e36eb67eaabd7c42444d5e515e40b"),
]


@pytest.mark.parametrize("weights, n, alpha, steps, count, digest", DD_CHARACTERIZATION)
def test_steps_and_vertices_pinned(weights, n, alpha, steps, count, digest):
    if weights == "sphere":
        hyp = build_hypothesis({"kind": "sphere", "params": {"k": 3, "delta_sq": "1/6"}})
        generators = [hyp.generators[0]]
    else:
        names = [f"p{i + 1}" for i in range(len(weights))]
        generators = [
            parse_polynomial(" ".join(f"{s * w:+d}*{x}" for w, x in zip(weights, names) if w), names)
            for s in (1, -1)
        ]
    for f in generators:
        a, b = coefficient_polytope(f, n, Fraction(alpha)).one_sided()
        counter = StepCounter()
        vertices = enumerate_vertices_dd(a, b, counter)
        assert (counter.steps, len(vertices), _vertex_digest(vertices)) == (steps, count, digest)


def test_primitive_ints_from_ints_and_fractions():
    assert primitive_ints((Fraction(1, 2), 3, Fraction(-3, 4))) == (2, 12, -3)
    assert primitive_ints([6, -4, 0]) == (3, -2, 0)
    assert primitive_ints([Fraction(0), 0]) == (0, 0)


class TestFacetRows:
    def test_square_with_redundant_rows(self):
        a, b = cube(2)
        a += [[1, 1], [1, 1], [2, 0], [0, 0], [0, 0]]
        b += [3, 2, 2, 1, 0]  # far outside, tangent at a corner, row 0 doubled, zero rows
        vertices, faces = vertex_faces(a, b)
        assert len(vertices) == 4
        # Both copies of row 0's facet are listed.
        assert facet_rows(faces, len(vertices)) == [0, 1, 2, 3, 6]


class TestIrredundantRows:
    def test_square_with_redundant_cut(self):
        a, b = cube(2)
        a.append([1, 1])
        b.append(3)  # far outside: redundant
        keep = irredundant_rows(a, b)
        assert keep == [0, 1, 2, 3]

    def test_tangent_constraint_is_redundant(self):
        # Touches the square only at a corner: still not a facet.
        a, b = cube(2)
        a.append([1, 1])
        b.append(2)
        keep = irredundant_rows(a, b)
        assert keep == [0, 1, 2, 3]

    def test_duplicate_halfspace_counted_once(self):
        a, b = cube(2)
        a.append([2, 0])
        b.append(2)  # same halfspace as row 0 scaled
        keep = irredundant_rows(a, b)
        assert len(keep) == 4

    def test_matches_highs_convex_combination(self):
        # Row i defines a facet exactly when its polar point a_i / b_i lies
        # outside the convex hull of the other distinct polar points: when no
        # lambda >= 0 with sum 1 combines those into it.  HiGHS decides that
        # feasibility LP.  A positive multiple of a row has the row's polar
        # point, and only the first copy is kept.
        optimize = pytest.importorskip("scipy.optimize")
        rng = random.Random(7)
        for _ in range(60):
            dim = rng.randint(2, 4)
            a, b = cube(dim, -2, 2)
            for _ in range(rng.randint(1, 5)):
                row = [rng.randint(-2, 2) for _ in range(dim)]
                if any(row):  # rhs up to 6: some cuts touch the box at a corner
                    a.append(row)
                    b.append(rng.randint(1, 6))
            i = rng.randrange(len(a))
            scale = rng.randint(1, 3)
            a.append([scale * v for v in a[i]])  # a duplicate
            b.append(scale * b[i])
            order = list(range(len(a)))
            rng.shuffle(order)
            a, b = [a[i] for i in order], [b[i] for i in order]
            first_of = {}
            for i, (row, r) in enumerate(zip(a, b)):
                first_of.setdefault(tuple(Fraction(v, r) for v in row), i)
            expected = []
            for point, i in first_of.items():
                others = [q for q in first_of if q != point]
                ref = optimize.linprog(
                    [0] * len(others),
                    A_eq=[[float(q[c]) for q in others] for c in range(dim)] + [[1] * len(others)],
                    b_eq=[float(v) for v in point] + [1],
                    bounds=[(0, None)] * len(others),
                    method="highs",
                )
                assert ref.status in (0, 2)
                if ref.status == 2:
                    expected.append(i)
            assert irredundant_rows(a, b) == expected, (a, b)
            # The face reader lists every copy of a facet's row.
            vertices, faces = vertex_faces(a, b)
            firsts = set(first_of.values())
            assert [i for i in facet_rows(faces, len(vertices)) if i in firsts] == expected

    def test_requires_interior_origin(self):
        with pytest.raises(ValueError):
            irredundant_rows([[1], [-1]], [1, 0])
