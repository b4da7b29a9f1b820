import itertools
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from powerpoly import StepCounter, StepLimitExceeded, coefficient_polytope, parse_polynomial
from powerpoly import polytope
from powerpoly.linalg import primitive_ints, rank
from powerpoly.polytope import (
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


def assert_tight_masks_exact(a, b):
    """Each extreme ray's tight mask is exactly the set of cone rows it lies on."""
    cone, rays = _extreme_rays(a, b)
    for ray in rays:
        on = sum(1 << j for j, row in enumerate(cone) if sum(map(operator.mul, row, ray.vec)) == 0)
        assert ray.tight == on, (ray.vec, bin(ray.tight), bin(on))


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
        assert vs == sorted(
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
        assert vs == [(Fraction(-1, 5),), (Fraction(3, 4),)]

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
        assert enumerate_vertices_dd(a, b) == enumerate_vertices_brute_force(a, b) == []

    def test_vertices_satisfy_constraints_with_tight_rank(self):
        a = [[2, 1], [-1, 2], [-1, -1], [0, -1], [1, -2]]
        b = [4, 3, 1, 1, 2]
        vs = enumerate_vertices_dd(a, b)
        assert vs == enumerate_vertices_brute_force(a, b)
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
        assert vertices == enumerate_vertices_brute_force(a, b)
        assert len(vertices) == 10
        assert (built, counter.steps) == ([9, 20], 21)
        assert_tight_masks_exact(a, b)

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
        assert enumerate_vertices_dd(a, b) == enumerate_vertices_brute_force(a, b)
        assert_tight_masks_exact(a, b)

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
        assert enumerate_vertices_dd(a, b) == enumerate_vertices_brute_force(a, b)

    @seed(20250612)
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_brute_force_in_three_and_four_dimensions(self, data):
        a, b = draw_box_with_cuts(data)
        # A cut may empty the box; both then give no vertices.
        assert enumerate_vertices_dd(a, b) == enumerate_vertices_brute_force(a, b)

    @seed(20251018)
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_brute_force_on_boxes_with_corners_cut(self, data):
        a, b = draw_box_with_corners_cut(data)
        vertices = enumerate_vertices_dd(a, b)
        assert vertices and vertices == enumerate_vertices_brute_force(a, b)

    def test_faces_of_a_square_with_tangent_and_duplicate_rows(self):
        # Vertices (-1, -1), (-1, 1), (1, -1), (1, 1); x + y <= 2 touches
        # the last only, and 2x <= 2 repeats x <= 1.
        a, b = cube(2)
        a += [[1, 1], [2, 0]]
        b += [2, 2]
        assert vertex_faces(a, b)[1] == [0b1100, 0b0011, 0b1010, 0b0101, 0b1000, 0b1100]
        assert vertex_faces([[1], [-1]], [-1, 0]) == ([], [0, 0])

    @seed(20261019)
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_faces_match_exact_dot_products(self, data):
        # Bit n of row i's face is set exactly when a_i . v_n = b_i.
        a, b = draw_box_with_cuts(data)
        vertices, faces = vertex_faces(a, b)
        assert vertices == enumerate_vertices_brute_force(a, b)
        assert enumerate_vertices_dd(a, b) == vertices
        assert faces == [
            sum(1 << n for n, v in enumerate(vertices) if sum(map(operator.mul, row, v)) == r)
            for row, r in zip(a, b)
        ]

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
