"""Exact vertex enumeration for bounded H-polytopes (double description).

The polytope {x : A x <= b} is homogenized to the pointed cone
{(x, t) : A x <= t b, t >= 0}; extreme rays are built by incremental
halfspace insertion, and rays with t > 0 are rescaled to vertices.
Everything is exact.  Rows are inserted in the caller's order, which
decides how many intermediate rays are built but not the output.

Double description produces one value: `enumerate_vertices_dd` returns
the vertices as a `Vertices` tuple, sorted on integer keys, every
coordinate over one common denominator, with each distinct coordinate
value one Fraction: vertices share few values (4 among the 2,048
coordinates of a k = 8 coefficient polytope).  The tuple carries its
keys and their denominator, so the UMPU search, the componentwise
maximum and the null-point mixtures read integers that are never
rebuilt; `Vertices(vertex_list)` computes them for any other vertex
list.  `vertex_product` gives the vertex tuple of a product of
polytopes from its factors' tuples, as double description of the whole
product would, with no double description.  Every double description
runs through `enumerate_vertices_dd`, so its steps are all counted at
that one entry point.

`vertex_faces` also gives each input row's face: the bitmask of the
vertices on the row, read off the vertex tuple: a vertex key / den lies
on row i exactly when row i's primitive cone row vanishes at (key, den),
one integer dot product per row and vertex.  Every facet of a
polytope is some row's face, and a facet is a maximal proper face
(Ziegler, "Lectures on Polytopes", 1995), so `facet_rows`, the one facet
reader, finds the facets on these masks with no further arithmetic: a
row defines a facet when its face is proper and no other row's proper
face strictly contains it.  The polytope-hypothesis check reads its
facets this way, and so does the convex peeling, through the polar of
its points.  Only `irredundant_rows` answers the same question with LPs,
one per row: on the coefficient polytope its LPs beat double description
(k = 3 sphere, delta^2 = 1/6, alpha = 1/20, n = 7: 1.1 s against 10.6 s
for 17,267 vertices on a 2-vCPU VM), and the gap widens with n.  It is
the one caller of `linprog.solve_lp`, behind the library-only
`umpu.CoefficientPolytope.facet_count`, so no command solves an LP.

The set-up runs on integers, with the one exact elimination of
`linalg.echelon`.  Each cone row (a_i, -b_i) is scaled to a primitive
integer vector; rows that arrive as primitive integer rows, as the
coefficient polytope's do, pass through with one gcd each.  `echelon`
of the cone rows picks the first d + 1 independent ones, M, and
`echelon` of [M | I] gives the initial simplicial cone's rays, the
columns of -M^-1.

Adjacency is the combinatorial test on bit patterns (Fukuda & Prodon,
"Double description method revisited", 1996; Terzer & Stelling, "Large-
scale computation of elementary flux modes with bit pattern trees", 2008).
Each ray keeps its tight rows as an int bitmask, and each cone row j
keeps `on[j]`, an int bitmask over ray ids with bit r set when ray r is
tight on row j.  Two rays whose common tight rows pass the rank filter
are adjacent exactly when no third ray is tight on all of those rows,
that is when the AND of `on[j]` over them is the pair itself; the AND
chain stops as soon as only the pair is left.  The rank filter runs as
one comprehension per positive ray over the negative rays' tight masks,
and only the few pairs that pass it reach the AND chain.  The rays
removed by an insertion clear their bits from `on` in one masked pass
and free their ids for the next new rays, so the masks stay as wide as
the peak live ray count.  Rows are sparse, so each row's products with
the rays are summed over its nonzero entries only.

The rank filter and the adjacency test are correct for any set of rows
that describes the current cone (Fukuda & Prodon), and a row that cuts
no ray leaves the cone as it was.  So such a row is dropped after one
`max` over its values: it sets no tight bit and keeps no `on` mask.  A
ray's mask is the set of rows it lies on among the initial rows and the
rows that cut when inserted.  On degenerate polytopes many rows cut
nothing: 876 of the 1,358 rows evaluated over the 38 polytopes of the
benchmark's `vertices` pool.  Were the rows that merely pass through rays
recorded, the rank filter would pass 24,904 pairs there instead of
15,168, for the same 9,420 adjacent ones.  As the masks do not hold
every row a vertex lies on, faces are read off the final vertices.

Two certificates skip work whose outcome is already known, so the steps
counted and the vertices returned are those of the plain method:

- A ray box.  After a row that cuts no ray, while every ray has t > 0,
  the box of the points x/t (per-coordinate least and greatest value,
  as integers over the lcm of the t) is kept until the ray set changes.
  A later row c.x <= beta whose maximum over the box is at most beta
  cuts no ray, so it is dropped with its one step and no product with
  the rays.  The test need not be strict: a row through a ray is
  dropped as any other row that cuts nothing is.
- A blocking ray.  While the pairs of one positive ray are tested, the
  third ray found by the last failed AND chain is remembered with its
  tight mask.  A later pair whose common rows all lie in that mask is
  non-adjacent at once, unless the remembered ray is the pair's own
  negative ray.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from operator import itemgetter
from typing import Sequence

from powerpoly.groebner import StepCounter
from powerpoly.linalg import echelon, primitive_ints
from powerpoly.linprog import solve_lp


@dataclass(slots=True)
class _Ray:
    vec: tuple[int, ...]
    tight: int  # the initial and cutting rows the ray lies on, by cone index
    bit: int = 0  # 1 << id, the ray's bit in the `on` masks


class Vertices(tuple):
    """A vertex tuple that carries its integer keys: vertex n is keys[n] / den.

    `keys` and `den` are the vertices over the least common denominator
    of all their coordinates.  The keys compare, coordinate by
    coordinate, as the ints or Fractions they stand for, and equal keys
    are equal vertices.  Double description passes the keys it sorted
    on; otherwise they are computed from the vertices, so
    `Vertices(vertex_list)`, a copy, a pickle or `dataclasses.asdict`
    rebuilds them.  The tuples are immutable, so the keys never go stale.
    """

    def __new__(cls, vertices, keys: tuple[tuple[int, ...], ...] | None = None, den: int = 1):
        self = super().__new__(cls, vertices)
        if keys is None:
            den = lcm(*{x.denominator for v in self for x in v})
            keys = tuple([tuple([x.numerator * (den // x.denominator) for x in v]) for v in self])
        self.keys, self.den = keys, den
        return self


def enumerate_vertices_dd(
    a: Sequence[Sequence],
    b: Sequence,
    counter: StepCounter | None = None,
) -> Vertices:
    """All vertices of the bounded polytope {x : a x <= b}, sorted lex.

    The entries of a and b are ints or Fractions.  The vertices come as
    one `Vertices` tuple with their integer keys; an empty polyhedron
    gives an empty one.  Raises ValueError when the rows are rank
    deficient, or when the polyhedron is nonempty and some x != 0 has
    a x <= 0, so that it is unbounded.
    """
    return _sorted_vertices(_extreme_rays(a, b, counter))


def vertex_faces(
    a: Sequence[Sequence],
    b: Sequence,
    counter: StepCounter | None = None,
) -> tuple[Vertices, list[int]]:
    """The vertices of enumerate_vertices_dd and the face of each row.

    faces[i] has bit n set exactly when vertex n lies on row i, a_i.x = b_i:
    row i's primitive cone row vanishes at (keys[n], den).
    """
    vertices = enumerate_vertices_dd(a, b, counter)
    keys, den = vertices.keys, vertices.den
    faces = []
    for row in _cone_rows(a, b):
        level = -row[-1] * den
        faces.append(sum(1 << n for n, v in enumerate(_row_values(row[:-1], keys)) if v == level))
    return vertices, faces


def _cone_rows(a: Sequence[Sequence], b: Sequence) -> list[tuple[int, ...]]:
    """The cone row (a_i, -b_i) of each row, a primitive integer vector."""
    return [primitive_ints((*row, -r)) for row, r in zip(a, b)]


def _sorted_vertices(rays: list[_Ray]) -> Vertices:
    """The vertices of the extreme rays, sorted lex."""
    # Every ray has t >= 0.  Rays with t > 0 are the vertices; a ray with
    # t = 0 is a recession direction, which matters only when a vertex exists.
    points = [r.vec for r in rays if r.vec[-1] > 0]
    if points and len(points) < len(rays):
        raise ValueError("polyhedron is unbounded (recession ray found)")
    # Sort on integers: every coordinate over the common denominator
    # `scale`, which orders the points as their exact values do.  Distinct
    # extreme rays are distinct primitive vectors, so no vertex repeats.
    # Each ray (x, t) is primitive, so t is the least common denominator
    # of x / t, and `scale` is the one `Vertices` finds.
    scale = lcm(*(v[-1] for v in points))
    keys = [tuple([x * (scale // v[-1]) for x in v[:-1]]) for v in points]
    return _from_keys(sorted(keys), scale, set().union(*keys))


def _from_keys(keys: Sequence[tuple[int, ...]], den: int, values: set[int]) -> Vertices:
    """The `Vertices` tuple of the sorted keys over den, their least
    common denominator, with one Fraction per distinct value; `values`
    holds every value the keys use."""
    frac = {x: Fraction(x, den) for x in values}
    return Vertices([tuple(map(frac.__getitem__, key)) for key in keys], tuple(keys), den)


def vertex_product(
    factors: Sequence[Vertices],
    columns: Sequence[Sequence[int]],
    counter: StepCounter | None = None,
) -> Vertices:
    """The vertices of a product of polytopes, as double description of
    the whole product returns them.

    There are two or more factors, and factor i holds the coordinates
    `columns[i]`, which together cover 0 .. d - 1 once each.  The
    vertices of a product are the tuples of its factors' vertices
    (Ziegler, "Lectures on Polytopes", 1995), so each is put together
    from one key of each factor, every key rescaled to den, the lcm of
    the factors' dens, which is the least common denominator of all the
    coordinates.  The keys are sorted as double description sorts them,
    and the distinct values are the factors' values rescaled to den, so
    the product vertices are not scanned for them.  `counter` is ticked
    once per product vertex before any is built.
    """
    count = prod(map(len, factors))
    if counter is not None:
        counter.tick(count)
    if not count:
        return Vertices(())
    den = lcm(*(part.den for part in factors))
    # Coordinate i of a vertex is entry place[i] of its factors' keys laid end to end.
    flat = [c for cols in columns for c in cols]
    place = itemgetter(*sorted(range(len(flat)), key=flat.__getitem__))
    keys, values = [()], set()
    for part in factors:
        tails = [tuple([x * (den // part.den) for x in key]) for key in part.keys]
        values.update(*tails)
        keys = [key + tail for key in keys for tail in tails]
    return _from_keys(sorted(map(place, keys)), den, values)


def _row_values(row: tuple[int, ...], vecs: Sequence[tuple[int, ...]]) -> list[int]:
    """The dot products of a sparse row with each vector.

    They are summed column by column, over the row's nonzero entries only.
    """
    (i, c), *terms = [(i, c) for i, c in enumerate(row) if c] or [(0, 0)]
    vals = [c * v[i] for v in vecs]
    for i, c in terms:
        vals = [s + c * v[i] for s, v in zip(vals, vecs)]
    return vals


def _extreme_rays(
    a: Sequence[Sequence],
    b: Sequence,
    counter: StepCounter | None = None,
) -> list[_Ray]:
    """The extreme rays of the cone of {x : a x <= b}.

    Each ray's `tight` mask holds the cone rows the ray lies on among the
    initial rows and the rows that cut some ray when inserted.
    All ray arithmetic runs on primitive integer vectors (positive
    rescaling leaves the cone unchanged), which keeps the inner loops on
    machine integers.
    """
    if not a:
        raise ValueError("no constraints")
    dim = len(a[0])
    # Cone rows over (x, t): a.x - b t <= 0, then -t <= 0, rescaled integral.
    cone = _cone_rows(a, b)
    cone.append(tuple([0] * dim + [-1]))
    d1 = dim + 1

    # Initial simplicial cone from the first d1 independent rows M.  Its
    # rays r_j solve M r_j = -e_j, so they are the columns of -M^-1.
    # Gauss-Jordan on [M | I] leaves the row [D_i e_i | R_i] with pivot
    # column i, so M^-1 = D^-1 R, and over den = lcm(D_i) column j of
    # -M^-1 is the integer vector (-R_i[j] * den / D_i)_i.
    chosen = echelon(cone)[1]
    if len(chosen) < d1:
        raise ValueError("constraint matrix is rank deficient (cone not pointed)")
    aug = [[*cone[i], *(int(i == k) for k in chosen)] for i in chosen]
    inv = [row for _, row in sorted(echelon(aug)[0])]
    den = lcm(*(row[i] for i, row in enumerate(inv)))
    scale = [den // row[i] for i, row in enumerate(inv)]

    rays: list[_Ray] = []
    on = [0] * len(cone)  # on[j]: bitmask over ray ids tight on row j
    for j in range(d1):
        vec = primitive_ints([-row[d1 + j] * f for row, f in zip(inv, scale)])
        tight = 0
        for pos, ci in enumerate(chosen):
            if pos != j:
                tight |= 1 << ci
                on[ci] |= 1 << j
        rays.append(_Ray(vec, tight, 1 << j))
    by_id = list(rays)  # by_id[i]: the live ray whose bit is 1 << i
    live = (1 << d1) - 1  # bitmask of the ids in use
    free: list[int] = []  # ids of removed rays, for reuse
    box = None  # (lo, hi, den) over the current rays, see _ray_box

    initial = set(chosen)
    for idx, row in enumerate(cone):
        if idx in initial:
            continue
        if counter is not None:
            counter.tick()
        if box is not None:
            lo, hi, den = box
            top = row[-1] * den
            for c, l, h in zip(row, lo, hi):
                if c:
                    top += c * (h if c > 0 else l)
            if top <= 0:
                continue  # no ray beyond the row: it cuts nothing
        vals = _row_values(row, [r.vec for r in rays])
        if max(vals, default=0) <= 0:
            # The row cuts nothing, so the cone without it is the same
            # cone: it is dropped, and no ray records it.
            if box is None and rays and all(r.vec[-1] > 0 for r in rays):
                box = _ray_box(rays)
            continue
        pos = [(r, v) for r, v in zip(rays, vals) if v > 0]
        neg = [(r, v) for r, v in zip(rays, vals) if v < 0]
        newcomers: list[_Ray] = []
        row_bit = 1 << idx
        min_common = d1 - 2  # rank needed for a common 2-face
        if counter is not None:
            counter.tick(len(pos) * len(neg))  # one step per pair tested
        neg_tight = [rn.tight for rn, _ in neg]
        for rp, vp in pos:
            tp = rp.tight
            third_bit = third_tight = 0  # a ray that blocked an earlier pair of rp
            for n, common in [
                (n, common)
                for n, t in enumerate(neg_tight)
                if (common := tp & t).bit_count() >= min_common
            ]:
                rn, vn = neg[n]
                # The remembered ray, tight on every row of common and
                # neither rp nor rn, shows the pair non-adjacent at once.
                if third_bit and third_bit != rn.bit and not common & ~third_tight:
                    continue
                # Adjacent when no third ray is tight on every row of common.
                pair = rp.bit | rn.bit
                acc, rest = live, common
                while acc != pair and rest:
                    low = rest & -rest
                    acc &= on[low.bit_length() - 1]
                    rest ^= low
                if acc != pair:
                    third_bit = (acc ^ pair) & -(acc ^ pair)
                    third_tight = by_id[third_bit.bit_length() - 1].tight
                    continue
                # Positive combination lying on the new hyperplane.
                combo = [vp * x - vn * y for x, y in zip(rn.vec, rp.vec)]
                g = gcd(*combo)
                newcomers.append(_Ray(tuple([x // g for x in combo]), common | row_bit))
        # The cut-off rays leave `on` and free their ids; the new rays,
        # which were no rays of the cone the pair loop read, enter it now.
        gone = touched = 0
        for r, _ in pos:
            gone |= r.bit
            touched |= r.tight
            free.append(r.bit)
        live ^= gone
        keep = ~gone
        while touched:
            low = touched & -touched
            on[low.bit_length() - 1] &= keep
            touched ^= low
        for r in [r for r, v in zip(rays, vals) if not v]:
            r.tight |= row_bit
            on[idx] |= r.bit
        for r in newcomers:
            # With no freed id waiting, the ids in use are 0 .. m-1.
            r.bit = bit = free.pop() if free else live + 1
            live |= bit
            i = bit.bit_length() - 1
            if i == len(by_id):
                by_id.append(r)
            else:
                by_id[i] = r
            tight = r.tight
            while tight:
                low = tight & -tight
                on[low.bit_length() - 1] |= bit
                tight ^= low
        rays = [r for r, v in zip(rays, vals) if v <= 0] + newcomers
        box = None
    return rays


def _ray_box(rays: list[_Ray]) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """The box spanned by the points x/t of rays that all have t > 0.

    Returns (lo, hi, den) with den = lcm(t): lo[i] / den and hi[i] / den
    are the least and the greatest x_i / t over the rays, read straight
    off the rays as integers over den.
    """
    den = lcm(*(r.vec[-1] for r in rays))
    points = [[x * (den // r.vec[-1]) for x in r.vec[:-1]] for r in rays]
    return tuple(map(min, zip(*points))), tuple(map(max, zip(*points))), den


def facet_rows(faces: Sequence[int], count: int) -> list[int]:
    """Indices of the rows whose face is a facet, read off `vertex_faces` masks.

    `count` is the number of vertices, so the whole polytope is the mask
    with its low `count` bits set.  A row defines a facet when its face is
    proper and no other row's proper face strictly contains it.  Rows with
    one facet between them are all listed.
    """
    whole = (1 << count) - 1
    proper = {face for face in faces if face != whole}
    facets = {f for f in proper if not any(f != g and not f & ~g for g in proper)}
    return [i for i, face in enumerate(faces) if face in facets]


def irredundant_rows(a: Sequence[Sequence], b: Sequence) -> list[int]:
    """Indices of facet-defining rows of {x : a x <= b}.

    Requires 0 strictly inside (all b > 0); then row i is redundant exactly
    when its polar point p = a_i / b_i is a convex combination of the
    others.  One exact LP in d + 1 variables per distinct polar point
    decides it: p lies outside the hull of the others exactly when
    max t subject to w.(q - p) + t <= 0 for every other point q, and
    t <= 1, is positive.
    """
    rhs = [Fraction(v) for v in b]
    if any(r <= 0 for r in rhs):
        raise ValueError("irredundant_rows requires the origin strictly inside")
    # Exact duplicates define one facet; keep the first copy only.
    first_of: dict[tuple, int] = {}
    for i, (row, r) in enumerate(zip(a, rhs)):
        first_of.setdefault(tuple(v / r for v in row), i)
    keep = []
    for p, i in first_of.items():
        t = [0] * len(p) + [1]  # the objective, and the row of t <= 1
        cons = [([x - y for x, y in zip(q, p)] + [1], 0) for q in first_of if q is not p]
        if solve_lp(len(t), t, [*cons, (t, 1)]).value > 0:
            keep.append(i)
    return keep
