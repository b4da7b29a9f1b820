"""UMPU existence via the coefficient polytope.

For a principal hypothesis I(P0) = <f> and sample size n, the candidate
power polynomials are f~^2 h + alpha with h homogeneous of degree
n' = n - 2 deg(f).  The feasible h-coefficients form a polytope cut out
by one two-sided box constraint per degree-n multiindex L,
-alpha B_L <= c_L.h <= (1 - alpha) B_L.  The row c_L comes from f~^2
alone and is stored once; alpha enters only the bounds.  A vertex that
dominates all others componentwise yields the UMPU test; otherwise a
layer-by-layer recursion over the convex peeling of the h-exponent
lattice checks the necessary conditions and either refutes existence or
produces the unique remaining candidate.

The recursion needs no LP.  Fixing a coordinate at its maximum over a
face cuts out a supporting hyperplane, so every set the recursion visits
is a face of the polytope, and a face's vertices are the polytope's
vertices lying on it (Ziegler, Lectures on Polytopes, 1995).  Each
maximum is therefore a max over the surviving vertices, and a layer's
maxima are jointly feasible exactly when some surviving vertex attains
all of them.  The maxima and ties are compared on the vertices' integer
keys (`polytope.vertex_keys`), which the vertex tuple of double
description carries, so they are never rebuilt; the face is carried as
vertex indices, and h* and the certificate are read back from the
vertex list by index.

The peeling needs no LP either.  A point of a finite set is a hull vertex
exactly when its polar row about an interior point defines a facet of
the polar polytope (Ziegler), so `convex_peeling` reads each layer off
one double description with `polytope.facet_rows`.  The centroid of the
remaining points is interior whenever two or more remain.  The symmetric
group S_k, permuting coordinates, fixes the set of degree-n' lattice
points, so it fixes each layer, the hull vertices of a fixed set, and
each remaining set.  It fixes their centroid too, which is therefore
(n'/k) 1.  The differences of the remaining points from it span an
S_k-invariant subspace of the sum-zero hyperplane, an irreducible
S_k-module, so they span the whole hyperplane, or nothing when the
centroid alone remains.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb, gcd, lcm
from operator import add, mul
from typing import Sequence

from powerpoly.groebner import StepCounter
from powerpoly.linalg import primitive_scaling
from powerpoly.polynomial import Polynomial, simplex_coefficients
from powerpoly.polytope import enumerate_vertices_dd, facet_rows, irredundant_rows
from powerpoly.polytope import vertex_faces, vertex_keys
from powerpoly.power import PowerPolynomial
from powerpoly.threshold import require_principal


def _grevlex_desc(k: int, n: int) -> list:
    """The exponent vectors of degree n in k variables, in descending grevlex order.

    Within one degree that is ascending lex order of the reversed vectors,
    so the descending-lex table is read backwards, each vector reversed:
    no sort is needed.
    """
    return [r[::-1] for r in reversed(simplex_coefficients(k, n))]


@dataclass(frozen=True)
class CoefficientPolytope:
    """The feasible h-coefficients: -alpha B_L <= c_L.h <= (1 - alpha) B_L per L.

    f~^2 = scale P with P a primitive integer polynomial.  `multiindices`
    holds, per degree-n multiindex L in grevlex-descending order,
    (L, B_L, P_L): the multinomial B_L and L's integer row P_L of P, or
    None when P_L = 0 and L gives no row.  So c_L = scale P_L comes from
    f~^2 alone, and alpha enters only the bounds.  `a` and `b` are the
    one-sided rows (see `one_sided`), each scaled to a primitive integer
    vector, nearest first.
    """

    n: int
    k: int
    alpha: Fraction
    nprime: int
    h_index: tuple[tuple[int, ...], ...]  # grevlex-descending degree-n' multiindices
    scale: Fraction
    multiindices: tuple[tuple[tuple[int, ...], int, tuple[int, ...] | None], ...]
    a: tuple[tuple[int, ...], ...]
    b: tuple[int, ...]
    vertices: tuple[tuple[Fraction, ...], ...] | None = None

    @property
    def dim(self) -> int:
        return len(self.h_index)

    def one_sided(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """(A, b) with the polytope as {h : A h <= b}, nearest rows first.

        Row L bounds phi_L(h) = c_L.h + alpha B_L, the L-term of the power
        polynomial, to [0, B_L]: the lower row -c_L.h <= alpha B_L and the
        upper row c_L.h <= (1 - alpha) B_L, each scaled to a primitive
        integer vector.  The level-alpha test h = 0 lies strictly inside,
        and b_i / max_j |a_ij| is the l1 distance from h = 0 to the
        hyperplane of row i, unchanged by the scaling.  The rows come
        sorted by it, nearest first: those are the rows most likely to
        cut, so double description meets them early and, on most
        polytopes, builds far fewer intermediate rays (Fukuda & Prodon,
        "Double description method revisited", 1996).  The sort is stable
        on exact integer keys, and ties keep the near side (the lower rows
        when alpha <= 1/2, the upper rows otherwise) before the far side,
        each side in row order.
        """
        return self.a, self.b

    def halfspace_count(self) -> int:
        return len(self.b)

    def facet_count(self) -> int:
        """Number of irredundant halfspaces (0 is strictly interior)."""
        return len(irredundant_rows(self.a, self.b))

    def h_polynomial(self, coeffs: Sequence[Fraction]) -> Polynomial:
        return Polynomial(self.k, dict(zip(self.h_index, map(Fraction, coeffs))))

    def power_polynomial(self, coeffs: Sequence[Fraction]) -> PowerPolynomial:
        """beta = f~^2 h + alpha (sum pi)^n: its L-term is phi_L(h) = c_L.h + alpha B_L.

        On integers, with h = (g / d) H, scale = s / t and alpha = p / q,
        the L-term is (p d t B_L + q s g (P_L.H)) over q d t.
        """
        ints, g, d = primitive_scaling(coeffs)
        p, q = self.alpha.numerator, self.alpha.denominator
        s, t = self.scale.numerator, self.scale.denominator
        level, share = p * d * t, q * s * g
        nums = {}
        for L, bound, row in self.multiindices:
            c = level * bound
            if row is not None:
                c += share * sum(map(mul, row, ints))
            nums[L] = c
        return PowerPolynomial.from_numerators(self.n, self.k, nums, q * d * t)


def coefficient_polytope(
    f: Polynomial, n: int, alpha: Fraction, counter: StepCounter | None = None
) -> CoefficientPolytope:
    """H-representation of the feasible h-coefficients for f~^2 h + alpha.

    f~^2 is (g / den) P, its `scale` times its primitive integer map
    `ints`, so c_L = (g / den) P_L, where entry (L, J) of P_L is the
    coefficient of x^(L - J) in P.  With alpha = p / q, the upper row
    c_L.h <= (1 - alpha) B_L times q den is the integer row
    q g P_L.h <= (q - p) den B_L, and the lower row likewise; one gcd
    per row makes it primitive.

    (f, n, alpha) are checked as `threshold.principal_umpu` checks them
    (`threshold.require_principal`), which refuses an f that vanishes on
    sum(p) = 1 or that its coefficient-sign test proves of one strict
    sign on the simplex, whose null set is empty or the whole simplex;
    the degree raises of that test tick `counter`.  Then `counter` is
    ticked once per degree-n multiindex, one row each, before any row is
    built.
    """
    alpha, ftilde = require_principal(f, n, alpha, 2, counter)
    k = f.nvars
    if counter is not None:
        counter.tick(comb(n + k - 1, k - 1))
    nprime = n - 2 * f.total_degree()
    fsq = ftilde**2
    g, den = fsq.scale.numerator, fsq.scale.denominator
    h_index = tuple(_grevlex_desc(k, nprime))
    bounds = simplex_coefficients(k, n)
    # Scatter each term m of P from column J into row L = J + m.
    entries = {L: [0] * len(h_index) for L in bounds}
    for col, J in enumerate(h_index):
        for m, c in fsq.ints.items():
            entries[tuple(map(add, J, m))][col] = c
    p, q = alpha.numerator, alpha.denominator
    qg = q * g  # the factor of every row: q den c_L = q g P_L
    lower, upper = [], []  # (row, rhs, max |row|) of each side, in row order
    multiindices = []
    for L in _grevlex_desc(k, n):
        row = entries[L]
        gL = gcd(*row)
        if gL:
            top = max(map(abs, row)) // gL
            for side, sign, share in ((lower, -1, p), (upper, 1, q - p)):
                rhs = share * den * bounds[L]
                t = gcd(qg * gL, rhs)
                mult = sign * (qg * gL // t)
                side.append((tuple([c // gL * mult for c in row]), rhs // t, top * abs(mult)))
        multiindices.append((L, bounds[L], tuple(row) if gL else None))
    sides = lower + upper if alpha <= Fraction(1, 2) else upper + lower
    # b / max |a| for every row, as integers over one common denominator.
    common = lcm(*{top for _, _, top in sides})
    keys = [rhs * (common // top) for _, rhs, top in sides]
    order = sorted(range(len(sides)), key=keys.__getitem__)
    return CoefficientPolytope(
        n=n,
        k=k,
        alpha=alpha,
        nprime=nprime,
        h_index=h_index,
        scale=fsq.scale,
        multiindices=tuple(multiindices),
        a=tuple([sides[i][0] for i in order]),
        b=tuple([sides[i][1] for i in order]),
    )


def enumerate_vertices(
    p: CoefficientPolytope, counter: StepCounter | None = None
) -> CoefficientPolytope:
    """Attach the exact vertex list (deduplicated, lexicographic order).

    It is stored as the `polytope.Vertices` tuple of double description,
    which carries the vertices' integer keys.
    """
    a, b = p.one_sided()
    return replace(p, vertices=enumerate_vertices_dd(a, b, counter).keyed)


@dataclass(frozen=True)
class ComponentwiseMax:
    vertex: tuple[Fraction, ...] | None
    certificate: tuple[tuple[Fraction, ...], tuple[Fraction, ...]] | None = None


def componentwise_max(vertices: Sequence[Sequence[Fraction]]) -> ComponentwiseMax:
    """The vertex dominating all others coordinatewise, if it exists.

    Otherwise a certificate pair of vertices each beating the other in
    some coordinate.  Both are found on the vertices' integer keys
    (`polytope.vertex_keys`), which a vertex tuple of double description
    carries.
    """
    if not vertices:
        raise ValueError("empty vertex list")
    keys = vertex_keys(vertices)[0]
    top = _peak_index(keys)
    if top is not None:
        return ComponentwiseMax(vertex=tuple(vertices[top]))
    # No maximum: exhibit two maximal incomparable vertices.
    first, later = _incomparable_pair(keys)
    certificate = (tuple(vertices[first]), tuple(vertices[later]))
    return ComponentwiseMax(vertex=None, certificate=certificate)


def _peak_index(points: list[tuple]) -> int | None:
    """Index of the first point attaining every coordinate's maximum, or None."""
    try:
        return points.index(tuple(map(max, zip(*points))))
    except ValueError:
        return None


def convex_peeling(
    k: int, nprime: int, counter: StepCounter | None = None
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Layers of convex-hull vertices, stripped off the degree-n' lattice points.

    Each layer is read off one double description, whose steps tick
    `counter`: the hull vertices of the remaining points are those whose
    rows in the polar about the centroid (n'/k) 1 define facets
    (`polytope.facet_rows`).  Over the first k - 1 coordinates m' of a
    point its polar row is (k m' - n' 1).y <= k.  The polar is bounded
    because the remaining set spans the sum-zero hyperplane (see the
    module docstring).  A lone remaining point is the centroid, its own
    last layer.
    """
    if k < 2 or nprime < 0:
        raise ValueError("need k >= 2 and nprime >= 0")
    remaining = _grevlex_desc(k, nprime)
    layers = []
    while len(remaining) > 1:
        rows = [tuple([k * c - nprime for c in m[:-1]]) for m in remaining]
        vertices, faces = vertex_faces(rows, [k] * len(rows), counter)
        hull = set(facet_rows(faces, len(vertices)))
        layers.append(tuple(m for i, m in enumerate(remaining) if i in hull))
        remaining = [m for i, m in enumerate(remaining) if i not in hull]
    if remaining:
        layers.append(tuple(remaining))
    return tuple(layers)


EXISTS = "exists"
NOT_EXISTS = "not_exists"
CANDIDATE = "candidate"


@dataclass(frozen=True)
class UMPUVerdict:
    status: str
    h_star: Polynomial | None = None
    beta: PowerPolynomial | None = None
    c_vertices: tuple[tuple[Fraction, ...], ...] = ()
    failing_layer: int | None = None
    certificate: tuple[tuple[Fraction, ...], tuple[Fraction, ...]] | None = None
    reason: str = ""


def umpu_search(
    f: Polynomial,
    n: int,
    alpha: Fraction,
    counter: StepCounter | None = None,
) -> UMPUVerdict:
    """Decide UMPU existence for the principal hypothesis I(P0) = <f>.

    A componentwise-maximum vertex is sufficient (Exists).  Failing that,
    the necessary layer conditions are checked along the convex peeling
    on the face of vertices that attain every earlier layer's maxima: a
    layer fails when no vertex of the face attains all of its coordinate
    maxima, and the certificate pairs the layer projections of the
    lex-smallest maximizers.  Any failing layer refutes existence, while
    passing all layers leaves the unique candidate h* (sufficiency beyond
    the vertex criterion is not decided).
    """
    poly = enumerate_vertices(coefficient_polytope(f, n, alpha, counter), counter)
    assert poly.vertices is not None
    # Every maximum and tie is read off the vertices' integer keys, which
    # the vertex tuple carries; the per-coordinate maxima form a vertex
    # exactly when one vertex dominates all others.  The face is carried
    # as vertex indices.
    keys = vertex_keys(poly.vertices)[0]
    top = _peak_index(keys)
    if top is None:
        face, layers = range(len(keys)), convex_peeling(poly.k, poly.nprime, counter)
        status, reason = CANDIDATE, "necessary layer conditions hold; sufficiency undecided"
    else:
        face, layers = [top], []
        status, reason = EXISTS, "componentwise maximum vertex"
    position = {J: i for i, J in enumerate(poly.h_index)}
    for layer_no, layer in enumerate(layers):
        if counter is not None:
            counter.tick()
        face_keys = [keys[i] for i in face]
        maxima = {position[J]: max(v[position[J]] for v in face_keys) for J in layer}
        attained = [i for i, v in zip(face, face_keys) if all(v[p] == m for p, m in maxima.items())]
        if not attained:
            # Project each coordinate's lex-smallest maximizer onto the layer.
            # None of them attains every maximum (it would be in `attained`),
            # so the projections have no maximum and hold an incomparable pair.
            layer_pos = sorted(maxima)
            argmax = [next(i for i in face if keys[i][p] == maxima[p]) for p in layer_pos]
            pair = _incomparable_pair([tuple([keys[i][q] for q in layer_pos]) for i in argmax])
            return UMPUVerdict(
                status=NOT_EXISTS,
                c_vertices=poly.vertices,
                failing_layer=layer_no,
                certificate=tuple(
                    tuple([poly.vertices[argmax[j]][q] for q in layer_pos]) for j in pair
                ),
                reason=(
                    f"projected layer {layer_no} has no componentwise maximum: "
                    "per-coordinate maxima are jointly infeasible"
                ),
            )
        face = attained

    # The face is the peak, or, as the layers cover every coordinate, the
    # single vertex h* they leave.
    h_star = poly.vertices[face[0]]
    return UMPUVerdict(
        status=status,
        h_star=poly.h_polynomial(h_star),
        beta=poly.power_polynomial(h_star),
        c_vertices=poly.vertices,
        reason=reason,
    )


def _incomparable_pair(points) -> tuple[int, int] | None:
    """Indices of the first incomparable pair among the maximal points, in input order.

    Two distinct maximal points never dominate each other, so the pair is
    the first maximal point and the first later one with another value.
    A lone maximal value dominates every point: a peak, and no pair.
    """

    def dominates(x, y):
        return all(a >= b for a, b in zip(x, y))

    # A strict dominator of p is lex-greater than p and dominance is
    # transitive, so in descending lex order p is maximal exactly when no
    # maximum found before it dominates it.
    maxima: list = []
    for p in sorted(set(points), reverse=True):
        if not any(dominates(q, p) for q in maxima):
            maxima.append(p)
    if len(maxima) < 2:
        return None
    kept = set(maxima)
    first = next(i for i, p in enumerate(points) if p in kept)
    later = next(i for i, p in enumerate(points) if p in kept and p != points[first])
    return (first, later)
