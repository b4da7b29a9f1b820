"""Null-hypothesis families on the probability simplex.

Builders produce the canonical generator sets (2x2 minors for
independence, r x r minors for bounded rank, the centered sphere
quadric, transposition differences for symmetry, ...), existence checks
for polytope hypotheses read P0's faces as bitmasks off the vertex keys
of one double description (each hypothesis row must define a facet, by
`polytope.facet_rows`, that no other row defines) and take a failing
pair's witness point off its face's vertices with no LP, log-odds
hypotheses reduce to binomials, and exact null points come from four
constructions: positive rank r - 1 products (independence, rank_lt),
positive mixtures of the vertices of one double description
(affine, symmetry, polytope), lines through one rational sphere point
aimed at float targets on the sphere inside the simplex, and positive
points rescaled onto the log-odds binomial.  Every linear null set is one
row list, `_polytope_rows` over the first k - 1 coordinates, for both the
existence check and the vertex mixtures.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import gcd, isqrt, lcm, prod, sqrt
from operator import mul
from typing import Sequence

from powerpoly.groebner import StepCounter
from powerpoly.linalg import primitive_scaling
from powerpoly.parser import exact_rational, parse_polynomial
from powerpoly.polynomial import Polynomial, default_names, table_names
from powerpoly.polytope import enumerate_vertices_dd, facet_rows, vertex_faces


class UnsupportedSampling(ValueError):
    """The hypothesis has no built-in rational parameterization."""


def _table_cells(p: int, q: int) -> int:
    """The k = p q cells of a p x q table, flattened row-major: cell (i, j) is i q + j."""
    if p < 2 or q < 2:
        raise ValueError("contingency tables need at least 2 rows and 2 columns")
    return p * q


@dataclass(frozen=True)
class NullHypothesis:
    """A description of the null set P0 inside the (k-1)-simplex."""

    k: int
    family: str
    names: tuple[str, ...]
    generators: tuple[Polynomial, ...] = ()
    polytope_a: tuple[tuple[Fraction, ...], ...] = ()
    polytope_b: tuple[Fraction, ...] = ()
    params: dict = field(default_factory=dict)
    generators_substituted: bool = False

    def substituted_generators(self) -> list[Polynomial]:
        """Generators in the first k-1 coordinates (pi_k eliminated)."""
        if self.generators_substituted:
            return list(self.generators)
        return [g.substitute_last() for g in self.generators]

    def substituted_names(self) -> list[str]:
        if self.generators_substituted:
            return list(self.names)
        return list(self.names[:-1])


def _minor(nvars: int, q: int, rows, cols) -> Polynomial:
    """Determinant of the square submatrix on the given row/col indices of a q-column table.

    Leibniz formula: one squarefree monomial per permutation, with
    coefficient +1 or -1 by the permutation's parity.
    """
    r = len(rows)
    terms = {}
    for perm in itertools.permutations(range(r)):
        inversions = sum(perm[i] > perm[j] for i in range(r) for j in range(i + 1, r))
        mono = [0] * nvars
        for i in range(r):
            mono[rows[i] * q + cols[perm[i]]] = 1
        terms[tuple(mono)] = -1 if inversions & 1 else 1
    return Polynomial._of(nvars, terms)


def independence(p: int, q: int) -> NullHypothesis:
    """All 2x2 minors of the p x q probability table vanish: rank < 2."""
    return replace(_minors_hypothesis(p, q, 2), family="independence")


def rank_lt(p: int, q: int, r: int) -> NullHypothesis:
    """The table has rank < r: all r x r minors vanish."""
    if not 2 <= r <= min(p, q):
        raise ValueError(f"need 2 <= r <= min(p, q), got r={r}, p={p}, q={q}")
    return _minors_hypothesis(p, q, r)


def _minors_hypothesis(p: int, q: int, r: int) -> NullHypothesis:
    k = _table_cells(p, q)
    squares = itertools.product(
        itertools.combinations(range(p), r), itertools.combinations(range(q), r)
    )
    return NullHypothesis(
        k=k,
        family="rank_lt",
        names=tuple(table_names(p, q)),
        generators=tuple(_minor(k, q, rows, cols) for rows, cols in squares),
        params={"p": p, "q": q, "r": r},
    )


def sphere(k: int, delta=None, delta_sq=None) -> NullHypothesis:
    """Probability vectors at exact squared distance delta^2 from uniform.

    Accepts either a rational radius `delta` or a rational squared radius
    `delta_sq` (the latter covers radii like sqrt(1/6) whose square is
    rational).
    """
    if k < 2:
        raise ValueError("need k >= 2")
    if (delta is None) == (delta_sq is None):
        raise ValueError("give exactly one of delta, delta_sq")
    if delta is not None:
        d = exact_rational(delta)
        if d <= 0:
            raise ValueError("delta must be positive")
        dsq = d * d
    else:
        dsq = exact_rational(delta_sq)
        if dsq <= 0:
            raise ValueError("delta_sq must be positive")
    limit = (1 - Fraction(1, k)) ** 2
    if dsq >= limit:
        raise ValueError(f"delta^2 must be below (1 - 1/k)^2 = {limit}")
    # sum (p_i - 1/k)^2 - delta^2 = sum p_i^2 - (2/k) sum p_i + (1/k - delta^2)
    terms, linear = {}, Fraction(-2, k)
    for i in range(k):
        terms[tuple(2 * (j == i) for j in range(k))] = 1
        terms[tuple(int(j == i) for j in range(k))] = linear
    if dsq != Fraction(1, k):  # _of_rationals takes nonzero coefficients only
        terms[(0,) * k] = Fraction(1, k) - dsq
    g = Polynomial._of_rationals(k, terms)
    return NullHypothesis(
        k=k,
        family="sphere",
        names=tuple(default_names(k)),
        generators=(g,),
        params={"k": k, "delta_sq": dsq},
    )


def symmetry(p: int) -> NullHypothesis:
    """Square-table symmetry: the affine null set pi_ij - pi_ji = 0 for all i < j."""
    k = _table_cells(p, p)
    rows = []
    for i, j in itertools.combinations(range(p), 2):
        row = [0] * k
        row[i * p + j], row[j * p + i] = 1, -1
        rows.append(row)
    hyp = affine(rows, [0] * len(rows), k)
    return replace(hyp, family="symmetry", names=tuple(table_names(p, p)), params={"p": p})


def motzkin() -> NullHypothesis:
    """Zero set of the Motzkin polynomial in the first three coordinates (k=4)."""
    k = 4
    names = default_names(k)
    g = parse_polynomial(
        "p3^6 + p1^2*p2^4 + p2^2*p1^4 - 3*p1^2*p2^2*p3^2", names
    )
    return NullHypothesis(
        k=k,
        family="motzkin",
        names=tuple(names),
        generators=(g,),
        params={},
    )


def affine(c_rows: Sequence[Sequence], d: Sequence, k: int) -> NullHypothesis:
    """Affine constraints c_i . pi = d_i on the simplex (ambient coordinates)."""
    rows = [[exact_rational(v) for v in row] for row in c_rows]
    rhs = [exact_rational(v) for v in d]
    if len(rows) != len(rhs) or any(len(r) != k for r in rows):
        raise ValueError("affine constraint dimensions do not match k")
    if not rows:
        raise ValueError("need at least one affine constraint")
    gens = []
    for row, b in zip(rows, rhs):
        terms = {(0,) * k: -b} if b else {}
        for i, coeff in enumerate(row):
            if coeff:
                terms[tuple(int(i == j) for j in range(k))] = coeff
        if not terms:
            raise ValueError("zero affine constraint")
        gens.append(Polynomial._of_rationals(k, terms))
    return NullHypothesis(
        k=k,
        family="affine",
        names=tuple(default_names(k)),
        generators=tuple(gens),
        params={"C": rows, "d": rhs, "k": k},
    )


def polytope_hypothesis(a_rows: Sequence[Sequence], b: Sequence, k: int) -> NullHypothesis:
    """P0 = {pi in projected simplex : A pi >= b}; rows in k-1 coordinates."""
    rows = tuple(tuple(exact_rational(v) for v in row) for row in a_rows)
    rhs = tuple(exact_rational(v) for v in b)
    if len(rows) != len(rhs) or any(len(r) != k - 1 for r in rows):
        raise ValueError("polytope rows must have k-1 columns")
    return NullHypothesis(
        k=k,
        family="polytope",
        names=tuple(default_names(k)),
        polytope_a=rows,
        polytope_b=rhs,
        params={"k": k},
    )


def log_odds(a: Sequence, c, k: int) -> NullHypothesis:
    """Rational log-odds hypothesis sum a_i log(pi_i / pi_k) = log(c).

    Only rational coefficient vectors are accepted: with an irrational
    coefficient no non-trivial unbiased test exists, so there is nothing
    to compute.
    """
    try:
        coeffs = [exact_rational(v) for v in a]
    except ValueError as exc:
        raise ValueError(
            f"{exc}; irrational log-odds coefficients admit no non-trivial unbiased test"
        ) from exc
    target = exact_rational(c)
    binom = log_odds_to_binomial(coeffs, target, k)
    return NullHypothesis(
        k=k,
        family="logodds",
        names=tuple(default_names(k)),
        generators=(binom,),
        params={"a": coeffs, "c": target, "k": k},
    )


def custom(generators: Sequence[Polynomial], k: int, names=None, substituted=False) -> NullHypothesis:
    gens = tuple(generators)
    if not gens:
        raise ValueError("need at least one generator")
    expected = k - 1 if substituted else k
    for g in gens:
        if g.nvars != expected:
            raise ValueError(f"generator has {g.nvars} variables, expected {expected}")
        if g.total_degree() < 1:
            raise ValueError("generators must be nonconstant")
    if names is None:
        names = default_names(expected)
    return NullHypothesis(
        k=k,
        family="custom",
        names=tuple(names),
        generators=gens,
        params={"k": k},
        generators_substituted=substituted,
    )


def _integer(value) -> int:
    """Integer from JSON payloads: only a JSON integer.

    A float or a bool is refused, not truncated, and a string, not parsed.
    """
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _boolean(value) -> bool:
    """Boolean from JSON payloads: only true or false, not a string such as "false"."""
    if not isinstance(value, bool):
        raise ValueError(f"expected a JSON boolean, got {value!r}")
    return value


def _strings(value, name: str) -> list[str]:
    """List of strings from JSON payloads; a lone string is refused, not split."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ValueError(f"expected {name} as a list of strings, got {value!r}")
    return value


def _list(value, name: str) -> list:
    """List from JSON payloads; a string is refused, not read one character at a time."""
    if type(value) is not list:
        raise ValueError(f"expected {name} as a list, got {value!r}")
    return value


def _rows(value, name: str) -> list[list]:
    """List of lists from JSON payloads: a matrix given by its rows."""
    return [_list(row, f"each row of {name}") for row in _list(value, name)]


def build_hypothesis(spec: dict) -> NullHypothesis:
    """Construct from the JSON form {"kind": ..., "params": {...}}."""
    kind = spec.get("kind")
    params = spec.get("params", {})
    if kind == "independence":
        return independence(_integer(params["p"]), _integer(params["q"]))
    if kind == "rank_lt":
        return rank_lt(_integer(params["p"]), _integer(params["q"]), _integer(params["r"]))
    if kind == "sphere":
        return sphere(
            _integer(params["k"]), delta=params.get("delta"), delta_sq=params.get("delta_sq")
        )
    if kind == "symmetry":
        return symmetry(_integer(params["p"]))
    if kind == "motzkin":
        return motzkin()
    # The builders read every rational through `parser.exact_rational`.
    if kind == "affine":
        return affine(_rows(params["C"], "C"), _list(params["d"], "d"), _integer(params["k"]))
    if kind == "polytope":
        return polytope_hypothesis(
            _rows(params["A"], "A"), _list(params["b"], "b"), _integer(params["k"])
        )
    if kind == "logodds":
        return log_odds(_list(params["a"], "a"), params["c"], _integer(params["k"]))
    if kind == "custom":
        k = _integer(params["k"])
        substituted = _boolean(params.get("substituted", False))
        names = params.get("vars")
        if names is None:
            names = default_names(k - 1 if substituted else k)
        else:
            names = _strings(names, "vars")
        texts = _strings(params["generators"], "generators")
        gens = [parse_polynomial(text, names) for text in texts]
        return custom(gens, k, names=names, substituted=substituted)
    raise ValueError(f"unknown hypothesis kind {kind!r}")


# -- log-odds reduction ------------------------------------------------------


def log_odds_to_binomial(a: Sequence[Fraction], c: Fraction, k: int) -> Polynomial:
    """Clear denominators in prod (pi_i/pi_k)^(a_i) = c to pi^I - c' pi^J.

    I and J have disjoint supports and equal total degree, so the binomial
    is homogeneous; its square is an NTUB separating polynomial.
    """
    coeffs = [exact_rational(v) for v in a]
    if len(coeffs) != k - 1:
        raise ValueError(f"need k-1 = {k - 1} coefficients, got {len(coeffs)}")
    if all(v == 0 for v in coeffs):
        raise ValueError("log-odds coefficient vector must be nonzero")
    c = exact_rational(c)
    if c <= 0:
        raise ValueError("odds target must be positive")
    # With a = ints * g / den, the equation is prod (pi_i/pi_k)^(g * ints_i)
    # = c^den; its g-th root drops g when c^den has a rational one.
    ints, g, den = primitive_scaling(coeffs)
    target = c**den
    root = _nth_root(target, g) if g > 1 else None
    if root is None:
        ints = [g * v for v in ints]
    else:
        target = root
    ext = ints + [-sum(ints)]
    left = tuple(max(v, 0) for v in ext)
    right = tuple(max(-v, 0) for v in ext)
    return Polynomial._of_rationals(k, {left: 1, right: -target})


def _nth_root(value: Fraction, n: int) -> Fraction | None:
    """Exact rational n-th root of a non-negative rational, or None."""

    def iroot(x: int) -> int | None:
        if x < 2:
            return x
        if n == 2:
            r = isqrt(x)
        else:
            # Integer Newton from above: the iterates fall to floor(x^(1/n)).
            r = 1 << -(-x.bit_length() // n)
            while (y := ((n - 1) * r + x // r ** (n - 1)) // n) < r:
                r = y
        return r if r**n == x else None

    if value < 0:
        return None
    num = iroot(value.numerator)
    den = iroot(value.denominator)
    if num is None or den is None:
        return None
    return Fraction(num, den)


# -- polytope hypothesis existence -------------------------------------------


@dataclass(frozen=True)
class ExistenceVerdict:
    exists: bool
    witness: Polynomial | None = None  # separating polynomial (k-1 variables)
    failing_pair: tuple[int, int] | None = None
    witness_point: tuple[Fraction, ...] | None = None


def _polytope_rows(a_rows, b, d: int) -> tuple[list[list[Fraction]], list[Fraction]]:
    """P0 as `<=` rows over the k-1 projected coordinates.

    The rows are -a_i.x <= -b_i for the hypothesis, then -x_i <= 0, then
    sum(x) <= 1 for the simplex.
    """
    rows = [[-exact_rational(v) for v in row] for row in a_rows]
    rhs = [-exact_rational(v) for v in b]
    for i in range(d):
        rows.append([Fraction(-int(i == j)) for j in range(d)])
        rhs.append(Fraction(0))
    rows.append([Fraction(1)] * d)
    rhs.append(Fraction(1))
    return rows, rhs


def polytope_existence(
    a_rows, b, k: int, counter: StepCounter | None = None
) -> ExistenceVerdict:
    """Decide NTUB/SUB existence for a full-dimensional polytope hypothesis.

    P0 = {pi in projected simplex : A pi >= b}.  Existence holds iff no two
    facet hyperplanes H_i and H_j meet P0 inside the open simplex; the
    verdict carries either the product separating polynomial or an
    interior witness point for the first violating pair.  Every check
    reads off P0's faces, with no arithmetic: one double description of
    its `<=` rows (hypothesis rows, then simplex rows) gives the vertices
    and each row's face, the bitmask of the vertices tight on it, read
    off the vertices' integer keys.  The witness point comes off the
    failing face too, with no LP: the deepest inside the simplex of its
    vertices and their centroid.
    """
    d = k - 1
    if any(len(r) != d for r in a_rows):
        raise ValueError(f"rows must have k-1 = {d} columns")
    if not a_rows:
        raise ValueError("need at least one halfspace row")
    if len(b) != len(a_rows):
        raise ValueError("need one bound per halfspace row")
    rows, rhs = _polytope_rows(a_rows, b, d)
    m = len(a_rows)
    vertices, faces = vertex_faces(rows, rhs, counter)
    if not vertices:
        raise ValueError("empty polytope hypothesis: P0 has no point")
    # P0 is a polytope, so a row tight on every vertex is tight on all of
    # P0; with a nonzero normal it holds P0 in a hyperplane.
    whole = (1 << len(vertices)) - 1
    if any(face == whole and any(row) for face, row in zip(faces, rows)):
        raise ValueError("polytope hypothesis is not full-dimensional in the simplex")

    # Row i is irredundant exactly when its face is a facet that no other
    # row defines too.  A zero row tight everywhere has the face P0, which
    # is not proper.
    facets = set(facet_rows(faces, len(vertices)))
    for i in range(m):
        if i not in facets or faces.count(faces[i]) > 1:
            raise ValueError(f"halfspace row {i} is redundant: it does not cut P0")

    # Pairwise condition: the face on H_i and H_j fails when it is nonempty
    # and lies on no simplex row, for then its relative interior, which
    # holds the centroid of its vertices, lies in the open simplex.  The
    # witness is the deepest of the face's vertices and that centroid, by
    # the least simplex margin; ties go to the first, the centroid last.
    for i, j in itertools.combinations(range(m), 2):
        common = faces[i] & faces[j]
        if common and all(common & ~face for face in faces[m:]):
            face = [v for n, v in enumerate(vertices) if common >> n & 1]
            face.append(tuple(sum(c) / len(face) for c in zip(*face)))
            point = max(face, key=lambda x: min(*x, 1 - sum(x)))
            return ExistenceVerdict(exists=False, failing_pair=(i, j), witness_point=point)

    witness = Polynomial.constant(d, -1)
    for row, bound in zip(rows[:m], rhs):
        terms = {(0,) * d: bound} if bound else {}
        terms.update({tuple(int(i == j) for j in range(d)): -c for i, c in enumerate(row) if c})
        witness = witness * Polynomial._of_rationals(d, terms)
    return ExistenceVerdict(exists=True, witness=witness)


# -- exact null-point sampling ----------------------------------------------

_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71]


def _vdc(index: int, base: int) -> tuple[int, int]:
    """Van der Corput radical inverse, a low-discrepancy rational in (0,1),
    as (numerator, denominator)."""
    num, den = 0, 1
    i = index
    while i > 0:
        num = num * base + (i % base)
        den *= base
        i //= base
    return (num, den) if num else (1, 2 * base)


def _halton_bases(dim: int) -> list[int]:
    """The first `dim` primes.  A base used twice would repeat a coordinate,
    and a rank table whose entries repeat can lose rank."""
    primes, n = _PRIMES[:dim], _PRIMES[-1]
    while len(primes) < dim:
        n += 2
        if all(n % p for p in primes):
            primes.append(n)
    return primes


def _halton_ints(index: int, dim: int) -> tuple[list[int], int]:
    """The Halton point `index` in the bases `_halton_bases(dim)`, over one
    denominator: (numerators, den)."""
    u = [_vdc(index, b) for b in _halton_bases(dim)]
    den = lcm(*(d for _, d in u))
    return [n * (den // d) for n, d in u], den


def sample_null_points(h: NullHypothesis, count: int, seed: int) -> list[tuple[Fraction, ...]]:
    """`count` rational points lying exactly in P0 and on the simplex.

    Deterministic: the points come from a low-discrepancy rational
    sequence offset by `seed`, through one of four constructions.
    """
    if count < 1:
        raise ValueError("count must be positive")
    base = seed * 7919 + 1
    if h.family in ("independence", "rank_lt"):
        return _sample_rank(h, count, base)
    if h.family in ("affine", "symmetry", "polytope"):
        return _sample_linear(h, count, base)
    if h.family == "sphere":
        return _sample_sphere(h, count, base)
    if h.family == "logodds":
        return _sample_logodds(h, count, base)
    raise UnsupportedSampling(
        f"no rational parameterization for hypothesis family {h.family!r}"
    )


def _sample_rank(h: NullHypothesis, count: int, base: int):
    """Tables A B / sum(A B), A (p x (r-1)) and B ((r-1) x q) positive.

    A Halton point over one denominator gives A's and B's integer entries,
    so the table has rank at most r - 1 and every r x r minor vanishes.
    """
    p, q = h.params["p"], h.params["q"]
    s = h.params["r"] - 1
    out = []
    for t in range(count):
        u = _halton_ints(base + t, s * (p + q))[0]
        b = u[p * s :]
        table = [sum(map(mul, u[i : i + s], b[j::q])) for i in range(0, p * s, s) for j in range(q)]
        total = sum(table)
        out.append(tuple(Fraction(v, total) for v in table))
    return out


def _linear_rows(generators: Sequence[Polynomial], k: int, a_rows=(), b=()):
    """`_polytope_rows` over x' = (x_1 .. x_k-1) for the rows a.x' >= b and
    the generators of degree <= 1, in k variables or in the k - 1 of x'.

    Each generator c.x + c0 = 0, with x_k = 1 - sum(x'), gives the two rows
    +-(c' - c_k).x' >= +-(c_k + c0); one in k - 1 variables has c_k = 0.
    """
    a_rows, b = list(a_rows), list(b)
    for g in generators:
        n = g.nvars
        c = [g.terms.get(tuple(int(i == j) for j in range(n)), 0) for i in range(n)]
        c += [0] * (k - n)
        c0 = g.terms.get((0,) * n, 0)
        row = [v - c[-1] for v in c[:-1]]
        a_rows += [row, [-v for v in row]]
        b += [-c[-1] - c0, c[-1] + c0]
    return _polytope_rows(a_rows, b, k - 1)


def _sample_linear(h: NullHypothesis, count: int, base: int):
    """Mixtures of the vertices of P0, the simplex cut by linear equations
    (the generators of affine and symmetry) or halfspaces (polytope).

    One double description on `_linear_rows`, the rows `polytope_existence`
    reads for a polytope, whose vertices carry their integer keys over one
    denominator den.  Each vertex gets x_k = 1 - sum(x') back, the key
    den - sum(keys): x_k is a function of x', so the vertices keep their
    lex order.
    """
    rows, rhs = _linear_rows(h.generators, h.k, h.polytope_a, h.polytope_b)
    vertices = enumerate_vertices_dd(rows, rhs)
    den = vertices.den
    keys = [(*key, den - sum(key)) for key in vertices.keys]
    # A mixture with positive weights is positive in coordinate i exactly
    # when some vertex is.
    if not all(any(key[i] for key in keys) for i in range(h.k)):
        raise ValueError(f"{h.family} hypothesis has no relative-interior simplex point")
    return _vertex_mixtures(keys, den, count, base)


def _vertex_mixtures(keys: Sequence[Sequence[int]], den: int, count: int, base: int):
    """`count` points sum_v w_v v, the weights w > 0 a normalized Halton point.

    The vertices come as integer keys over one denominator (`polytope.Vertices`)
    and the weights as integers over theirs, so each distinct column of
    vertex coordinates (a symmetric table repeats its off-diagonal ones)
    is one Fraction.
    """
    slots: dict = {}
    index = [slots.setdefault(col, len(slots)) for col in zip(*keys)]
    out = []
    for t in range(count):
        w = _halton_ints(base + t, len(keys))[0]
        scale = sum(w) * den
        values = [Fraction(sum(map(mul, w, col)), scale) for col in slots]
        out.append(tuple(map(values.__getitem__, index)))
    return out


def _zero_sum_patterns(k: int):
    """Deterministic zero-sum integer direction vectors."""
    for i in range(k):
        for j in range(k):
            if i != j:
                v = [0] * k
                v[i], v[j] = 1, -1
                yield v
    for i in range(k):
        for j, l in itertools.combinations([x for x in range(k) if x != i], 2):
            v = [0] * k
            v[j] = v[l] = 1
            v[i] = -2
            yield v


def _sphere_base_point(k: int, dsq: Fraction) -> list[Fraction] | None:
    """A rational point u with sum(u) = 0 and |u|^2 = dsq, if one is found.

    Searches scaled integer zero-sum vectors v with dsq/|v|^2 a rational
    square, lazily and in a fixed order, so the first hit is returned: the
    patterns first, then a small box on the first min(k, 6) coordinates,
    padded with zeros (a point of a smaller sphere's search lies on this
    one too).  Some radii admit no rational points at all (local
    obstructions), in which case sampling is refused.
    """
    m = min(k, 6)
    box = ([*v, -sum(v)] + [0] * (k - m) for v in itertools.product(range(-3, 4), repeat=m - 1))
    candidates = itertools.chain(_zero_sum_patterns(k), (v for v in box if any(v)))
    # Only the norm decides a candidate, so each norm is tested once.
    tried = set()
    for v in candidates:
        norm = sum(x * x for x in v)
        if norm in tried:
            continue
        tried.add(norm)
        root = _nth_root(dsq / norm, 2)
        if root is not None:
            return [root * x for x in v]
    return None


#: Scale of the aimed sphere directions: e = round(_AIM_SCALE (t - u0)).
_AIM_SCALE = 64


def _sample_sphere(h: NullHypothesis, count: int, base: int):
    k = h.k
    dsq = h.params["delta_sq"]
    u0 = _sphere_base_point(k, dsq)
    if u0 is None:
        raise UnsupportedSampling(
            f"found no rational point on the radius^2 = {dsq} sphere; "
            "this radius may admit none"
        )
    if k == 2:
        # The sphere meets the line sum(u) = 0 in +-u0 only, so the line
        # search below finds -u0 alone.  Both points lie in the simplex,
        # since |u0_i|^2 = dsq / 2 < 1/4.
        if count > 2:
            raise UnsupportedSampling(
                f"the radius^2 = {dsq} sphere at k = 2 has only 2 simplex "
                f"points, fewer than the {count} asked for"
            )
        return [tuple(Fraction(1, 2) + s * x for x in u0) for s in (-1, 1)][:count]
    # Each attempt aims a line through u0 at a float target t on the
    # sphere inside the simplex: the sorted spacings of a Halton point are
    # a uniform simplex point, pushed radially from the centroid onto the
    # sphere.  t is computed with correctly rounded IEEE operations only
    # (int division, subtraction, products, sums in a fixed order,
    # `math.sqrt` and `round`), so the points are the same on every
    # platform.  The integer zero-sum direction
    # e = round(_AIM_SCALE (t - u0)), the last entry closing the sum,
    # fixes the candidate; floats never decide whether it is accepted.
    # With u0 = w / W, the second intersection of the line u0 + s e with
    # the sphere is u0 - 2 (w.e) / (W e.e) e, so its simplex point
    # 1/k + that has coordinates ((W + k w_i) e.e - 2 k (w.e) e_i) /
    # (k W e.e).  Each Halton index is one attempt of the budget.
    big_w = lcm(*(x.denominator for x in u0))
    w = [int(x * big_w) for x in u0]
    c, radius = 1 / k, sqrt(float(dsq))
    start = [float(x) for x in u0[:-1]]
    bases = _halton_bases(k - 1)
    out = []
    seen = set()
    for index in range(base, base + 200 * count + 200):
        cuts = sorted(n / d for n, d in (_vdc(index, b) for b in bases))
        v = [cuts[0] - c, *(b - a - c for a, b in zip(cuts, cuts[1:])), 1 - cuts[-1] - c]
        norm = 0.0
        for x in v:
            norm += x * x
        if not norm:
            continue
        scale = radius / sqrt(norm)
        target = [x * scale for x in v]
        if min(target) < -c:
            continue
        e = [round(_AIM_SCALE * (t - s)) for t, s in zip(target, start)]
        e.append(-sum(e))
        ee = sum(x * x for x in e)
        if ee == 0:
            continue
        we2k = 2 * k * sum(map(mul, w, e))
        nums = [(big_w + k * a) * ee - we2k * b for a, b in zip(w, e)]
        if min(nums) >= 0:
            den = k * big_w * ee
            tup = tuple(Fraction(n, den) for n in nums)
            if tup not in seen:
                seen.add(tup)
                out.append(tup)
                if len(out) == count:
                    return out
    raise UnsupportedSampling(
        f"exhausted the search budget with {len(out)} of {count} simplex "
        f"points on the radius^2 = {dsq} sphere"
    )


def _sample_logodds(h: NullHypothesis, count: int, base: int):
    """Points pi = q (c / q^e)^x from positive Halton points q.

    With pi^I = c pi^J, e = I - J and e.x = 1, pi^e = q^e (c / q^e) = c.
    The binomial is homogeneous, so the normalized point stays on it.
    """
    binom = h.generators[0]
    monos = sorted(binom.terms)
    left, right = monos if binom.terms[monos[0]] == 1 else monos[::-1]
    c = -binom.terms[right]
    e = [l - r for l, r in zip(left, right)]
    # log_odds_to_binomial divides the gcd out whenever c has a rational
    # g-th root, so a common factor left here means the root is irrational.
    if gcd(*e) > 1:
        raise UnsupportedSampling(
            "log-odds binomial exponents share a factor whose root of c is irrational"
        )
    x = _solve_unimodular(e)
    out = []
    for t in range(count):
        q = _halton_ints(base + t, h.k)[0]
        s = c * Fraction(prod(map(pow, q, right)), prod(map(pow, q, left)))
        point = [qi * s**xi for qi, xi in zip(q, x)]
        total = sum(point)
        out.append(tuple(v / total for v in point))
    return out


def _solve_unimodular(e: Sequence[int]) -> list[int]:
    """Integer x with e . x = gcd(e) = 1: one extended-Euclid step per entry.

    Before entry v, x solves e' . x = g for the entries e' already read,
    with g their gcd (0 before the first).  The step finds s, t with
    s g + t v = gcd(g, v) >= 0, and x becomes s x followed by t.
    """
    x: list[int] = []
    g = 0
    for v in e:
        (r0, s0, t0), (r1, s1, t1) = (g, 1, 0), (v, 0, 1)  # each row has r = s g + t v
        while r1:
            q = r0 // r1
            (r0, s0, t0), (r1, s1, t1) = (r1, s1, t1), (r0 - q * r1, s0 - q * s1, t0 - q * t1)
        if r0 < 0:
            r0, s0, t0 = -r0, -s0, -t0
        x = [c * s0 for c in x] + [t0]
        g = r0
    if g != 1:
        raise ValueError("exponent vector is not primitive")
    return x
