"""Unbiasedness thresholds and UMPU power polynomials at the threshold.

The sum-of-squares route: a reduced Groebner basis of the vanishing ideal
under a graded order gives the minimum degree of a nonzero ideal element
(hence the NTUB bound 2*min deg) and the cut-out degree d, the smallest
degree at which the low-degree basis elements already carve out the null
set (SUB bound 2d).  From the largest generator degree D on, the
low-degree elements generate the whole ideal, so those degrees pass with
no computation; the linear elements alone never carve out the set when
higher ones remain; at any other degree below D, membership of the
discarded elements in the radical of the low-degree ideal certifies d.
The criterion works over the complex variety, so it is conservative and
flagged as such in the report.  A null set with no point on the simplex
is refused: a basis holding a constant, a linear basis whose equations
cut the simplex in no point, or a generator that homogenizes to a form
with coefficients of one sign and every pure power present.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Sequence

from powerpoly.groebner import GroebnerBasis, StepCounter, radical_membership
from powerpoly.hypotheses import NullHypothesis, _linear_rows, rank_lt
from powerpoly.linalg import primitive_scaling
from powerpoly.parser import exact_rational
from powerpoly.polynomial import Packing, Polynomial, packed_addmul, simplex_coefficients
from powerpoly.polytope import enumerate_vertices_dd
from powerpoly.power import PowerPolynomial, require_test_size

EXACT = "exact_under_theorem"
SOS_ONLY = "sos_upper_bound_only"


def _sum_of_squares(
    nvars: int, polys: Sequence[Polynomial], square_of: int = 0
) -> tuple[Polynomial, Polynomial]:
    """(sum of g^2 over `polys`, the g^2 of the one at `square_of`).

    Each g is s * G with G its primitive integer map (`Packing.pack`), so
    g^2 = s^2 G^2.  The scales s^2 are written as primitive integers k
    over one rational scale c, and sum k * G^2 is accumulated on packed
    monomials (16-bit words, as in the Groebner core) into one integer
    term map: each G^2 by the symmetric kernel (`_add_square`), except the
    one at `square_of`, which is formed on its own by the product kernel
    and then added in.  No Fraction is built per term.
    """
    packing = Packing(nvars)
    forms, scales = [], []
    for g in polys:
        packing.check(2 * g.total_degree())
        form, s = packing.pack(g)
        forms.append(form)
        scales.append(s * s)
    ks, num, den = primitive_scaling(scales)
    out: dict = {}
    for i, (k, form) in enumerate(zip(ks, forms)):
        if i == square_of:
            square: dict = {}
            for m, coeff in form.items():
                packed_addmul(square, coeff, m, form)
            packed_addmul(out, k, 0, square)
            single = packing.unpack(square, scales[i])
        else:
            _add_square(out, k, form)
    return packing.unpack({m: c for m, c in out.items() if c}, Fraction(num, den)), single


def _add_square(acc: dict, k: int, form: dict):
    """acc += k * form^2 on packed monomials, by the symmetric kernel: each
    square term k c^2 once, and each cross term 2 k c c' once.  A cancelled
    term stays in `acc` as a 0, for the caller to drop."""
    items = list(form.items())
    get = acc.get
    for i, (m, c) in enumerate(items):
        kc = k * c
        acc[m + m] = get(m + m, 0) + kc * c
        kc += kc
        for m2, c2 in items[i + 1:]:
            m2 += m
            acc[m2] = get(m2, 0) + kc * c2


def _definite_form(g: Polynomial, k: int) -> bool:
    """True when g, homogenized by p_1 + ... + p_k to its degree d, has
    all its coefficients of one sign, with a nonzero one at every pure
    power p_i^d.

    Such a form vanishes at p only where each of its monomials does, and
    the pure powers then force every p_i to 0, which is no simplex point.
    A generator in k - 1 variables (p_k substituted) gains p_k with
    exponent 0.  The coefficient of p_i^d is the value of g at the vertex
    e_i, so vertices where g is 0 or changes sign settle the question
    before anything is homogenized.  Only signs matter, so the integer
    map `ints` (g over its positive scale) is read.
    """
    vertex = [0] * k
    for m, c in g.ints.items():
        support = [i for i, e in enumerate(m) if e]
        if len(support) < 2:
            for i in support or range(k):
                vertex[i] += c
    if not (min(vertex) > 0 or max(vertex) < 0):
        return False
    if g.nvars < k:
        g = Polynomial._of(k, {m + (0,): c for m, c in g.ints.items()}, g.scale)
    positive = vertex[0] > 0
    return all((c > 0) == positive for c in g.homogenize(g.total_degree()).ints.values())


@dataclass(frozen=True)
class ThresholdReport:
    ntub_bound: int
    sub_bound: int
    cut_out_degree: int
    ntub_witness: Polynomial
    sub_witness: Polynomial
    exactness: str
    theorem: str | None = None
    notes: tuple[str, ...] = ()


def sos_bounds(
    gb: GroebnerBasis,
    hypothesis: NullHypothesis | None = None,
    counter: StepCounter | None = None,
) -> ThresholdReport:
    """Threshold bounds from a reduced graded Groebner basis of I(P0).

    The cut-out degree is the least basis degree d whose elements of
    degree <= d carve out the variety.  A degree d at or above the
    basis's `generator_degree` D passes without a check: there the
    elements of degree <= d generate the ideal, so every element of
    higher degree is a member of it, hence of its radical.  Degree 1
    fails without a check while elements of higher degree remain, for
    the basis is reduced (Cox, Little & O'Shea, ch. 2 §7): its linear
    elements have distinct leading variables, so they are a Groebner
    basis of the ideal they generate; that ideal is prime, an affine
    subspace (the unit ideal is refused earlier); and every higher
    element is its own nonzero remainder modulo them, so it is not in
    their radical.  Every other degree is checked by `radical_membership`.
    A basis built by hand records no D, and every degree from 2 on is
    then checked.

    The SUB witness is the sum of the squares of the basis elements of
    degree <= d: nonnegative, of degree 2d, zero exactly where those
    elements all vanish.  The NTUB witness is the square, of degree
    2 min deg, of the least-degree element with the smallest leading
    monomial.  P0 is empty, and refused, when the basis holds a constant,
    when the basis is linear and one double description of its equations
    on the simplex (`hypotheses._linear_rows`, its steps drawn from
    `counter`) finds no vertex, or when a generator of `hypothesis` has
    one strict sign on the simplex (`_definite_form`).
    The basis lives in the k - 1 coordinates left once p_k = 1 - sum(p)
    is substituted.
    """
    elements = list(gb.elements)
    if not elements:
        raise ValueError("empty Groebner basis")
    if gb.contains_constant():
        raise ValueError(
            "empty null set: the generators have no common zero on sum(p) = 1, so P0 has no point"
        )
    degrees = sorted({g.total_degree() for g in elements})
    if degrees == [1] and not enumerate_vertices_dd(*_linear_rows(elements, gb.nvars + 1), counter):
        raise ValueError(
            "empty null set: the linear generators meet the simplex nowhere, so P0 has no point"
        )
    if hypothesis is not None and any(_definite_form(g, hypothesis.k) for g in hypothesis.generators):
        raise ValueError(
            "empty null set: a generator has one strict sign on the simplex, so P0 has no point"
        )
    min_deg = degrees[0]
    # Of the lowest degree, the smallest leading monomial: the largest key.
    key = Packing(gb.nvars, gb.order, degrees[-1]).key
    g_min = max(elements, key=lambda g: key(g.leading_monomial(gb.order)))
    notes: list[str] = []

    cut_out = degrees[-1]
    top = gb.generator_degree
    for d in degrees:
        lower = [g for g in elements if g.total_degree() <= d]
        rest = [g for g in elements if g.total_degree() > d]
        if d == 1 and rest:
            continue  # the radical of a linear `lower` holds no element of `rest`
        if (top is not None and d >= top) or all(
            radical_membership(g, lower, counter) for g in rest
        ):
            cut_out = d
            if rest:
                notes.append(
                    f"elements of degree > {d} certified redundant by complex "
                    "radical membership (conservative for the real simplex cut-out)"
                )
            break

    # g_min has the least degree, so it is among the squares of the SUB
    # witness, and its square there is the NTUB witness.
    squared = [g for g in elements if g.total_degree() <= cut_out]
    sub_witness, ntub_witness = _sum_of_squares(
        g_min.nvars, squared, next(i for i, g in enumerate(squared) if g is g_min)
    )

    exactness, theorem = SOS_ONLY, None
    if hypothesis is not None and hypothesis.family in ("independence", "rank_lt"):
        exactness, theorem = EXACT, "bounded-rank threshold"
    elif len(degrees) == 1:
        exactness, theorem = EXACT, "equal-degree graded representation"
    if exactness == SOS_ONLY:
        notes.append("bounds are SOS upper bounds; no lower-bound theorem applied")

    return ThresholdReport(
        ntub_bound=2 * min_deg,
        sub_bound=2 * cut_out,
        cut_out_degree=cut_out,
        ntub_witness=ntub_witness,
        sub_witness=sub_witness,
        exactness=exactness,
        theorem=theorem,
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class UMPUPower:
    """Power polynomial of the UMPU test at the threshold sample size."""

    c_alpha: Fraction
    beta: PowerPolynomial


def _level(shape: Polynomial, n: int, alpha: Fraction) -> UMPUPower:
    """c_alpha * shape + alpha * (sum pi)^n with the largest c_alpha inside the box.

    On integers: shape = (g / den) P, its `scale` times its primitive `ints`,
    and alpha = p / q.  Term x caps c_alpha at (1 - alpha) B_x / s_x when
    s_x > 0 and at alpha B_x / -s_x when s_x < 0, that is at
    den / (q g) times r_x, with r_x = (q - p) B_x / P_x or p B_x / -P_x.
    With c_n / c_d the least r_x, the x-coefficient of beta is
    (c_n P_x + p c_d B_x) / (q c_d).
    """
    bounds = simplex_coefficients(shape.nvars, n)
    g, den = shape.scale.numerator, shape.scale.denominator
    p, q = alpha.numerator, alpha.denominator
    c_n, c_d = 0, 0
    for x, c in shape.ints.items():
        r_n, r_d = ((q - p) * bounds[x], c) if c > 0 else (p * bounds[x], -c)
        if not c_d or r_n * c_d < c_n * r_d:
            c_n, c_d = r_n, r_d
    if not c_d:
        raise ValueError("zero separating polynomial")
    nums = {x: p * c_d * bound for x, bound in bounds.items()}
    for x, c in shape.ints.items():
        nums[x] += c_n * c
    beta = PowerPolynomial.from_numerators(n, shape.nvars, nums, q * c_d)
    return UMPUPower(Fraction(den * c_n, q * g * c_d), beta)


def require_principal(f: Polynomial, n: int, alpha, fold: int) -> tuple[Fraction, Polynomial]:
    """Check (f, n, alpha) for a UMPU level built on f~^fold: (alpha, f~).

    Refuses, in this order, an alpha that `parser.exact_rational` refuses
    (such as a float) or that lies outside (0, 1), a constant f, n below
    fold * deg f, a size n or category count k that no test has
    (`require_test_size`), and an f constant on sum(p) = 1.  On that
    hyperplane f is its homogenization f~, constant there exactly when
    f~ = c (sum p)^deg: a form that vanishes on the hyperplane vanishes.
    Then f has no zero on the simplex (c != 0) or vanishes on all of it
    (c = 0), and neither splits the simplex.  For {f <= 0} (fold 1) a
    c < 0 makes the null set the whole simplex too.
    """
    alpha = exact_rational(alpha)
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    deg = f.total_degree()
    if deg < 1:
        raise ValueError("generator must be nonconstant")
    if n < fold * deg:
        raise ValueError(f"sample size {n} below threshold {fold * deg}")
    require_test_size(n, f.nvars)
    ftilde = f.homogenize(deg)
    bounds = simplex_coefficients(f.nvars, deg)
    values = {Fraction(ftilde.ints.get(m, 0), b) for m, b in bounds.items()}
    if len(values) == 1:
        c = values.pop()
        if c == 0 or fold == 1 and c < 0:
            sign = "vanishes" if c == 0 else "is negative"
            raise ValueError(
                f"null set is the whole simplex, no alternative: f {sign} wherever sum(p) = 1"
            )
        raise ValueError("empty null set: f has no zero on sum(p) = 1, so P0 has no point")
    return alpha, ftilde


def principal_umpu(f: Polynomial, n: int, alpha: Fraction) -> UMPUPower:
    """beta = c_alpha * f~^2 + alpha for a principal vanishing ideal <f>.

    At n = 2*deg(f) (and under the nonvanishing-gradient hypothesis) this
    is the unique UMPU power polynomial; c_alpha is the largest constant
    keeping beta inside the coefficient box.
    """
    alpha = require_principal(f, n, alpha, 2)[0]
    return _level((f * f).homogenize(n), n, alpha)


def semialgebraic_umpu(f: Polynomial, n: int, alpha: Fraction) -> UMPUPower:
    """beta = c_alpha * f~ + alpha for the one-sided hypothesis {f <= 0}."""
    alpha = require_principal(f, n, alpha, 1)[0]
    return _level(f.homogenize(n), n, alpha)


def union_separating(witnesses: Sequence[Polynomial]) -> Polynomial:
    """Product of component separating polynomials; degree adds up.

    A product of NTUB (resp. SUB) separating polynomials separates the
    union hypothesis the same way.
    """
    ws = list(witnesses)
    if not ws:
        raise ValueError("need at least one witness")
    out = ws[0]
    for w in ws[1:]:
        out = out * w
    return out


def rank_threshold(
    p: int,
    q: int,
    r: int,
    counter: StepCounter | None = None,
    *,
    minors: Sequence[Polynomial] | None = None,
) -> ThresholdReport:
    """Thresholds for the bounded-rank table hypothesis: both equal 2r.

    The SUB witness squares C(p, r) C(q, r) minors of r! terms each: one
    step of `counter` per term product, drawn before any minor is built
    or squared.  `minors` are the generators of `rank_lt(p, q, r)` when
    the caller has them already; otherwise they are built here.
    """
    if counter is not None:
        counter.tick(comb(p, r) * comb(q, r) * factorial(r) ** 2)
    if minors is None:
        minors = rank_lt(p, q, r).generators
    # The NTUB witness is the square of the first minor.
    sub_witness, ntub_witness = _sum_of_squares(minors[0].nvars, minors)
    return ThresholdReport(
        ntub_bound=2 * r,
        sub_bound=2 * r,
        cut_out_degree=r,
        ntub_witness=ntub_witness,
        sub_witness=sub_witness,
        exactness=EXACT,
        theorem="bounded-rank threshold",
        notes=(f"{len(minors)} squared {r}x{r} minors in the SUB witness",),
    )
