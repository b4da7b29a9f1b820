"""Multivariate division, Buchberger's algorithm, and ideal membership.

Reduced Groebner bases are computed with the normal selection strategy
(smallest lcm degree first) plus Buchberger's coprime and chain criteria.
The output is the unique reduced basis for the order, so it is independent
of generator order and of any internal parallelism.

Division is fraction-free (Cox, Little & O'Shea, ch. 2; pseudo-division
in Geddes, Czapor & Labahn).  Each divisor is held as a primitive integer
polynomial with a positive leading coefficient lc, and the working
polynomial as an integer term map over one integer denominator D.  At a
popped term a*x^m the first divisor whose leading monomial divides x^m is
chosen, as in rational division; with g = gcd(a, lc) the working map, the
remainder terms collected so far and D are multiplied by lc/g (nothing
happens when lc = 1, as for binomial minors), and then (a/g) * x^(m-lm)
times the divisor's tail is subtracted.  Scaling by a nonzero integer
cancels exactly the terms rational division cancels, so the same
monomials pop, the same divisors are chosen and the step counter ticks
exactly as often; the remainder is a positive rational multiple of the
rational one.  Buchberger's algorithm keeps its basis as primitive
integer forms, builds S-pairs on integers and makes each returned element
monic once, at the end; `reduce` rebuilds the exact rational quotients
and remainder from the same core.

Inside that core every monomial is one int, a packed exponent vector
in 16-bit words (`polynomial.Packing`; Monagan & Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors", CASC
2007), and every add-multiply is the one kernel of all polynomial
products, `polynomial.packed_addmul`.  The working terms sit in a
min-heap of plain ints, and lm divides x^m exactly when
((P_m | G) - P_lm) & G == G for the mask G of the guard bits, since a
field with a smaller exponent borrows its own guard bit and no other; the
quotient is then the difference of the two ints.  A field wraps only when
an exponent reaches 2^15, and under a graded order no exponent met in a
division exceeds the dividend's degree, so each input's degree and each
S-pair's lcm degree is checked against 2^15 (`DEGREE_LIMIT`) and a
ValueError names the limit.  Term maps are packed once on entry
(`Packing.pack`) and unpacked once on exit (`Packing.unpack`), under the
ring's one shared packing (`Packing.of`): a polynomial unpacked by that
packing, such as a substituted generator or a basis element, enters with
the keys it carries.  The
pair loop stays packed too: each pending pair holds the packed lcm of
its leading monomials (`Packing.lcm`), the coprime criterion compares it
with their sum, and the chain criterion and the minimalization test
divisibility with `Packing.divides_bits` on each leading monomial's
exponent fields, read once.

Radical membership uses the Rabinowitsch trick: f vanishes on the complex
variety of `gens` iff 1 lies in <gens, 1 - y*f> in a ring with one extra
variable y (appended last, graded reverse lex).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd
from typing import Sequence

# DEGREE_LIMIT, the limit of the core's 16-bit words, is imported for
# callers of this module.
from powerpoly.polynomial import (
    DEFAULT_ORDER,
    DEGREE_LIMIT,
    MonomialOrder,
    Packing,
    Polynomial,
    packed_addmul,
)


class StepLimitExceeded(RuntimeError):
    """Raised when a computation exceeds the caller's step budget."""


class StepCounter:
    """Counts units of work; `None` limit means unlimited."""

    def __init__(self, limit: int | None = None):
        if limit is not None and limit < 1:
            raise ValueError("step limit must be >= 1")
        self.limit = limit
        self.steps = 0

    def tick(self, amount: int = 1):
        self.steps += amount
        if self.limit is not None and self.steps > self.limit:
            raise StepLimitExceeded(f"computation exceeded step limit {self.limit}")


def _form(lm: int, ints: dict) -> tuple[tuple, int]:
    """Divisor form of an integer map on packed monomials with leading
    monomial `lm`.

    Returns (lm, lc, tail), the map divided by the integer g that leaves
    it primitive with lc > 0, and g.
    """
    g = gcd(*ints.values())
    if ints[lm] < 0:
        g = -g
    tail = {m: c // g for m, c in ints.items()}
    return (lm, tail.pop(lm), tail), g


def _divide(work: dict, divisors: Sequence[tuple], packing: Packing, counter, quotients=None):
    """Fraction-free division of the packed integer map `work`, which it consumes.

    Returns (remainder, D) with D * (the map passed in) = sum(q_i G_i) +
    remainder for the divisors' forms G_i = lc * x^lm + tail and rational
    quotients q_i.  The remainder is in descending monomial order.  When
    `quotients` is given, the step at divisor i records the pair (a, D)
    under x^(m - lm) in quotients[i]: the quotient term is a / (D * lc)
    times x^(m - lm), D being the denominator before that step's rescale.
    """
    remainder: dict = {}
    den = 1
    sign, mask, guard = packing.sign, packing.mask, packing.guard
    leads = [packing.bits(lm) for lm, _, _ in divisors]
    # The smallest int is the largest monomial, so it pops first.  A
    # monomial cancelled out of `work` leaves a stale entry, skipped
    # without a tick; if it is recreated it is pushed again, and whichever
    # of its entries pops second is skipped as stale.
    heap = list(work)
    heapify(heap)
    while heap:
        mono = heappop(heap)
        a = work.pop(mono, None)
        if a is None:
            continue
        if counter is not None:
            counter.tick()
        # `Packing.bits` and `Packing.divides_bits`, inline: this is the
        # division's hottest loop, once per popped term and divisor, where
        # a method call per test shows in Buchberger's time.
        p = (sign * mono) & mask | guard
        for i, lead in enumerate(leads):
            if (p - lead) & guard == guard:
                lm, lc, tail = divisors[i]
                quot = mono - lm
                # Popped monomials strictly decrease, so no quotient term
                # is ever set twice, and a popped monomial never returns.
                if quotients is not None:
                    quotients[i][quot] = (a, den)
                g = gcd(a, lc)
                mult = lc // g
                if mult != 1:
                    for m in work:
                        work[m] *= mult
                    for m in remainder:
                        remainder[m] *= mult
                    den *= mult
                # mult*a*x^mono cancels against (a/g)*lc*x^mono.
                packed_addmul(work, -(a // g), quot, tail, heap)
                break
        else:
            remainder[mono] = a
    return remainder, den


def reduce(
    f: Polynomial,
    basis: Sequence[Polynomial],
    order: MonomialOrder = DEFAULT_ORDER,
    counter: StepCounter | None = None,
) -> tuple[list[Polynomial], Polynomial]:
    """Divide f by the basis: f = sum(q_i g_i) + r.

    No monomial of r is divisible by any leading monomial of the basis,
    and lt(q_i g_i) <= lt(f), so degrees never grow under a graded order.
    """
    for g in basis:
        if g.nvars != f.nvars:
            raise ValueError("variable count mismatch in division")
        if g.is_zero():
            raise ValueError("cannot divide by the zero polynomial")
    packing = Packing.of(f.nvars, order)
    work, scale = packing.pack(f)
    divisors, ratios = [], []
    for g in basis:
        ints, s = packing.pack(g)
        divisor, sign = _form(min(ints), ints)
        divisors.append(divisor)
        ratios.append(scale / (s * sign))
    steps: list[dict] = [{} for _ in basis]
    remainder, den = _divide(work, divisors, packing, counter, steps)
    # f = scale * work, and g_i = s_i * G_i, so a step (a, D) at divisor i
    # contributes scale * a / (D * lc_i * s_i) to q_i; every such D divides
    # the final denominator den.
    quotients = [
        packing.unpack({m: a * (den // dm) for m, (a, dm) in q.items()}, ratio / (den * lc))
        for (_, lc, _), ratio, q in zip(divisors, ratios, steps)
    ]
    return quotients, packing.unpack(remainder, scale / den)


def _s_pair(a: tuple, b: tuple, lcm: int) -> dict:
    """Integer S-pair (lc_b/g) x^u A - (lc_a/g) x^v B of two divisor forms,
    g = gcd(lc_a, lc_b), x^lcm their packed leading-monomial lcm; the
    leading terms cancel, so only tails enter."""
    (la, ca, ta), (lb, cb, tb) = a, b
    g = gcd(ca, cb)
    out: dict = {}
    packed_addmul(out, cb // g, lcm - la, ta)
    packed_addmul(out, -(ca // g), lcm - lb, tb)
    return out


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    """x^u f / lc(f) - x^v g / lc(g), with x^u lm(f) = x^v lm(g) their lcm."""
    if f.nvars != g.nvars:
        raise ValueError(f"variable count mismatch in S-polynomial: {f.nvars} vs {g.nvars}")
    if f.is_zero() or g.is_zero():
        raise ValueError("the zero polynomial has no S-polynomial")
    packing = Packing.of(f.nvars, order)
    fp, gp = packing.pack(f)[0], packing.pack(g)[0]
    a, b = _form(min(fp), fp)[0], _form(min(gp), gp)[0]
    lcm, deg = packing.lcm(a[0], b[0])
    packing.check(deg)
    # x^u f / lc(f) = x^u A / lc_a, so the integer S-pair is lcm(lc_a, lc_b)
    # times this one.
    den = a[1] * b[1] // gcd(a[1], b[1])
    return packing.unpack(_s_pair(a, b, lcm), Fraction(1, den))


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced Groebner basis: monic, mutually reduced elements.

    `generator_degree` is the largest degree D among the generators that
    `buchberger_reduced` was given (None for a basis built by hand).  Every
    order is graded, so each generator divides to 0 by elements of degree
    at most its own: for every d >= D the elements of degree <= d already
    generate the ideal.
    """

    order: MonomialOrder
    elements: tuple[Polynomial, ...]
    generator_degree: int | None = None

    @property
    def nvars(self) -> int:
        return self.elements[0].nvars

    def contains_constant(self) -> bool:
        return any(g.total_degree() == 0 for g in self.elements)


def buchberger_reduced(
    gens: Sequence[Polynomial],
    order: MonomialOrder = DEFAULT_ORDER,
    counter: StepCounter | None = None,
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by `gens`."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("need at least one nonzero generator")
    nvars = gens[0].nvars
    for g in gens:
        if g.nvars != nvars:
            raise ValueError("variable count mismatch among generators")
    packing = Packing.of(nvars, order)
    # Primitive forms with lc > 0: equal forms are generators equal up to
    # scaling, and the first of each is kept.
    forms: dict = {}
    for g in gens:
        ints = packing.pack(g)[0]
        form = _form(min(ints), ints)[0]
        forms.setdefault((form[0], form[1], frozenset(form[2].items())), form)
    basis = list(forms.values())

    lead = [b[0] for b in basis]
    # Each leading monomial's exponent fields, read once as `_divide`
    # reads its `leads`, for the divisibility tests below.
    divides = packing.divides_bits
    fields = [packing.bits(lm) for lm in lead]
    # Pending pair (i, j), i < j, mapped to the packed lcm of its leading
    # monomials, and a min-heap of (lcm degree, i, j) over the same pairs.
    pairs: dict[tuple[int, int], int] = {}
    queue: list[tuple[int, int, int]] = []

    def add_pairs(j: int):
        # One step per pair, drawn before any of them is formed.
        if counter is not None:
            counter.tick(j)
        for i in range(j):
            pairs[i, j], deg = packing.lcm(lead[i], lead[j])
            heappush(queue, (deg, i, j))

    for j in range(len(basis)):
        add_pairs(j)

    while queue:
        if counter is not None:
            counter.tick()
        deg, i, j = heappop(queue)
        lcm = pairs.pop((i, j))
        # Coprime criterion: lcm equal to the product means S reduces to 0.
        if lcm == lead[i] + lead[j]:
            continue
        # Chain criterion: a third element dividing the lcm whose pairs with
        # i and j are both settled makes this pair redundant.
        top = packing.bits(lcm)
        if any(
            m != i
            and m != j
            and divides(fm, top)
            and (min(i, m), max(i, m)) not in pairs
            and (min(j, m), max(j, m)) not in pairs
            for m, fm in enumerate(fields)
        ):
            continue
        packing.check(deg)
        s = _s_pair(basis[i], basis[j], lcm)
        if not s:
            continue
        r, _ = _divide(s, basis, packing, counter)
        if r:
            # The remainder comes out in descending order: its first
            # monomial is the leading one.
            lm = next(iter(r))
            basis.append(_form(lm, r)[0])
            lead.append(lm)
            fields.append(packing.bits(lm))
            add_pairs(len(basis) - 1)

    # Minimalize: drop elements whose leading monomial another one divides
    # (of equal leading monomials the earliest is kept).
    keep = [
        g
        for i, (g, fi) in enumerate(zip(basis, fields))
        if not any(divides(fj, fi) and (fj != fi or j < i) for j, fj in enumerate(fields))
    ]
    # Interreduce in one pass. No leading monomial of a minimal basis divides
    # another, so each remainder keeps its element's leading monomial, and
    # reducing by the unreduced others already gives the reduced basis.
    reduced = [{lm: lc, **tail} for lm, lc, tail in keep]
    if len(keep) > 1:
        reduced = [
            _divide(r, keep[:i] + keep[i + 1 :], packing, counter)[0] for i, r in enumerate(reduced)
        ]
    # Each map starts with its leading term; dividing by it makes it monic.
    # The leading monomials are distinct, and the largest packs smallest.
    reduced.sort(key=lambda r: -next(iter(r)))
    elements = tuple(packing.unpack(r, Fraction(1, next(iter(r.values())))) for r in reduced)
    degree = max(g.total_degree() for g in gens)
    return GroebnerBasis(order=order, elements=elements, generator_degree=degree)


def ideal_membership(f: Polynomial, gb: GroebnerBasis) -> bool:
    """True iff f reduces to zero modulo the basis."""
    if f.is_zero():
        return True
    _, r = reduce(f, gb.elements, gb.order)
    return r.is_zero()


def radical_membership(
    f: Polynomial,
    gens: Sequence[Polynomial],
    counter: StepCounter | None = None,
) -> bool:
    """True iff f vanishes on the complex variety of <gens>: iff 1 lies in
    <gens, 1 - y f>, decided by one reduced basis in the extra variable y."""
    if not gens:
        raise ValueError("need at least one generator")
    if f.is_zero():
        return True
    nvars = f.nvars
    ext = nvars + 1

    def extend(p: Polynomial) -> Polynomial:
        return Polynomial._of(ext, {m + (0,): c for m, c in p.ints.items()}, p.scale)

    y = Polynomial.variable(ext, nvars)
    system = [extend(g) for g in gens if not g.is_zero()]
    system.append(Polynomial.constant(ext, 1) - y * extend(f))
    gb = buchberger_reduced(system, MonomialOrder.GREVLEX, counter)
    return gb.contains_constant()
