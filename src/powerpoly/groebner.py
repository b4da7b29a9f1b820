"""Multivariate division, Buchberger's algorithm, and ideal membership.

Reduced Groebner bases are computed with the normal selection strategy
(smallest lcm degree first) plus Buchberger's coprime and chain criteria.
The output is the unique reduced basis for the order, so it is independent
of generator order and of any internal parallelism.

Radical membership uses the Rabinowitsch trick: f vanishes on the complex
variety of `gens` iff 1 lies in <gens, 1 - y*f> in a ring with one extra
variable y (appended last, graded reverse lex).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Sequence

from powerpoly.polynomial import (
    DEFAULT_ORDER,
    MonomialOrder,
    Polynomial,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    poly_addmul,
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
    key = order.heap_key
    # (leading monomial, leading coefficient, tail) of each divisor.
    lead = []
    for g in basis:
        lm = g.leading_monomial(order)
        tail = dict(g.terms)
        lead.append((lm, tail.pop(lm), tail))
    quotients: list[dict] = [{} for _ in basis]
    remainder: dict = {}
    work = dict(f.terms)
    # Min-heap of (heap key, monomial) over the monomials of `work`, so the
    # largest pops first.  A monomial cancelled out of `work` leaves a stale
    # entry, skipped without a tick; if it is recreated it is pushed again,
    # and whichever of its entries pops second is skipped as stale.
    heap = [(key(m), m) for m in work]
    heapify(heap)
    while heap:
        mono = heappop(heap)[1]
        coeff = work.pop(mono, None)
        if coeff is None:
            continue
        if counter is not None:
            counter.tick()
        for i, (lm, lc, tail) in enumerate(lead):
            quot = mono_div(mono, lm)
            if quot is not None:
                # Popped monomials strictly decrease, so no quotient term
                # is ever set twice, and a popped monomial never returns.
                quotients[i][quot] = scale = coeff / lc
                # work -= scale * x^quot * g_i; the lead term cancels `mono`.
                for m in poly_addmul(work, -scale, quot, tail):
                    heappush(heap, (key(m), m))
                break
        else:
            remainder[mono] = coeff
    return (
        [Polynomial._of(f.nvars, q) for q in quotients],
        Polynomial._of(f.nvars, remainder),
    )


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    lf, lg = f.leading_monomial(order), g.leading_monomial(order)
    lcm = mono_lcm(lf, lg)
    out: dict = {}
    poly_addmul(out, 1 / f.leading_coefficient(order), mono_div(lcm, lf), f.terms)
    poly_addmul(out, -1 / g.leading_coefficient(order), mono_div(lcm, lg), g.terms)
    return Polynomial._of(f.nvars, out)


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced Groebner basis: monic, mutually reduced elements."""

    order: MonomialOrder
    elements: tuple[Polynomial, ...]

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
    basis = [g.monic(order) for g in gens if not g.is_zero()]
    if not basis:
        raise ValueError("need at least one nonzero generator")
    nvars = basis[0].nvars
    for g in basis:
        if g.nvars != nvars:
            raise ValueError("variable count mismatch among generators")
    # Generators are monic, so this drops duplicates up to scaling.
    basis = list(dict.fromkeys(basis))

    lead = [g.leading_monomial(order) for g in basis]
    # Pending pair (i, j), i < j, mapped to the lcm of its leading monomials.
    pairs: dict[tuple[int, int], tuple[int, ...]] = {}

    def add_pairs(j: int):
        for i in range(j):
            pairs[i, j] = mono_lcm(lead[i], lead[j])

    for j in range(len(basis)):
        add_pairs(j)

    while pairs:
        if counter is not None:
            counter.tick()
        i, j = min(pairs, key=lambda p: (sum(pairs[p]), p))
        lcm = pairs.pop((i, j))
        # Coprime criterion: lcm equal to the product means S reduces to 0.
        if lcm == mono_mul(lead[i], lead[j]):
            continue
        # Chain criterion: a third element dividing the lcm whose pairs with
        # i and j are both settled makes this pair redundant.
        skip = False
        for m in range(len(basis)):
            if m in (i, j):
                continue
            if mono_divides(lead[m], lcm):
                pim = (min(i, m), max(i, m))
                pjm = (min(j, m), max(j, m))
                if pim not in pairs and pjm not in pairs:
                    skip = True
                    break
        if skip:
            continue
        s = s_polynomial(basis[i], basis[j], order)
        if s.is_zero():
            continue
        _, r = reduce(s, basis, order, counter)
        if not r.is_zero():
            basis.append(r.monic(order))
            lead.append(basis[-1].leading_monomial(order))
            add_pairs(len(basis) - 1)

    # Minimalize: drop elements whose leading monomial another one divides
    # (ties broken by keeping the earliest).
    keep: list[Polynomial] = []
    for i, g in enumerate(basis):
        lm = lead[i]
        redundant = False
        for j in range(len(basis)):
            if j == i or not mono_divides(lead[j], lm):
                continue
            if lead[j] != lm or j < i:
                redundant = True
                break
        if not redundant:
            keep.append(g)
    # Interreduce in one pass. No leading monomial of a minimal basis divides
    # another, so each remainder keeps its element's monic leading term, and
    # reducing by the unreduced others already gives the reduced basis.
    if len(keep) > 1:
        keep = [
            reduce(g, keep[:i] + keep[i + 1 :], order, counter)[1]
            for i, g in enumerate(keep)
        ]
    keep.sort(key=lambda g: order.key(g.leading_monomial(order)))
    return GroebnerBasis(order=order, elements=tuple(keep))


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
    """True iff f vanishes on the complex variety of <gens>."""
    if not gens:
        raise ValueError("need at least one generator")
    if f.is_zero():
        return True
    nvars = f.nvars
    ext = nvars + 1

    def extend(p: Polynomial) -> Polynomial:
        return Polynomial(ext, {m + (0,): c for m, c in p.terms.items()})

    y = Polynomial.variable(ext, nvars)
    system = [extend(g) for g in gens if not g.is_zero()]
    system.append(Polynomial.constant(ext, 1) - y * extend(f))
    gb = buchberger_reduced(system, MonomialOrder.GREVLEX, counter)
    return gb.contains_constant()
