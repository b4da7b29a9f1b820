"""Exact sparse multivariate polynomials over the rationals.

Variables are positional (index 0..nvars-1); display names are a
presentation concern handled by the parser/formatter.  `Polynomial`
coefficients are `fractions.Fraction` throughout, terms with zero
coefficient are never stored, and all operations return new objects, so
polynomials can be shared freely across threads.

One cached table of (x_1 + ... + x_k)^n coefficients,
`simplex_coefficients(k, n)`, supplies every multinomial coefficient and
every list of exponent vectors of one total degree: `simplex_power`,
`homogenize` and `substitute_last` here, and the count vectors and box
bounds of `power`, `threshold` and `umpu`.

One packed kernel serves every product: `Polynomial.__mul__` (and so
`**`), `homogenize`, `substitute_last`, the Groebner core and the SOS
witness (`groebner`, `threshold`).  `Packing.pack` writes a term map as
a primitive integer map on packed monomials over one rational scale,
`packed_addmul` accumulates products of such maps with one int addition
per monomial product and exact int coefficients, and `Packing.unpack`
builds one Fraction per output term.  Packed exponent vectors follow
Monagan & Pearce, "Polynomial division using dynamic arrays, heaps, and
packed exponent vectors" (CASC 2007).  Each exponent has one word whose
top bit is a guard bit, and the total degree sits above the words; the
words are placed and signed so that a product of monomials is the sum of
their ints and a smaller int is a larger monomial under the order:
graded reverse lex packs P - (deg << B n) with x_n in the most
significant word, graded lex -(P' + (deg << B n)) with x_1 most
significant.  A word is B = 16 bits wide when the caller's top degree is
below 2^15 and 64 bits wide otherwise, so a field never wraps; the
Groebner core always packs 16-bit words and checks its degrees against
`DEGREE_LIMIT`.  Scaling every coefficient by one nonzero rational
cancels exactly the terms the rational products cancel, so the output
terms come in the same order as a Fraction loop over the same terms.

The packed ints are also the one definition of the monomial orders and
of monomial arithmetic: `leading_monomial` and `sorted_terms` (and so
every printed polynomial) sort on `Packing.sort_key`, which is
`Packing.key` without its per-monomial degree check, and the Groebner
pair loop takes its lcms and divisibility tests from `Packing.lcm` and
`Packing.divides`, so monomials stay packed from the pair loop through
to printing.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import lru_cache
from heapq import heappush
from math import comb, lcm
from struct import Struct
from types import MappingProxyType
from typing import Mapping, Sequence

from powerpoly.linalg import primitive_scaling

Exponents = tuple[int, ...]


# -- monomials and term maps -------------------------------------------------
# A `Polynomial` keys its terms by exponent tuples of non-negative ints;
# every order, product, division and lcm of monomials runs on their packed
# ints (`Packing`).  Term maps are dicts from monomial to a nonzero
# Fraction (or a nonzero int in integer term maps).


def _exponent(e, mono) -> int:
    """An exponent that is not an int, as an int; bools, floats and
    non-integral values are refused."""
    if isinstance(e, (bool, float)) or e != int(e):
        raise ValueError(f"exponent {e!r} in {mono} is not an integer")
    return int(e)


@lru_cache(maxsize=1024)
def simplex_coefficients(k: int, n: int) -> Mapping[Exponents, int]:
    """The coefficients of (x_1 + ... + x_k)^n: a read-only map from each
    exponent vector of total degree n, in descending lex order, to its
    multinomial coefficient.

    Built by C_{k,n}(e, rest) = comb(n, e) * C_{k-1,n-e}(rest), e from n
    down to 0; one map per (k, n) is cached and shared.
    """
    if k < 0 or n < 0:
        raise ValueError(f"no simplex coefficients for k = {k}, n = {n}")
    if k == 0:
        return MappingProxyType({} if n else {(): 1})
    if k == 1:
        return MappingProxyType({(n,): 1})
    out = {}
    for e in range(n, -1, -1):
        c = comb(n, e)
        for rest, r in simplex_coefficients(k - 1, n - e).items():
            out[(e, *rest)] = c * r
    return MappingProxyType(out)


class MonomialOrder(enum.Enum):
    """Graded monomial orders (total degree first, stated tie-break); the
    keys of `Packing` define them."""

    GRLEX = "grlex"
    GREVLEX = "grevlex"


#: Order used everywhere a caller does not say otherwise (matches the
#: graded reverse lexicographic order of the worked contingency examples).
DEFAULT_ORDER = MonomialOrder.GREVLEX

#: Exponents and total degrees packed in 16-bit words stay below their
#: guard bit, 2^15.
DEGREE_LIMIT = 1 << 15


class Packing:
    """Packed exponent vectors of an `nvars`-variable ring under a graded order.

    `key(a) + key(b) == key(a * b)`, and key(a) < key(b) iff a > b in the
    order; `bits(k)` is the exponent fields P of a packed monomial, with
    the guard bits `guard` clear, and `mono(k)` the exponent tuple.  The
    fields are the words of P, so one struct call packs or unpacks them:
    little-endian puts x_n in the most significant field, big-endian x_1.
    `divides(a, b)` and `lcm(a, b)` read the fields of two packed
    monomials with one guarded subtract, so no tuple is built.
    `degree` is the top total degree the caller packs or reaches by
    products: below 2^15 the words are 16 bits wide, otherwise 64.
    `sort_key` is `key` without its per-monomial degree check, for
    monomials within that degree; it is the one packing formula, and
    `key` checks the degree and then calls it.
    """

    __slots__ = ("nvars", "sign", "width", "top", "mask", "guard", "limit", "sort_key", "_struct",
                 "_endian")

    def __init__(self, nvars: int, order: MonomialOrder = DEFAULT_ORDER, degree: int = 0):
        self.width = bits = 16 if degree < DEGREE_LIMIT else 64
        self.limit = 1 << (bits - 1)
        self.check(degree)
        grevlex = order is MonomialOrder.GREVLEX
        self.nvars = nvars
        self.sign = 1 if grevlex else -1
        self._endian = "little" if grevlex else "big"
        self._struct = Struct(f"{'<' if grevlex else '>'}{nvars}{'H' if bits == 16 else 'Q'}")
        self.top = bits * nvars
        self.mask = (1 << self.top) - 1
        self.guard = sum(self.limit << (bits * i) for i in range(nvars))
        pack, endian, sign, top = self._struct.pack, self._endian, self.sign, self.top
        self.sort_key = lambda mono: sign * int.from_bytes(pack(*mono), endian) - (sum(mono) << top)

    def check(self, degree: int):
        if degree >= self.limit:
            raise ValueError(
                f"total degree {degree} reaches the packed-exponent limit {self.limit}"
            )

    def key(self, mono: Exponents) -> int:
        self.check(sum(mono))
        return self.sort_key(mono)

    def bits(self, k: int) -> int:
        return (self.sign * k) & self.mask

    def divides(self, a: int, b: int) -> bool:
        """True iff the packed monomial a divides b: subtracting a field
        larger than b's borrows that field's guard bit and no other."""
        guard = self.guard
        return ((self.bits(b) | guard) - self.bits(a)) & guard == guard

    def lcm(self, a: int, b: int) -> tuple[int, int]:
        """(key, total degree) of the lcm of the packed monomials a and b.

        The guarded subtract keeps the guard bit of each field where a's
        exponent is at least b's; those fields come from a, the rest from
        b.  The degree is the sum of the fields, P mod 2^B - 1 for B-bit
        words, which is exact: each operand's degree is below 2^(B-1).
        """
        pa, pb, guard = self.bits(a), self.bits(b), self.guard
        ge = ((pa | guard) - pb) & guard
        keep = ge - (ge >> (self.width - 1))
        p = pa & keep | pb & ~keep
        deg = p % ((1 << self.width) - 1)
        return self.sign * p - (deg << self.top), deg

    def mono(self, k: int) -> Exponents:
        return self._struct.unpack(self.bits(k).to_bytes(self._struct.size, self._endian))

    def pack(self, terms: Mapping) -> tuple[dict, Fraction]:
        """(ints, scale) with terms = scale * ints: `ints` a primitive
        integer map on packed monomials in the order of `terms`, scale > 0
        (0 for no terms)."""
        ints, g, den = primitive_scaling(terms.values())
        return dict(zip(map(self.key, terms), ints)), Fraction(g, den)

    def unpack(self, ints: Mapping, scale: Fraction) -> "Polynomial":
        """The polynomial scale * ints, one Fraction per term."""
        n, d, mono = scale.numerator, scale.denominator, self.mono
        return Polynomial._of(self.nvars, {mono(k): Fraction(c * n, d) for k, c in ints.items()})


def packed_addmul(acc: dict, coeff: int, shift: int, tail: Mapping, heap: list | None = None):
    """In place on packed monomials: acc += coeff * x^shift * tail.

    Cancelled terms are dropped; a monomial new to `acc` is pushed onto
    `heap` when one is given.
    """
    for m, c in tail.items():
        m += shift
        old = acc.get(m)
        if old is None:
            acc[m] = coeff * c
            if heap is not None:
                heappush(heap, m)
        else:
            old += coeff * c
            if old:
                acc[m] = old
            else:
                del acc[m]


class Polynomial:
    """Immutable sparse polynomial: dict from exponent tuple to Fraction."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponents, Fraction] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be non-negative")
        clean: dict[Exponents, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                mono = tuple(e if type(e) is int else _exponent(e, mono) for e in mono)
                if len(mono) != nvars:
                    raise ValueError(
                        f"exponent vector {mono} has length {len(mono)}, expected {nvars}"
                    )
                if any(e < 0 for e in mono):
                    raise ValueError(f"negative exponent in {mono}")
                c = Fraction(coeff)
                if c:
                    clean[mono] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    @staticmethod
    def _of(nvars: int, terms: dict[Exponents, Fraction]) -> "Polynomial":
        """Trusted constructor: adopts `terms` without copying or checking.

        The caller guarantees int-tuple monomials of length `nvars` and
        nonzero Fraction coefficients, as when the terms are built from
        polynomials that are already valid.
        """
        p = object.__new__(Polynomial)
        object.__setattr__(p, "nvars", nvars)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Polynomial":
        return Polynomial(nvars)

    @staticmethod
    def constant(nvars: int, value) -> "Polynomial":
        return Polynomial(nvars, {(0,) * nvars: Fraction(value)})

    @staticmethod
    def variable(nvars: int, index: int) -> "Polynomial":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} variables")
        mono = tuple(1 if i == index else 0 for i in range(nvars))
        return Polynomial(nvars, {mono: Fraction(1)})

    @staticmethod
    def monomial(nvars: int, exponents: Sequence[int], coeff=1) -> "Polynomial":
        return Polynomial(nvars, {tuple(exponents): Fraction(coeff)})

    @staticmethod
    def simplex_power(nvars: int, m: int) -> "Polynomial":
        """(x_1 + ... + x_nvars)^m, read off `simplex_coefficients`."""
        return Polynomial._of(
            nvars, {a: Fraction(c) for a, c in simplex_coefficients(nvars, m).items()}
        )

    # -- ring operations ---------------------------------------------------

    def _operand(self, other) -> "Polynomial | None":
        """`other` as a polynomial of this ring: rationals become constants,
        and anything but a polynomial or a rational is None."""
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.nvars, other)
        if not isinstance(other, Polynomial):
            return None
        if self.nvars != other.nvars:
            raise ValueError(f"variable count mismatch: {self.nvars} vs {other.nvars}")
        return other

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            c = out.get(mono)
            if c is None:
                out[mono] = coeff
            else:
                c = c + coeff
                if c:
                    out[mono] = c
                else:
                    del out[mono]
        return Polynomial._of(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._of(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return Polynomial._of(self.nvars, {})
            return Polynomial._of(self.nvars, {m: c * v for m, v in self.terms.items()})
        if self._operand(other) is None:
            return NotImplemented
        packing = Packing(self.nvars, degree=self.total_degree() + other.total_degree())
        a, sa = packing.pack(self.terms)
        b, sb = packing.pack(other.terms)
        out: dict = {}
        for k, c in a.items():
            packed_addmul(out, c, k, b)
        return packing.unpack(out, sa * sb)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        if n == 0:
            return Polynomial.constant(self.nvars, 1)
        # Square up to the lowest set bit of n and start from there, so
        # that n = 2^j costs j products and no product by the constant 1.
        base = self
        while not n & 1:
            base = base * base
            n >>= 1
        result = base
        while n := n >> 1:
            base = base * base
            if n & 1:
                result = result * base
        return result

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        from powerpoly.parser import format_polynomial

        return f"Polynomial({self.nvars}, {format_polynomial(self)!r})"

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self, degree: int | None = None) -> bool:
        if not self.terms:
            return True
        degs = {sum(m) for m in self.terms}
        if len(degs) > 1:
            return False
        return degree is None or degs == {degree}

    def coefficient(self, exponents: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exponents), Fraction(0))

    def leading_monomial(self, order: MonomialOrder = DEFAULT_ORDER) -> Exponents:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return min(self.terms, key=Packing(self.nvars, order, self.total_degree()).sort_key)

    def leading_coefficient(self, order: MonomialOrder = DEFAULT_ORDER) -> Fraction:
        return self.terms[self.leading_monomial(order)]

    def sorted_terms(self, order: MonomialOrder = DEFAULT_ORDER):
        """Terms in descending monomial order (canonical storage order)."""
        key = Packing(self.nvars, order, self.total_degree()).sort_key
        return [(m, self.terms[m]) for m in sorted(self.terms, key=key)]

    def monic(self, order: MonomialOrder = DEFAULT_ORDER) -> "Polynomial":
        if not self.terms:
            return self
        lc = self.leading_coefficient(order)
        if lc == 1:
            return self
        return self * (Fraction(1) / lc)

    # -- evaluation and reparameterization ---------------------------------

    def evaluate(self, point: Sequence) -> Fraction:
        """Exact value at `point`, summed on integers into one Fraction.

        With the coordinates N/d over one denominator d and the
        coefficients over their lcm L, a term c * x^m of degree j is
        (c L) * N^m * d^(D - j) over L * d^D, D the total degree.
        """
        if len(point) != self.nvars:
            raise ValueError(f"point has length {len(point)}, expected {self.nvars}")
        if not self.terms:
            return Fraction(0)
        pt = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in point]
        d = lcm(*(x.denominator for x in pt))
        nums = [x.numerator * (d // x.denominator) for x in pt]
        cden = lcm(*(c.denominator for c in self.terms.values()))
        top = self.total_degree()
        total = 0
        for mono, coeff in self.terms.items():
            value = coeff.numerator * (cden // coeff.denominator)
            for x, e in zip(nums, mono):
                if e:
                    value *= x**e
            total += value * d ** (top - sum(mono))
        return Fraction(total, cden * d**top)

    def evaluate_float(self, point: Sequence[float]) -> float:
        if len(point) != self.nvars:
            raise ValueError(f"point has length {len(point)}, expected {self.nvars}")
        total = 0.0
        for mono, coeff in self.terms.items():
            value = float(coeff)
            for x, e in zip(point, mono):
                if e:
                    value *= x**e
            total += value
        return total

    def homogenize(self, n: int) -> "Polynomial":
        """Degree-n homogenization: each degree-i term times (sum x)^(n-i).

        Agrees with the original polynomial at every point whose
        coordinates sum to one.
        """
        deg = self.total_degree()
        if deg > n:
            raise ValueError(f"cannot homogenize degree-{deg} polynomial to degree {n}")
        packing = Packing(self.nvars, degree=n)
        key = packing.key
        ints, scale = packing.pack(self.terms)
        spow: dict[int, dict] = {}
        out: dict = {}
        for mono, (k, c) in zip(self.terms, ints.items()):
            d = n - sum(mono)
            if d not in spow:
                spow[d] = {key(a): b for a, b in simplex_coefficients(self.nvars, d).items()}
            packed_addmul(out, c, k, spow[d])
        return packing.unpack(out, scale)

    def substitute_last(self) -> "Polynomial":
        """Eliminate the last variable via x_k -> 1 - (x_1 + ... + x_{k-1}).

        (1 - x_1 - ... - x_m)^e is (y + x_1 + ... + x_m)^e at y = 1 with
        every x_i negated: a term y^j x^a keeps the sign (-1)^(e - j).
        """
        if self.nvars < 1:
            raise ValueError("no variable to substitute")
        m = self.nvars - 1
        packing = Packing(m, degree=self.total_degree())
        key = packing.key
        powers: dict[int, dict] = {}
        out: dict = {}
        ints, g, den = primitive_scaling(self.terms.values())
        for mono, c in zip(self.terms, ints):
            e = mono[-1]
            if e not in powers:
                powers[e] = {
                    key(a[1:]): -b if (e - a[0]) & 1 else b
                    for a, b in simplex_coefficients(m + 1, e).items()
                }
            packed_addmul(out, c, key(mono[:-1]), powers[e])
        return packing.unpack(out, Fraction(g, den))

    def derivative(self, index: int) -> "Polynomial":
        """Partial derivative with respect to variable `index`.

        Lowering one exponent maps distinct terms to distinct terms, so no
        two terms meet and no coefficient cancels.
        """
        if not 0 <= index < self.nvars:
            raise ValueError(f"variable index {index} out of range")
        return Polynomial._of(self.nvars, {
            mono[:index] + (mono[index] - 1,) + mono[index + 1:]: coeff * mono[index]
            for mono, coeff in self.terms.items()
            if mono[index]
        })

    def permute_variables(self, perm: Sequence[int]) -> "Polynomial":
        """Relabel variables: new exponent of position perm[i] is old position i."""
        if sorted(perm) != list(range(self.nvars)):
            raise ValueError(f"not a permutation of 0..{self.nvars - 1}: {perm}")
        out = {}
        for mono, coeff in self.terms.items():
            new = [0] * self.nvars
            for i, e in enumerate(mono):
                new[perm[i]] = e
            out[tuple(new)] = coeff
        return Polynomial(self.nvars, out)


def default_names(nvars: int) -> list[str]:
    return [f"p{i + 1}" for i in range(nvars)]


def table_names(p: int, q: int) -> list[str]:
    """Row-major names p11, p12, ..., ppq for a p-by-q contingency table."""
    return [f"p{i + 1}{j + 1}" for i in range(p) for j in range(q)]

