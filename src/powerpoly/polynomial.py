"""Exact sparse multivariate polynomials over the rationals.

Variables are positional (index 0..nvars-1); display names are a
presentation concern handled by the parser/formatter.  A `Polynomial` is
one positive rational `scale` times `ints`, a primitive integer term map:
a dict from exponent tuple to nonzero int whose gcd is 1 and whose signs
are the coefficients' signs (the content and primitive part of Geddes,
Czapor & Labahn, "Algorithms for Computer Algebra", 1992).  The zero
polynomial has no terms and scale 0.  The pair is canonical, so equality
and hashing read it; `terms` is the read-only Fraction view of the same
map, built on first read and kept.  All operations return new objects,
so polynomials can be shared freely across threads.

One cached table of (x_1 + ... + x_k)^n coefficients,
`simplex_coefficients(k, n)`, supplies every multinomial coefficient and
every list of exponent vectors of one total degree: `simplex_power`,
`homogenize` and `substitute_last` here, and the count vectors and box
bounds of `power`, `threshold` and `umpu`.

One packed kernel serves every product: `Polynomial.__mul__` (and so
`**`), `homogenize`, `substitute_last`, the Groebner core and the SOS
witness (`groebner`, `threshold`).  `Packing.pack` puts a polynomial's
integer map on packed monomials, `packed_addmul` accumulates products of
such maps with one int addition per monomial product, and
`Packing.unpack` makes a polynomial of an integer map on packed
monomials and a rational scale with no Fraction per term.  Packed
exponent vectors follow Monagan & Pearce, "Polynomial division using
dynamic arrays, heaps, and packed exponent vectors" (CASC 2007).  Each
exponent has one word whose top bit is a guard bit, and the total degree
sits above the words; the words are placed and signed so that a product
of monomials is the sum of their ints and a smaller int is a larger
monomial under the order: graded reverse lex packs P - (deg << B n) with
x_n in the most significant word, graded lex -(P' + (deg << B n)) with
x_1 most significant.  A word is B = 16 bits wide when the caller's top
degree is below 2^15 and 64 bits wide otherwise, so a field never wraps;
the Groebner core always packs 16-bit words and checks its degrees
against `DEGREE_LIMIT`.  Scaling every coefficient by one nonzero
rational cancels exactly the terms the rational products cancel, so the
output terms come in the same order as a Fraction loop over the same
terms.

The packed ints are also the one definition of the monomial orders and
of monomial arithmetic: `leading_monomial` and `sorted_monomials` (and so
every printed polynomial) sort on `Packing.sort_key`, which is
`Packing.key` without its per-monomial degree check, and the Groebner
pair loop takes its lcms and divisibility tests from `Packing.lcm` and
`Packing.divides`, so monomials stay packed from the pair loop through
to printing.

Packing is a fact of the ring: `Packing.of` hands out one shared
`Packing` per (nvars, order, word width), cached like
`simplex_coefficients`, and checks the caller's degree on every call.  A
polynomial made by `Packing.unpack` carries that shared packing and the
packed ints of its terms, and so does every result that keeps its
monomials in order (`-p`, a scalar product, `monic`).  `Packing.pack`
reuses those keys exactly when it is the packing that made them, as for
Groebner basis elements squared into the SOS witness, substituted
generators entering Buchberger's algorithm and both operands of `*`;
any other packing, such as the 16-bit one of the Groebner core meeting a
polynomial made in 64-bit words, keys every monomial again and checks
its degree.  Under the same order the carried keys also give
`leading_monomial` and `sorted_monomials` with no key computed, for the
keys of either word width sort alike.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import lru_cache
from heapq import heappush
from math import comb, gcd, lcm
from struct import Struct
from types import MappingProxyType
from typing import Mapping, Sequence

Exponents = tuple[int, ...]


# -- monomials and term maps -------------------------------------------------
# A `Polynomial` keys its terms by exponent tuples of non-negative ints;
# every order, product, division and lcm of monomials runs on their packed
# ints (`Packing`).  Term maps are dicts from monomial to a nonzero int
# (or a nonzero Fraction in the `terms` view and in rational inputs).

ZERO, ONE = Fraction(0), Fraction(1)


def _exponent(e, mono) -> int:
    """An exponent that is not an int, as an int; bools, floats and
    non-integral values are refused."""
    if isinstance(e, (bool, float)) or e != int(e):
        raise ValueError(f"exponent {e!r} in {mono} is not an integer")
    return int(e)


def _rational(c, mono):
    """A coefficient that is not an int or a Fraction, as a Fraction;
    bools and floats are refused."""
    if isinstance(c, (bool, float)):
        raise TypeError(f"coefficient {c!r} of {mono} is not an int or a Fraction")
    return Fraction(c)


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
    `key` checks the degree and then calls it.  Callers take the shared
    instance of their ring from `Packing.of`.
    """

    __slots__ = ("nvars", "order", "sign", "width", "top", "mask", "guard", "limit", "sort_key",
                 "_struct", "_endian")

    def __init__(self, nvars: int, order: MonomialOrder = DEFAULT_ORDER, degree: int = 0):
        self.width = bits = 16 if degree < DEGREE_LIMIT else 64
        self.limit = 1 << (bits - 1)
        self.check(degree)
        grevlex = order is MonomialOrder.GREVLEX
        self.nvars = nvars
        self.order = order
        self.sign = 1 if grevlex else -1
        self._endian = "little" if grevlex else "big"
        self._struct = Struct(f"{'<' if grevlex else '>'}{nvars}{'H' if bits == 16 else 'Q'}")
        self.top = bits * nvars
        self.mask = (1 << self.top) - 1
        self.guard = sum(self.limit << (bits * i) for i in range(nvars))
        pack, endian, sign, top = self._struct.pack, self._endian, self.sign, self.top
        self.sort_key = lambda mono: sign * int.from_bytes(pack(*mono), endian) - (sum(mono) << top)

    @staticmethod
    def of(nvars: int, order: MonomialOrder = DEFAULT_ORDER, degree: int = 0) -> "Packing":
        """The one shared packing of the ring whose words hold `degree`,
        which is checked against the word's limit."""
        packing = _shared_packing(nvars, order, degree >= DEGREE_LIMIT)
        packing.check(degree)
        return packing

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

    def keys_of(self, poly: "Polynomial") -> list[int]:
        """The packed ints of `poly`'s monomials, in its order: the ones
        `unpack` recorded when this packing made `poly`, else each
        monomial keyed afresh, its degree checked."""
        keys = poly._keys
        if keys is not None and keys[0] is self:
            return keys[1]
        return list(map(self.key, poly.ints))

    def pack(self, poly: "Polynomial") -> tuple[dict, Fraction]:
        """(ints, scale) with poly = scale * ints: `poly.ints` on packed
        monomials (`keys_of`), in its order, and `poly.scale`."""
        return dict(zip(self.keys_of(poly), poly.ints.values())), poly.scale

    def unpack(self, ints: Mapping, scale) -> "Polynomial":
        """The polynomial scale * ints, for nonzero int coefficients and a
        rational scale of either sign, in the order of `ints`; it carries
        this packing and the packed ints.  All monomials are decoded by
        one `Struct.iter_unpack` over one buffer of their fields."""
        keys = list(ints)
        if self.nvars:
            sign, mask, size, endian = self.sign, self.mask, self._struct.size, self._endian
            buf = b"".join([((sign * k) & mask).to_bytes(size, endian) for k in keys])
            monos = self._struct.iter_unpack(buf)
        else:
            # A struct of no fields cannot be iterated: every monomial is ().
            monos = [()] * len(keys)
        return Polynomial._of(self.nvars, dict(zip(monos, ints.values())), scale, (self, keys))


@lru_cache(maxsize=1024)
def _shared_packing(nvars: int, order: MonomialOrder, wide: bool) -> Packing:
    return Packing(nvars, order, DEGREE_LIMIT if wide else 0)


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
    """Immutable sparse polynomial: `scale` times the primitive integer
    term map `ints`, viewed as Fractions by `terms`."""

    __slots__ = ("nvars", "ints", "scale", "_terms", "_keys")

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
                if type(coeff) is not int and type(coeff) is not Fraction:
                    coeff = _rational(coeff, mono)
                if coeff:
                    clean[mono] = coeff
        p = Polynomial._of_rationals(nvars, clean)
        _init(self, nvars, p.ints, p.scale, None)

    @staticmethod
    def _of(nvars: int, ints: dict, scale: Fraction = ONE, keys=None) -> "Polynomial":
        """Trusted constructor: the polynomial scale * ints, adopting `ints`
        when it is primitive with the signs of the coefficients.

        The caller guarantees int-tuple monomials of length `nvars`,
        nonzero int coefficients and a Fraction scale, nonzero unless
        `ints` is empty, as when the terms are built from polynomials
        that are already valid; the gcd of `ints` is divided out, and a
        negative scale is moved into the signs.  `keys` is (the shared
        `Packing`, the packed ints of the monomials of `ints` in its
        order), as `Packing.unpack` records them.
        """
        g = gcd(*ints.values())
        num = scale.numerator
        if num < 0:
            g = -g  # so that scale * g > 0
        if not g:
            scale = ZERO
        elif g != 1:
            ints = {m: c // g for m, c in ints.items()}
            scale = Fraction(num * g, scale.denominator)
        return _init(object.__new__(Polynomial), nvars, ints, scale, keys)

    @staticmethod
    def _of_rationals(nvars: int, terms: dict) -> "Polynomial":
        """Trusted constructor on a dict with nonzero int or Fraction
        coefficients on valid monomials: their numerators over the lcm of
        their denominators; a dict of ints is adopted."""
        if all(type(c) is int for c in terms.values()):
            return Polynomial._of(nvars, terms)
        den = lcm(*[c.denominator for c in terms.values()])
        ints = {m: c.numerator * (den // c.denominator) for m, c in terms.items()}
        return Polynomial._of(nvars, ints, Fraction(1, den))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def terms(self) -> Mapping[Exponents, Fraction]:
        """Read-only map from monomial to Fraction coefficient, in the
        order of `ints`."""
        terms = self._terms
        if terms is None:
            n, d = self.scale.numerator, self.scale.denominator
            terms = MappingProxyType({m: Fraction(c * n, d) for m, c in self.ints.items()})
            _set_terms(self, terms)
        return terms

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Polynomial":
        return Polynomial(nvars)

    @staticmethod
    def constant(nvars: int, value) -> "Polynomial":
        return Polynomial(nvars, {(0,) * nvars: value})

    @staticmethod
    def variable(nvars: int, index: int) -> "Polynomial":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} variables")
        mono = tuple(1 if i == index else 0 for i in range(nvars))
        return Polynomial._of(nvars, {mono: 1})

    @staticmethod
    def monomial(nvars: int, exponents: Sequence[int], coeff=1) -> "Polynomial":
        return Polynomial(nvars, {tuple(exponents): coeff})

    @staticmethod
    def simplex_power(nvars: int, m: int) -> "Polynomial":
        """(x_1 + ... + x_nvars)^m, read off `simplex_coefficients`."""
        return Polynomial._of(nvars, dict(simplex_coefficients(nvars, m)))

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
        # s A + t B = (a A + b B) / den, with den the lcm of the
        # denominators of s and t.
        s, t = self.scale, other.scale
        den = lcm(s.denominator, t.denominator)
        a, b = s.numerator * (den // s.denominator), t.numerator * (den // t.denominator)
        out = {m: a * c for m, c in self.ints.items()}
        for mono, c in other.ints.items():
            if c := out.get(mono, 0) + b * c:
                out[mono] = c
            else:
                del out[mono]
        return Polynomial._of(self.nvars, out, Fraction(1, den) if den > 1 else ONE)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._of(
            self.nvars, {m: -c for m, c in self.ints.items()}, self.scale, self._keys
        )

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
            if not other:
                return Polynomial.zero(self.nvars)
            return Polynomial._of(self.nvars, self.ints, self.scale * other, self._keys)
        if self._operand(other) is None:
            return NotImplemented
        packing = Packing.of(self.nvars, degree=self.total_degree() + other.total_degree())
        a, sa = packing.pack(self)
        b, sb = packing.pack(other)
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
            and self.scale == other.scale
            and self.ints == other.ints
        )

    def __hash__(self):
        return hash((self.nvars, self.scale, frozenset(self.ints.items())))

    def __bool__(self):
        return bool(self.ints)

    def __repr__(self):
        from powerpoly.parser import format_polynomial

        return f"Polynomial({self.nvars}, {format_polynomial(self)!r})"

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.ints

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.ints:
            return -1
        return max(map(sum, self.ints))

    def is_homogeneous(self, degree: int | None = None) -> bool:
        if not self.ints:
            return True
        degs = set(map(sum, self.ints))
        if len(degs) > 1:
            return False
        return degree is None or degs == {degree}

    def coefficient(self, exponents: Sequence[int]) -> Fraction:
        return self.scale * self.ints.get(tuple(exponents), 0)

    def leading_monomial(self, order: MonomialOrder = DEFAULT_ORDER) -> Exponents:
        """The largest monomial under `order`: the one of the least
        carried key when the polynomial carries keys of that order."""
        if not self.ints:
            raise ValueError("zero polynomial has no leading term")
        if self._keys is not None and self._keys[0].order is order:
            return min(zip(self._keys[1], self.ints))[1]
        return min(self.ints, key=Packing.of(self.nvars, order, self.total_degree()).sort_key)

    def leading_coefficient(self, order: MonomialOrder = DEFAULT_ORDER) -> Fraction:
        return self.scale * self.ints[self.leading_monomial(order)]

    def sorted_monomials(self, order: MonomialOrder = DEFAULT_ORDER) -> list[Exponents]:
        """Monomials in descending order: one sort of the packed ints
        this polynomial carries when they are keys of `order`, else a sort
        on `Packing.sort_key`."""
        if self._keys is not None and self._keys[0].order is order:
            keys = self._keys[1]
            by_key = dict(zip(keys, self.ints))
            return [by_key[k] for k in sorted(keys)]
        return sorted(self.ints, key=Packing.of(self.nvars, order, self.total_degree()).sort_key)

    def sorted_terms(self, order: MonomialOrder = DEFAULT_ORDER):
        """Terms in descending monomial order under `order`, whatever order they are stored in."""
        terms = self.terms
        return [(m, terms[m]) for m in self.sorted_monomials(order)]

    def monic(self, order: MonomialOrder = DEFAULT_ORDER) -> "Polynomial":
        if not self.ints:
            return self
        c = self.ints[self.leading_monomial(order)]
        if self.scale * c == 1:
            return self
        return Polynomial._of(self.nvars, self.ints, Fraction(1, c), self._keys)

    # -- evaluation and reparameterization ---------------------------------

    def evaluate(self, point: Sequence) -> Fraction:
        """Exact value at `point`, summed on integers into one Fraction.

        Only the coordinates of variables that occur are read.  With those
        N/d over one denominator d, a term c * x^m of `ints` of degree j
        is c * N^m * d^(D - j) over d^D, D the total degree, and the sum
        is multiplied by `scale`.
        """
        if len(point) != self.nvars:
            raise ValueError(f"point has length {len(point)}, expected {self.nvars}")
        if not self.ints:
            return Fraction(0)
        used = [i for i, occurs in enumerate(map(any, zip(*self.ints))) if occurs]
        pt = [point[i] for i in used]
        pt = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in pt]
        d = lcm(*(x.denominator for x in pt))
        nums = [x.numerator * (d // x.denominator) for x in pt]
        top = self.total_degree()
        total = 0
        for mono, value in self.ints.items():
            for i, x in zip(used, nums):
                if e := mono[i]:
                    value *= x**e
            total += value * d ** (top - sum(mono))
        return Fraction(total * self.scale.numerator, self.scale.denominator * d**top)

    def evaluate_float(self, point: Sequence[float]) -> float:
        """Float value at `point`, summed in term order.  Each coefficient
        is the correctly rounded int quotient c * n / d, the float of the
        Fraction coefficient (scale = n / d)."""
        if len(point) != self.nvars:
            raise ValueError(f"point has length {len(point)}, expected {self.nvars}")
        n, d = self.scale.numerator, self.scale.denominator
        total = 0.0
        for mono, c in self.ints.items():
            value = c * n / d
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
        packing = Packing.of(self.nvars, degree=n)
        key = packing.key
        spow: dict[int, dict] = {}
        out: dict = {}
        for (mono, c), k in zip(self.ints.items(), packing.keys_of(self)):
            d = n - sum(mono)
            if d not in spow:
                spow[d] = {key(a): b for a, b in simplex_coefficients(self.nvars, d).items()}
            packed_addmul(out, c, k, spow[d])
        return packing.unpack(out, self.scale)

    def substitute_last(self) -> "Polynomial":
        """Eliminate the last variable via x_k -> 1 - (x_1 + ... + x_{k-1}).

        (1 - x_1 - ... - x_m)^e is (y + x_1 + ... + x_m)^e at y = 1 with
        every x_i negated: a term y^j x^a keeps the sign (-1)^(e - j).
        """
        if self.nvars < 1:
            raise ValueError("no variable to substitute")
        m = self.nvars - 1
        packing = Packing.of(m, degree=self.total_degree())
        key = packing.key
        powers: dict[int, dict] = {}
        out: dict = {}
        for mono, c in self.ints.items():
            e = mono[-1]
            if e not in powers:
                powers[e] = {
                    key(a[1:]): -b if (e - a[0]) & 1 else b
                    for a, b in simplex_coefficients(m + 1, e).items()
                }
            packed_addmul(out, c, key(mono[:-1]), powers[e])
        return packing.unpack(out, self.scale)

    def derivative(self, index: int) -> "Polynomial":
        """Partial derivative with respect to variable `index`.

        Lowering one exponent maps distinct terms to distinct terms, so no
        two terms meet and no coefficient cancels.
        """
        if not 0 <= index < self.nvars:
            raise ValueError(f"variable index {index} out of range")
        return Polynomial._of(self.nvars, {
            mono[:index] + (mono[index] - 1,) + mono[index + 1:]: c * mono[index]
            for mono, c in self.ints.items()
            if mono[index]
        }, self.scale)

    def permute_variables(self, perm: Sequence[int]) -> "Polynomial":
        """Relabel variables: new exponent of position perm[i] is old position i."""
        if sorted(perm) != list(range(self.nvars)):
            raise ValueError(f"not a permutation of 0..{self.nvars - 1}: {perm}")
        out = {}
        for mono, c in self.ints.items():
            new = [0] * self.nvars
            for i, e in enumerate(mono):
                new[perm[i]] = e
            out[tuple(new)] = c
        return Polynomial._of(self.nvars, out, self.scale)


# Slot setters, which bypass the immutability guard of `Polynomial.__setattr__`.
_set_nvars, _set_ints, _set_scale, _set_terms, _set_keys = (
    getattr(Polynomial, name).__set__ for name in Polynomial.__slots__
)


def _init(p: Polynomial, nvars: int, ints: dict, scale: Fraction, keys) -> Polynomial:
    _set_nvars(p, nvars)
    _set_ints(p, ints)
    _set_scale(p, scale)
    _set_terms(p, None)
    _set_keys(p, keys)
    return p


def default_names(nvars: int) -> list[str]:
    return [f"p{i + 1}" for i in range(nvars)]


def table_names(p: int, q: int) -> list[str]:
    """Row-major names p11, p12, ..., ppq for a p-by-q contingency table."""
    return [f"p{i + 1}{j + 1}" for i in range(p) for j in range(q)]

