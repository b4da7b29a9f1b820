"""Text grammar for polynomials.

    poly  := ['+'|'-'] term (('+'|'-') term)*
    term  := coeff? ('*'? var ('^' uint)?)*
    coeff := int | int '/' uint
    var   := identifier

Whitespace insensitive.  One regex scan tokenizes the whole text before
parsing starts: each alternative of `_TOKEN` is one token kind, and its
last, catch-all group takes any other non-blank character, so a stray
character is reported at its own position even when a grammar error comes
earlier.  One flat loop then parses the tokens.  Printing uses the same
grammar with terms in descending monomial order, so parse -> print -> parse
is a fixed point.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Sequence

from powerpoly.polynomial import DEFAULT_ORDER, MonomialOrder, Polynomial, default_names


class PolynomialSyntaxError(ValueError):
    """Parse failure; carries the character position of the offence."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# Token kinds are the group numbers of `_TOKEN`; _END marks the end of text.
_END, _INT, _IDENT, _OP, _BAD = range(5)
_IDENTIFIER = r"[A-Za-z_][A-Za-z_0-9]*"
_TOKEN = re.compile(rf"(\d+)|({_IDENTIFIER})|([-+*/^()])|(\S)")
_NAME = re.compile(_IDENTIFIER)


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastindex
        if kind == _BAD:
            raise PolynomialSyntaxError(f"unexpected character {m[0]!r}", m.start())
        tokens.append((kind, m[0], m.start()))
    tokens.append((_END, "", len(text)))
    return tokens


def parse_rational(text: str) -> Fraction:
    """Exact rational from strings like '3' or '-1/20'.

    Decimal and scientific notation are rejected: they usually stand for
    floats, and this library's contracts are exact.
    """
    s = str(text).strip()
    if any(ch in s for ch in ".eE"):
        raise ValueError(f"not an exact rational (use p/q form): {text!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not an exact rational: {text!r}") from exc


def parse_polynomial(text: str, names: Sequence[str]) -> Polynomial:
    """Parse `text` over the given ordered variable names."""
    index = {name: i for i, name in enumerate(names)}
    if len(index) != len(names):
        raise ValueError(f"duplicate variable names in {names}")
    # A name the tokenizer cannot produce could never be matched.
    for name in names:
        if not (isinstance(name, str) and _NAME.fullmatch(name)):
            raise ValueError(f"invalid variable name {name!r}")
    nvars = len(names)
    tokens = iter(_tokenize(text))
    kind, value, pos = next(tokens)
    sign = 1
    if kind == _OP and value in "+-":
        sign = -1 if value == "-" else 1
        kind, value, pos = next(tokens)
    terms: dict = {}
    while True:
        # One term, starting at the current token; a term starts with a
        # coefficient, a variable or the '*' before one.
        if kind == _END or kind == _OP and value != "*":
            raise PolynomialSyntaxError("expected a term", pos)
        num = den = 1
        if kind == _INT:
            num = int(value)
            kind, value, pos = next(tokens)
            if kind == _OP and value == "/":
                kind, value, pos = next(tokens)
                if kind != _INT:
                    raise PolynomialSyntaxError("expected denominator", pos)
                den = int(value)
                if den == 0:
                    raise PolynomialSyntaxError("zero denominator", pos)
                kind, value, pos = next(tokens)
        exponents = [0] * nvars
        while kind == _IDENT or kind == _OP and value == "*":
            if kind == _OP:
                kind, value, pos = next(tokens)
                if kind != _IDENT:
                    raise PolynomialSyntaxError("expected variable after '*'", pos)
            var = index.get(value)
            if var is None:
                raise PolynomialSyntaxError(f"unknown variable {value!r}", pos)
            kind, value, pos = next(tokens)
            if kind == _OP and value == "^":
                kind, value, pos = next(tokens)
                if kind != _INT:
                    raise PolynomialSyntaxError("expected integer exponent", pos)
                exponents[var] += int(value)
                kind, value, pos = next(tokens)
            else:
                exponents[var] += 1
        mono = tuple(exponents)
        if total := terms.get(mono, 0) + (sign * num if den == 1 else Fraction(sign * num, den)):
            terms[mono] = total
        else:
            terms.pop(mono, None)
        if kind == _END:
            return Polynomial._of_rationals(nvars, terms)
        if kind != _OP or value not in "+-":
            raise PolynomialSyntaxError(f"expected '+' or '-', got {value!r}", pos)
        sign = -1 if value == "-" else 1
        kind, value, pos = next(tokens)


def format_rational(value: Fraction) -> str:
    return str(value if isinstance(value, Fraction) else Fraction(value))


def format_polynomial(
    poly: Polynomial,
    names: Sequence[str] | None = None,
    order: MonomialOrder = DEFAULT_ORDER,
) -> str:
    """Print in descending monomial order under `order`.

    Each coefficient is printed off the integer c * n over d, with
    scale = n / d, after one gcd; no Fraction is built.
    """
    if names is None:
        names = default_names(poly.nvars)
    if len(names) != poly.nvars:
        raise ValueError(f"{len(names)} names for {poly.nvars} variables")
    if poly.is_zero():
        return "0"
    ints, n, d = poly.ints, poly.scale.numerator, poly.scale.denominator
    parts = []
    for mono in poly.sorted_monomials(order):
        factors = [name if e == 1 else f"{name}^{e}" for e, name in zip(mono, names) if e]
        c = ints[mono]
        num = abs(c) * n
        if d == 1:
            mag = str(num)
        else:
            g = gcd(num, d)
            mag = str(num // g) if g == d else f"{num // g}/{d // g}"
        if mag != "1" or not factors:
            factors.insert(0, mag)
        parts.append(("- " if c < 0 else "+ ") + "*".join(factors))
    # "+ a - b + c" -> "a - b + c" and "- a + b" -> "-a + b".
    text = " ".join(parts)
    return text[2:] if text[0] == "+" else "-" + text[2:]
