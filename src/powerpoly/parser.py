"""Text grammar for polynomials.

    poly  := ['+'|'-'] term (('+'|'-') term)*
    term  := coeff? ('*'? var ('^' uint)?)*
    coeff := int | int '/' uint
    var   := identifier

Whitespace insensitive.  Printing uses the same grammar with terms in
descending monomial order, so parse -> print -> parse is a fixed point.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Sequence

from powerpoly.polynomial import DEFAULT_ORDER, MonomialOrder, Polynomial


class PolynomialSyntaxError(ValueError):
    """Parse failure; carries the character position of the offence."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            pos = len(text) - len(text[pos:].lstrip())  # the first non-blank
            if pos == len(text):
                break
            raise PolynomialSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup == "int":
            tokens.append(("int", m.group("int"), m.start("int")))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
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
    nvars = len(names)
    tokens = _tokenize(text)
    ti = 0

    def peek():
        return tokens[ti]

    def advance():
        nonlocal ti
        tok = tokens[ti]
        ti += 1
        return tok

    def parse_term(sign: int) -> None:
        coeff = Fraction(sign)
        exponents = [0] * nvars
        saw_anything = False
        kind, value, pos = peek()
        if kind == "int":
            advance()
            saw_anything = True
            num = int(value)
            kind, value, _ = peek()
            if kind == "op" and value == "/":
                advance()
                dk, dv, dp = advance()
                if dk != "int":
                    raise PolynomialSyntaxError("expected denominator", dp)
                den = int(dv)
                if den == 0:
                    raise PolynomialSyntaxError("zero denominator", dp)
                coeff *= Fraction(num, den)
            else:
                coeff *= num
        while True:
            kind, value, pos = peek()
            if kind == "op" and value == "*":
                advance()
                kind, value, pos = peek()
                if kind != "ident":
                    raise PolynomialSyntaxError("expected variable after '*'", pos)
            if kind != "ident":
                break
            advance()
            saw_anything = True
            if value not in index:
                raise PolynomialSyntaxError(f"unknown variable {value!r}", pos)
            var = index[value]
            power = 1
            kind2, value2, _ = peek()
            if kind2 == "op" and value2 == "^":
                advance()
                ek, ev, ep = advance()
                if ek != "int":
                    raise PolynomialSyntaxError("expected integer exponent", ep)
                power = int(ev)
            exponents[var] += power
        if not saw_anything:
            kind, value, pos = peek()
            raise PolynomialSyntaxError("expected a term", pos)
        mono = tuple(exponents)
        if total := terms.get(mono, 0) + coeff:
            terms[mono] = total
        else:
            terms.pop(mono, None)

    terms: dict = {}
    sign = 1
    kind, value, pos = peek()
    if kind == "op" and value in "+-":
        advance()
        sign = -1 if value == "-" else 1
    parse_term(sign)
    while True:
        kind, value, pos = peek()
        if kind == "end":
            break
        if kind == "op" and value in "+-":
            advance()
            parse_term(-1 if value == "-" else 1)
        else:
            raise PolynomialSyntaxError(f"expected '+' or '-', got {value!r}", pos)
    return Polynomial._of(nvars, terms)


def format_rational(value: Fraction) -> str:
    return str(value if isinstance(value, Fraction) else Fraction(value))


def _format_term(mono, coeff: Fraction, names: Sequence[str], lead: bool) -> str:
    factors = []
    for e, name in zip(mono, names):
        if e == 1:
            factors.append(name)
        elif e > 1:
            factors.append(f"{name}^{e}")
    num, den = coeff.numerator, coeff.denominator
    sign = "-" if num < 0 else "+"
    # str(abs(coeff)), without building a Fraction.
    mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
    if not factors:
        body = mag
    elif mag == "1":
        body = "*".join(factors)
    else:
        body = mag + "*" + "*".join(factors)
    if lead:
        return body if sign == "+" else "-" + body
    return f" {sign} {body}"


def format_polynomial(
    poly: Polynomial,
    names: Sequence[str] | None = None,
    order: MonomialOrder = DEFAULT_ORDER,
) -> str:
    """Print in descending monomial order under `order`."""
    if names is None:
        from powerpoly.polynomial import default_names

        names = default_names(poly.nvars)
    if len(names) != poly.nvars:
        raise ValueError(f"{len(names)} names for {poly.nvars} variables")
    if poly.is_zero():
        return "0"
    parts = []
    for i, (mono, coeff) in enumerate(poly.sorted_terms(order)):
        parts.append(_format_term(mono, coeff, names, lead=(i == 0)))
    return "".join(parts)
