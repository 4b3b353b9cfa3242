"""Parser for cubic equations written as text, e.g. "x^3 - 12x + 16 = 0".

Grammar (whitespace-insensitive, locale-independent, '.' decimal point):

    equation := term+ ('=' '0')?
    term     := [+|-] coefficient? '*'? ('x' ('^' digits)?)?
    coefficient := number ('*' sqrtlit)? | sqrtlit
    number   := digits '/' digits | decimal | digits
    sqrtlit  := 'sqrt' '(' digits ')'

One compiled regex reads a whole term from its start position; every
token of the grammar is an optional group in it, so a malformed term
still matches and the groups it lacks name the error and its position.
Integers, rationals a/b, and decimals parse to exact values ("0.75" -> 3/4),
summed per power as integer numerator/denominator pairs. sqrt(m) stays exact
for perfect squares and falls back to a float otherwise, which makes the whole
cubic float. parse_cubic divides the lead ln/ld out: an exact cubic's only
Fractions are its monic coefficients, one Fraction(n ld, d ln) each, and a float
cubic rounds each sum once and divides it by the rounded lead. A term needs a
coefficient or an x-part, powers may not exceed 3, and the x^3 coefficient
must be nonzero. A digit string longer than int() converts (4300 digits by
default) is an error.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterator, Optional, Union

from .reduction import GeneralCubic, _beyond_double, _coerce, _tuple_new

_WS = re.compile(r"\s*")


def _sqrt_pattern(i: int) -> str:
    """'sqrt' '(' digits ')' with each token after 'sqrt' optional, groups suffixed i."""
    return rf"(?P<s{i}>sqrt)(?:\s*(?P<o{i}>\()(?:\s*(?P<n{i}>\d+)(?:\s*(?P<c{i}>\)))?)?)?"


# 19 groups: CPython 3.11 keeps up to 2000 freed 20-tuples that it never reuses (400 KB).
_TERM = re.compile(
    r"(?P<sign>[+-]?)\s*"
    # coefficient: a sqrt literal, or a number with an optional '* sqrtlit' factor
    r"(?:" + _sqrt_pattern(1) + r"|"
    r"(?:(?=\.?\d)(?P<ip>\d*)\.(?P<fp>\d*)|(?P<num>\d+)(?:\s*(?P<slash>/)(?:\s*(?P<den>\d+))?)?)"
    r"(?:\s*(?P<star2>\*)\s*" + _sqrt_pattern(2) + r")?"
    r")?"
    r"\s*(?P<star>\*)?(?:\s*(?P<x>[xX])(?:\s*(?P<caret>\^)(?:\s*(?P<pow>\d+))?)?)?\s*"
)

# A coefficient value: an exact rational as (numerator, denominator > 0),
# or a float (a product with an irrational sqrt literal).
_Value = Union[tuple[int, int], float]

# int() refuses a digit string longer than sys.get_int_max_str_digits().
_TOO_LONG = "number has too many digits"


class ParseError(ValueError):
    """Syntax or degree error, annotated with the offending position."""

    def __init__(self, message: str, position: int, text: str = ""):
        self.position = position
        self.text = text
        pointer = ""
        if text:
            pointer = f"\n  {text}\n  {' ' * position}^"
        super().__init__(f"{message} (at position {position}){pointer}")


def _skip_ws(text: str, pos: int) -> int:
    return _WS.match(text, pos).end()


def _sqrt_value(m: re.Match, i: int, save: int) -> Union[int, float]:
    """The sqrt literal of group suffix i: an int root when exact, else a float.

    ``save`` is where the literal's parse began (before any whitespace),
    which is where a missing '(' is reported.
    """
    text = m.string
    if m[f"o{i}"] is None:
        raise ParseError("expected '(' after sqrt", save, text)
    if m[f"n{i}"] is None:
        raise ParseError("expected a nonnegative integer inside sqrt()", _skip_ws(text, m.end(f"o{i}")), text)
    if m[f"c{i}"] is None:
        raise ParseError("expected ')'", _skip_ws(text, m.end(f"n{i}")), text)
    try:
        n = int(m[f"n{i}"])
    except ValueError:
        raise ParseError(_TOO_LONG, m.start(f"n{i}"), text) from None
    root = math.isqrt(n)
    return root if root * root == n else math.sqrt(n)


def _coefficient(m: re.Match, g: tuple) -> Optional[_Value]:
    """The coefficient a term or literal match holds, or None if it has none; g is m.groups()."""
    _, s1, _, _, _, ip, fp, digits, slash, den, _, s2 = g[:12]
    if s1 is not None:
        root = _sqrt_value(m, 1, m.end("sign"))
        return (root, 1) if isinstance(root, int) else root
    text = m.string
    try:
        if ip is not None:  # a decimal: "1.50" is 150/100
            n, d = int(ip + fp), 10 ** len(fp)
        elif digits is not None:
            n, d = int(digits), 1 if den is None else int(den)
        else:
            return None
    except ValueError:
        raise ParseError(_TOO_LONG, m.start("num" if ip is None else "ip"), text) from None
    if slash is not None:
        if den is None:
            raise ParseError("expected an integer denominator after '/'", _skip_ws(text, m.end("slash")), text)
        if d == 0:
            raise ParseError("zero denominator", m.end("num") + 1, text)
    if s2 is None:
        return (n, d)
    root = _sqrt_value(m, 2, m.end("star2"))
    return (n * root, d) if isinstance(root, int) else n / d * root


def _scan(text: str) -> Iterator[tuple[int, _Value, int]]:
    """Yield (sign, coefficient, power) per term; raises ParseError."""
    pos = _skip_ws(text, 0)
    end = len(text)
    if pos == end:
        raise ParseError("empty input", pos, text)
    first = True
    while pos < end:
        if text[pos] == "=":
            pos = _skip_ws(text, pos + 1)
            if not text.startswith("0", pos):
                raise ParseError("only '= 0' is supported on the right-hand side", pos, text)
            pos = _skip_ws(text, pos + 1)
            if pos < end:
                raise ParseError("unexpected input after '= 0'", pos, text)
            return
        m = _TERM.match(text, pos)
        g = m.groups()
        sign, (star, x, caret, digits) = g[0], g[15:]
        if not sign and not first:
            raise ParseError("expected '+', '-' or '=' between terms", pos, text)
        coefficient = _coefficient(m, g)
        if coefficient is None:
            if x is None or star is not None:
                at = m.start("star") if star is not None else _skip_ws(text, m.end("sign"))
                raise ParseError("expected a coefficient or 'x'", at, text)
            coefficient = (1, 1)
        power = 0
        if x is not None:
            power = 1
            if caret is not None:
                if digits is None:
                    raise ParseError("expected an integer exponent after '^'", _skip_ws(text, m.end("caret")), text)
                try:
                    power = int(digits)
                except ValueError:
                    raise ParseError(_TOO_LONG, m.start("pow"), text) from None
                if power > 3:
                    raise ParseError(f"power {power} exceeds 3 (cubics only)", pos, text)
        elif star is not None:
            raise ParseError("expected 'x' after '*'", _skip_ws(text, m.end("star")), text)
        yield (-1 if sign == "-" else 1), coefficient, power
        first = False
        pos = m.end()


def parse_cubic(text: str) -> GeneralCubic:
    """Parse an equation string into a (monic-normalized) general cubic."""
    # Per power: an exact (numerator, denominator) sum, or a float once an
    # irrational term joins it (summed in term order, as Fraction + float
    # arithmetic would round it).
    sums: list[_Value] = [(0, 1)] * 4
    for sign, value, power in _scan(text):
        acc = sums[power]
        if isinstance(acc, tuple) and isinstance(value, tuple):
            (n, d), (vn, vd) = acc, value
            sums[power] = (n * vd + sign * vn * d, d * vd)
        else:
            acc = acc[0] / acc[1] if isinstance(acc, tuple) else acc
            term = sign * value[0] / value[1] if isinstance(value, tuple) else sign * value
            sums[power] = acc + term
    c, b, a, lead = sums
    if not (lead[0] if type(lead) is tuple else lead):
        raise ParseError("not a cubic: the x^3 coefficient is zero", 0, text)
    if type(a) is type(b) is type(c) is type(lead) is tuple:  # exact: v / lead = (n ld) / (d ln)
        (an, ad), (bn, bd), (cn, cd), (ln, ld) = a, b, c, lead
        return _tuple_new(GeneralCubic, (Fraction(an * ld, ad * ln), Fraction(bn * ld, bd * ln), Fraction(cn * ld, cd * ln)))
    # A non-finite float sum is refused before any rounding, the lead's first.
    lead, a, b, c = (v if type(v) is tuple else _coerce(v) for v in (lead, a, b, c))
    try:  # n / d has the bits of float(Fraction(n, d)), and x / 1.0 is x
        lead, a, b, c = (v[0] / v[1] if type(v) is tuple else v for v in (lead, a, b, c))
        return GeneralCubic(a / lead, b / lead, c / lead)
    except (OverflowError, ZeroDivisionError):  # a sum beyond the double range, or a lead rounded to 0.0
        raise _beyond_double() from None


def parse_coefficient(text: str) -> Union[Fraction, float]:
    """Parse a standalone coefficient literal: '9/2', '-0.5', '64*sqrt(2)', 'sqrt(3)'."""
    m = _TERM.match(text, _skip_ws(text, 0))
    value = _coefficient(m, m.groups())
    if value is None:
        raise ParseError("expected a number", _skip_ws(text, m.end("sign")), text)
    # A '*' or an x-part after the literal is trailing input here.
    end = m.start("star") if m["star"] is not None else m.start("x") if m["x"] is not None else m.end()
    if end < len(text):
        raise ParseError("unexpected trailing input", end, text)
    sign = -1 if m["sign"] == "-" else 1
    return sign * (Fraction(*value) if isinstance(value, tuple) else value)
