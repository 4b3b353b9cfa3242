"""Parser for cubic equations written as text, e.g. "x^3 - 12x + 16 = 0".

Grammar (whitespace-insensitive, locale-independent, '.' decimal point):

    equation := term+ ('=' '0')?
    term     := [+|-] coefficient? '*'? ('x' ('^' digits)?)?
    coefficient := number ('*' sqrtlit)? | sqrtlit
    number   := digits '/' digits | decimal | digits
    sqrtlit  := 'sqrt' '(' digits ')'

A scanner of str methods reads each term from its start position: whitespace is what
str.isspace accepts and a digit what str.isdecimal accepts, exactly the characters \\s
and \\d match in a str pattern (Unicode spaces and Nd digits among them); every other
token is ASCII. parse_cubic's loop reads a plain integer itself, and one term reader,
_coefficient, reads any other coefficient for parse_cubic and parse_coefficient alike.
Integers, rationals a/b and decimals parse to exact values ("0.75" -> 3/4), summed per
power as integer numerator/denominator pairs. sqrt(m) stays exact for perfect squares
and falls back to a float otherwise, which makes the whole cubic float. parse_cubic
divides the lead ln/ld out: an exact cubic's only Fractions are its monic
coefficients, one reduction._fraction(n ld, d ln) each (one gcd), and a float cubic
rounds each sum once and divides it by the rounded lead. A term needs a coefficient or
an x-part, powers may not exceed 3, and the x^3 coefficient must be nonzero. A digit
string longer than int() converts (4300 digits by default) is an error, as is an exact
value too large to round into a float.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Union

from .reduction import GeneralCubic, _beyond_double, _coerce, _fraction, _tuple_new

# A coefficient value: an exact rational as (numerator, denominator > 0),
# or a float (a product with an irrational sqrt literal).
_Value = Union[tuple[int, int], float]

# int() refuses a digit string longer than sys.get_int_max_str_digits().
_TOO_LONG = "number has too many digits"

# The scanner reads s = text + _END: a NUL is no token, space or digit, so a read past the text
# needs no length check, and s[i : i + _W] has _W characters at any position i of the text.
_W, _ASCII_DIGITS = 12, "0123456789"
_END = "\0" * _W


class ParseError(ValueError):
    """Syntax or degree error, annotated with the offending position."""

    def __init__(self, message: str, position: int, text: str = ""):
        self.position = position
        self.text = text
        pointer = ""
        if text:
            pointer = f"\n  {text}\n  {' ' * position}^"
        super().__init__(f"{message} (at position {position}){pointer}")


def _skip_ws(s: str, i: int) -> int:
    while s[i].isspace():
        i += 1
    return i


def _digits_end(s: str, i: int) -> int:
    """The end of the digit run at i: all-digit slices doubling in length, then ASCII digits stripped."""
    w = _W
    while s[i].isdecimal():
        chunk = s[i : i + w]
        if chunk.isdecimal():
            i, w = i + w, w + w
        else:
            i, w = i + (len(chunk) - len(chunk.lstrip(_ASCII_DIGITS)) or 1), _W
    return i


def _int(digits: str, at: int, s: str) -> int:
    """int(digits); past int()'s digit limit, a ParseError at ``at``."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(_TOO_LONG, at, s[:-_W]) from None


def _ratio_float(n: int, d: int) -> float:
    """n / d rounded once, for a float sum; beyond the double range it is an InvalidInputError."""
    try:
        return n / d
    except OverflowError:
        raise _beyond_double() from None


def _sqrt_value(s: str, save: int, i: int) -> tuple[Union[int, float], int]:
    """The sqrt literal whose 'sqrt' ends at i: an int root when exact, else a float, and the position
    after its ')' and whitespace; a missing '(' is reported at ``save``, where its parse began."""
    i = _skip_ws(s, i)
    if s[i] != "(":
        raise ParseError("expected '(' after sqrt", save, s[:-_W])
    i = _skip_ws(s, i + 1)
    j = _digits_end(s, i)
    if j == i:
        raise ParseError("expected a nonnegative integer inside sqrt()", i, s[:-_W])
    k = _skip_ws(s, j)
    if s[k] != ")":
        raise ParseError("expected ')'", k, s[:-_W])
    n = _int(s[i:j], i, s)
    root = math.isqrt(n)
    return root if root * root == n else math.sqrt(n), _skip_ws(s, k + 1)


def _coefficient(s: str, at: int, i: int) -> tuple[Optional[_Value], int]:
    """The term reader: the coefficient at i of a term whose sign ends at ``at``, or None
    if it has none, and the position after it and its whitespace."""
    if s.startswith("sqrt", i):
        root, j = _sqrt_value(s, at, i + 4)
        return (root, 1) if type(root) is int else root, j
    j = _digits_end(s, i)
    if s[j] == "." and (j > i or s[j + 1].isdecimal()):  # a decimal: "1.50" is 150/100
        k = _digits_end(s, j + 1)
        n, d, j = _int(s[i:j] + s[j + 1 : k], i, s), 10 ** (k - j - 1), _skip_ws(s, k)
    elif j == i:
        return None, i
    else:
        num, j = j, _skip_ws(s, j)
        n, d = _int(s[i:num], i, s), 1
        if s[j] == "/":  # the denominator's digits are s[k:j]; one too long is reported at i too
            k = _skip_ws(s, j + 1)
            j = _digits_end(s, k)
            if j == k:
                raise ParseError("expected an integer denominator after '/'", k, s[:-_W])
            d = _int(s[k:j], i, s)
            if not d:
                raise ParseError("zero denominator", num + 1, s[:-_W])
            j = _skip_ws(s, j)
    if s[j] == "*":  # a '* sqrtlit' factor, or the term's own '*'
        k = _skip_ws(s, j + 1)
        if s.startswith("sqrt", k):
            root, j = _sqrt_value(s, j + 1, k + 4)
            return ((n * root, d) if type(root) is int else _ratio_float(n, d) * root), j
    return (n, d), j


def parse_cubic(text: str) -> GeneralCubic:
    """Parse an equation string into a (monic-normalized) general cubic; raises ParseError."""
    # Per power: an exact (numerator, denominator) sum, or a float once an
    # irrational term joins it (summed in term order, as Fraction + float
    # arithmetic would round it).
    sums: list[_Value] = [(0, 1)] * 4
    s = text + _END
    pos = start = _skip_ws(s, 0)
    end = len(text)
    if pos == end:
        raise ParseError("empty input", pos, text)
    while pos < end:
        sign = s[pos]
        if sign == "=":
            pos = _skip_ws(s, pos + 1)
            if s[pos] != "0":
                raise ParseError("only '= 0' is supported on the right-hand side", pos, text)
            pos = _skip_ws(s, pos + 1)
            if pos < end:
                raise ParseError("unexpected input after '= 0'", pos, text)
            break
        at = i = pos + (sign == "+" or sign == "-")
        if i == pos != start:
            raise ParseError("expected '+', '-' or '=' between terms", pos, text)
        while s[i].isspace():
            i += 1
        # A plain integer of up to _W ASCII digits is read here, any other coefficient by _coefficient.
        j = k = i + _W - len(s[i : i + _W].lstrip(_ASCII_DIGITS))
        while s[k].isspace():
            k += 1
        c = s[k]
        if j > i and s[j] != "." and not s[j].isdecimal() and c != "/" and (c != "*" or "sqrt" not in text):
            vn, vd = int(s[i:j]), 1
        elif j == i and (c == "x" or c == "X"):
            vn = vd = 1
        else:
            value, k = _coefficient(s, at, i)
            if value is None:  # and no x: a term of x alone is read above
                raise ParseError("expected a coefficient or 'x'", k, text)
            vn, vd = value if type(value) is tuple else (None, 1)  # vn / vd, or the float value
        star = None
        if s[k] == "*":
            star, k = k, _skip_ws(s, k + 1)
        i, c, power = k, s[k], 0
        if c == "x" or c == "X":
            power, i = 1, _skip_ws(s, i + 1)
            if s[i] == "^":
                k = _skip_ws(s, i + 1)
                i = k + _W - len(s[k : k + _W].lstrip(_ASCII_DIGITS))
                if s[i].isdecimal():
                    i = _digits_end(s, i)
                if i == k:
                    raise ParseError("expected an integer exponent after '^'", k, text)
                power = _int(s[k:i], k, s)
                if power > 3:
                    raise ParseError(f"power {power} exceeds 3 (cubics only)", pos, text)
                i = _skip_ws(s, i)
        elif star is not None:
            raise ParseError("expected 'x' after '*'", i, text)
        acc = sums[power]
        if vn is not None and type(acc) is tuple:
            n, d = acc
            sums[power] = (n * vd - vn * d, d * vd) if sign == "-" else (n * vd + vn * d, d * vd)
        else:
            term = value if vn is None else _ratio_float(vn, vd)
            sums[power] = (_ratio_float(*acc) if type(acc) is tuple else acc) + (-term if sign == "-" else term)
        pos = i
    c, b, a, lead = sums
    if not (lead[0] if type(lead) is tuple else lead):
        raise ParseError("not a cubic: the x^3 coefficient is zero", 0, text)
    if type(a) is type(b) is type(c) is type(lead) is tuple:  # exact: v / lead = (n ld) / (d ln)
        (an, ad), (bn, bd), (cn, cd), (ln, ld) = a, b, c, lead
        return _tuple_new(GeneralCubic, (_fraction(an * ld, ad * ln), _fraction(bn * ld, bd * ln), _fraction(cn * ld, cd * ln)))
    # A non-finite float sum is refused before any rounding, the lead's first.
    lead, a, b, c = (v if type(v) is tuple else _coerce(v) for v in (lead, a, b, c))
    try:  # n / d has the bits of float(Fraction(n, d)), and x / 1.0 is x
        lead, a, b, c = (v[0] / v[1] if type(v) is tuple else v for v in (lead, a, b, c))
        return GeneralCubic(a / lead, b / lead, c / lead)
    except (OverflowError, ZeroDivisionError):  # a sum beyond the double range, or a lead rounded to 0.0
        raise _beyond_double() from None


def parse_coefficient(text: str) -> Union[Fraction, float]:
    """Parse a standalone coefficient literal: '9/2', '-0.5', '64*sqrt(2)', 'sqrt(3)'."""
    s = text + _END
    i = _skip_ws(s, 0)
    sign = s[i]
    at = i + (sign == "+" or sign == "-")
    value, i = _coefficient(s, at, _skip_ws(s, at))
    if value is None:
        raise ParseError("expected a number", i, text)
    # A '*' or an x-part after the literal is trailing input here.
    if i < len(text):
        raise ParseError("unexpected trailing input", i, text)
    return (-1 if sign == "-" else 1) * (_fraction(*value) if isinstance(value, tuple) else value)
