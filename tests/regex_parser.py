"""The regex parser rscubic.parsing's scanner replaced, kept as the reference
the scanner is tested against: the same grammar, results and errors (type,
message and position), read by one compiled regex per term.

One compiled regex, matched in parse_cubic's loop, reads a whole term from its
start position; every token of the grammar is an optional group in it, so a
malformed term still matches and the groups it lacks name the error and its
position.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Optional, Union

from rscubic.parsing import ParseError
from rscubic.reduction import GeneralCubic, _beyond_double, _coerce, _fraction, _tuple_new

_WS = re.compile(r"\s*")


def _sqrt_pattern(i: int) -> str:
    """'sqrt' '(' digits ')' with each token after 'sqrt' optional, groups suffixed i."""
    return rf"(?P<s{i}>sqrt)(?:\s*(?P<o{i}>\()(?:\s*(?P<n{i}>\d+)(?:\s*(?P<c{i}>\)))?)?)?"


# 19 groups: CPython 3.11 keeps up to 2000 freed 20-tuples that it never reuses (400 KB).
_TERM = re.compile(
    r"(?P<sign>[+-]?)\s*"
    # coefficient: a sqrt literal, or a number with an optional '* sqrtlit' factor
    r"(?:" + _sqrt_pattern(1) + r"|"
    # an integer first, the common term: (?![\d.]) leaves a decimal to the second alternative
    r"(?:(?P<num>\d+)(?![\d.])(?:\s*(?P<slash>/)(?:\s*(?P<den>\d+))?)?|(?=\.?\d)(?P<ip>\d*)\.(?P<fp>\d*))"
    r"(?:\s*(?P<star2>\*)\s*" + _sqrt_pattern(2) + r")?"
    r")?"
    r"\s*(?P<star>\*)?(?:\s*(?P<x>[xX])(?:\s*(?P<caret>\^)(?:\s*(?P<pow>\d+))?)?)?\s*"
)

# A coefficient value: an exact rational as (numerator, denominator > 0),
# or a float (a product with an irrational sqrt literal).
_Value = Union[tuple[int, int], float]

# int() refuses a digit string longer than sys.get_int_max_str_digits().
_TOO_LONG = "number has too many digits"


def _skip_ws(text: str, pos: int) -> int:
    return _WS.match(text, pos).end()


def _ratio_float(n: int, d: int) -> float:
    """n / d rounded once, for a float sum; beyond the double range it is an InvalidInputError."""
    try:
        return n / d
    except OverflowError:
        raise _beyond_double() from None


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
    _, s1, _, _, _, digits, slash, den, ip, fp, _, s2 = g[:12]
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
    return (n * root, d) if isinstance(root, int) else _ratio_float(n, d) * root


def parse_cubic(text: str) -> GeneralCubic:
    """Parse an equation string into a (monic-normalized) general cubic; raises ParseError."""
    # Per power: an exact (numerator, denominator) sum, or a float once an
    # irrational term joins it (summed in term order, as Fraction + float
    # arithmetic would round it).
    sums: list[_Value] = [(0, 1)] * 4
    pos = start = _skip_ws(text, 0)
    end = len(text)
    if pos == end:
        raise ParseError("empty input", pos, text)
    while pos < end:
        if text[pos] == "=":
            pos = _skip_ws(text, pos + 1)
            if not text.startswith("0", pos):
                raise ParseError("only '= 0' is supported on the right-hand side", pos, text)
            pos = _skip_ws(text, pos + 1)
            if pos < end:
                raise ParseError("unexpected input after '= 0'", pos, text)
            break
        m = _TERM.match(text, pos)
        g = m.groups()
        sign, digits, (star, x, caret, exponent) = g[0], g[5], g[15:]
        if not sign and pos != start:
            raise ParseError("expected '+', '-' or '=' between terms", pos, text)
        if digits is not None and g[6] is None and g[11] is None:  # a plain integer, read here
            try:
                vn, vd = int(digits), 1
            except ValueError:
                raise ParseError(_TOO_LONG, m.start("num"), text) from None
        else:
            value = _coefficient(m, g)
            if value is None:
                if x is None or star is not None:
                    at = m.start("star") if star is not None else _skip_ws(text, m.end("sign"))
                    raise ParseError("expected a coefficient or 'x'", at, text)
                value = (1, 1)
            vn, vd = value if type(value) is tuple else (None, 1)  # vn / vd, or the float value
        power = 0 if x is None else 1
        if caret is not None:  # only after an x
            if exponent is None:
                raise ParseError("expected an integer exponent after '^'", _skip_ws(text, m.end("caret")), text)
            try:
                power = int(exponent)
            except ValueError:
                raise ParseError(_TOO_LONG, m.start("pow"), text) from None
            if power > 3:
                raise ParseError(f"power {power} exceeds 3 (cubics only)", pos, text)
        elif x is None and star is not None:
            raise ParseError("expected 'x' after '*'", _skip_ws(text, m.end("star")), text)
        acc = sums[power]
        if vn is not None and type(acc) is tuple:
            n, d = acc
            sums[power] = (n * vd - vn * d, d * vd) if sign == "-" else (n * vd + vn * d, d * vd)
        else:
            term = value if vn is None else _ratio_float(vn, vd)
            sums[power] = (_ratio_float(*acc) if type(acc) is tuple else acc) + (-term if sign == "-" else term)
        pos = m.end()
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
    m = _TERM.match(text, _skip_ws(text, 0))
    value = _coefficient(m, m.groups())
    if value is None:
        raise ParseError("expected a number", _skip_ws(text, m.end("sign")), text)
    # A '*' or an x-part after the literal is trailing input here.
    end = m.start("star") if m["star"] is not None else m.start("x") if m["x"] is not None else m.end()
    if end < len(text):
        raise ParseError("unexpected trailing input", end, text)
    sign = -1 if m["sign"] == "-" else 1
    return sign * (_fraction(*value) if isinstance(value, tuple) else value)
