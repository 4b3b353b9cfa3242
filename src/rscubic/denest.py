"""Denesting cbrt(a + sqrt(b)) + cbrt(a - sqrt(b)) by inverting the cubic map.

Such a sum x satisfies x^3 = 2a + 3 cbrt(a^2 - b) * x (cube it and regroup),
i.e. it is a root of x^3 + px + q with

    p = -3 * cbrt(a^2 - b),    q = -2a,

where the cube root is the real, sign-preserving one (a^2 - b is often
negative). When a and b are rational and a^2 - b is a perfect rational
cube, the cubic is exact and a rational-root search can replace the nested
radical by a plain number -- no by-hand simplification step. The search
needs no factoring: scaled to a monic integer cubic, a rational root near
the radical's float value is an integer in a narrow window, found by exact
bisection, so it always completes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .chen import fraction_cbrt
from .numerics import _band, _exponent, _root, _shift
from .reduction import DepressedCubic, InvalidInputError, _beyond_double, _coerce, _record, _tuple_new


class NestedRadical(_record("NestedRadical", "a b")):
    """The expression cbrt(a + sqrt(b)) + cbrt(a - sqrt(b)), b >= 0; a float a or b rounds both."""

    __slots__ = ()

    def __new__(cls, a, b):
        a, b = _coerce(a), _coerce(b)
        if isinstance(a, float) or isinstance(b, float):
            try:
                a, b = float(a), float(b)
            except OverflowError:
                raise _beyond_double() from None
        if b < 0:
            raise InvalidInputError("b must be nonnegative (real square root)")
        return _tuple_new(cls, (a, b))


class DenestResult(_record("DenestResult", "value exact cubic note", (None,))):
    """The radical's float value, its exact Fraction (or None) and its DepressedCubic.

    note is always None since the rational-root search cannot give up; kept for readers of the field.
    """

    __slots__ = ()


def radical_to_cubic(radical: NestedRadical) -> DepressedCubic:
    """The depressed cubic the radical's value satisfies: p = -3 cbrt(a^2-b), q = -2a.
    Float unless a^2 - b is a rational cube; an exact -2a that no double holds stays exact."""
    a, b = radical.a, radical.b
    t = a * a - b
    cr = None if isinstance(t, float) else fraction_cbrt(t)
    p = -3 * cr if cr is not None else -3.0 * _root(t, 3)
    try:
        return DepressedCubic(p, -2 * a)
    except InvalidInputError:  # p is a float here; solve_depressed still solves the cubic
        return _tuple_new(DepressedCubic, (p, -2 * a))


def _value(radical: NestedRadical, cubic: DepressedCubic) -> float:
    """u = cbrt(a + sign(a) sqrt(b)) plus the other cube root, cbrt(a^2 - b) / u = -p / (3u):
    p = -3 cbrt(a^2 - b) of the radical's cubic is formed from an exact a^2 - b, so b ~ a^2 does not cancel.
    Formed on (a 8^-k, b 64^-k, p 4^-k), which scales the value by 2^-k; k = 0 in band."""
    a, b, p = radical.a, radical.b, cubic.p
    if not a:
        return 0.0  # the two cube roots cancel exactly
    ka, kb = -(-_exponent(a) // 3), -(-_exponent(b) // 6)  # ceil(e_a / 3), ceil(e_b / 6)
    k = _band(kb if kb > ka else ka)
    if k:
        a, b, p = _shift(a, -3 * k), _shift(b, -6 * k), _shift(p, -2 * k)
    a = float(a)
    u = _root(a + math.copysign(_root(b, 2), a), 3)
    return math.ldexp(u - float(p) / (3.0 * u), k)


def _rational_root_near(p: Fraction, q: Fraction, target: float) -> Optional[Fraction]:
    """Rational root of x^3 + px + q within 1e-9 max(1, |target|) of target, if one exists.

    With L = lcm(den p, den q), y = L x gives the monic integer cubic
    y^3 + P y + Q (P = p L^2, Q = q L^3), whose rational roots are integers
    (rational root theorem). Only integers within about 2e-9 max(1, |target|)
    of L target can pass, and the cubic is strictly monotone on the integer
    runs y < -k, |y| <= k and y > k (k = floor(sqrt(-P/3)) when P < 0), so
    exact bisection finds each run's root in O(log window) evaluations.
    Ties go to the smallest reduced denominator, then the smallest
    |numerator|, then the positive root.
    """
    if q == 0:
        # q = 0: zero is a root; it only denests the radical if it IS the value.
        return Fraction(0) if abs(target) <= 1e-9 else None
    lead = math.lcm(p.denominator, q.denominator)
    big_p = p.numerator * (lead // p.denominator) * lead
    big_q = q.numerator * (lead // q.denominator) * lead * lead
    scale = max(1.0, abs(target))
    width = 2e-9 * scale
    n, d = (target - width).as_integer_ratio()
    lo = lead * n // d - 1
    n, d = (target + width).as_integer_ratio()
    hi = -(-lead * n // d) + 1
    if big_p < 0:
        k = math.isqrt(-big_p // 3)
        runs = ((lo, -k - 1, 1), (-k, k, -1), (k + 1, hi, 1))
    else:
        runs = ((lo, hi, 1),)
    found = []
    for start, stop, sign in runs:
        # Smallest y in the run with sign * f(y) >= 0; f(y) = 0 there iff the run has a root.
        y, stop = max(start, lo), min(stop, hi)
        if y > stop:
            continue
        while y < stop:
            mid = (y + stop) // 2
            if sign * ((mid * mid + big_p) * mid + big_q) >= 0:
                stop = mid
            else:
                y = mid + 1
        if (y * y + big_p) * y + big_q == 0:
            x = Fraction(y, lead)
            fx = float(x)
            if abs(fx - target) <= 1e-9 * scale:
                found.append(x)
    return min(found, key=lambda x: (x.denominator, abs(x.numerator), x < 0), default=None)


def denest(radical: NestedRadical) -> DenestResult:
    """Numeric value of the radical, plus its exact rational form when one exists."""
    cubic = radical_to_cubic(radical)
    value = _value(radical, cubic)
    if not isinstance(radical.a, float) and radical.a == 0:
        # cbrt(sqrt(b)) + cbrt(-sqrt(b)) cancels identically, whatever b is.
        return DenestResult(value, Fraction(0), cubic)
    if not cubic.exact:
        return DenestResult(value, None, cubic)
    return DenestResult(value, _rational_root_near(cubic.p, cubic.q, value), cubic)
