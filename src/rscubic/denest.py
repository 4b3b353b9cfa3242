"""Denesting cbrt(a + sqrt(b)) + cbrt(a - sqrt(b)) by inverting the cubic map.

Such a sum x satisfies x^3 = 2a + 3 cbrt(a^2 - b) * x (cube it and regroup),
i.e. it is a root of x^3 + px + q with

    p = -3 * cbrt(a^2 - b),    q = -2a,

where the cube root is the real, sign-preserving one (a^2 - b is often
negative). Its discriminant 4p^3 + 27q^2 is 108b >= 0: the value is the
cubic's one simple real root (b = 0 adds a double root at -value/2). Rational
a and b give q, a^2 - b and p on integers, one gcd each. Where a^2 - b is a
rational cube the cubic is exact, and one exact bisection over the integers of
its monic integer form, within 2e-9 of the float value (relative), finds the
value when rational: no factoring, and it always completes. An exact a^2 - b
that is no rational cube, with |p| beyond the doubles, raises InvalidInputError.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .chen import fraction_cbrt
from .numerics import _band, _exponent, _float_of, _root, _scaled
from .reduction import DepressedCubic, InvalidInputError, _coerced, _fraction, _record, _tuple_new


class NestedRadical(_record("NestedRadical", "a b")):
    """The expression cbrt(a + sqrt(b)) + cbrt(a - sqrt(b)), b >= 0; a float a or b rounds both."""

    __slots__ = ()

    def __new__(cls, a, b):
        radical = _coerced(cls, a, b)
        if (radical.b if type(radical.b) is float else radical.b._numerator) < 0:
            raise InvalidInputError("b must be nonnegative (real square root)")
        return radical


class DenestResult(_record("DenestResult", "value exact cubic note", (None,))):
    """The radical's float value, its exact Fraction (or None) and its DepressedCubic.

    note is always None, since the one bisection cannot give up; kept for readers of the field.
    """

    __slots__ = ()


def radical_to_cubic(radical: NestedRadical) -> DepressedCubic:
    """The depressed cubic the radical's value satisfies: p = -3 cbrt(a^2-b), q = -2a.
    Float unless a^2 - b is a rational cube. A float a^2 - b is formed on the
    radical's scale, as (a 8^-k)^2 - b 64^-k, so it neither over- nor underflows.
    A -2a that no double holds stays exact; a float p that none holds raises InvalidInputError."""
    a, b = radical
    if type(a) is float:
        q, k = -2 * a, _scale(a, b)
        fa = _float_of(a, -3 * k)
        t, k = fa * fa - _float_of(b, -6 * k), 2 * k  # a^2 - b at 64^-k, so its cube root is at 4^-k
        if math.isinf(q):
            q = -2 * Fraction(a)
    else:
        an, ad, bn, bd = a._numerator, a._denominator, b._numerator, b._denominator
        q, t = _fraction(-2 * an, ad), _fraction(an * an * bd - bn * ad * ad, ad * ad * bd)
        cr = fraction_cbrt(t)
        if cr is not None:
            return _tuple_new(DepressedCubic, (_fraction(-3 * cr._numerator, cr._denominator), q))
        k = _band(-(-_exponent(t) // 3))  # t's own scale: a^2 - b cancels where b ~ a^2
        t = _float_of(t, -3 * k)
    p = _scaled(-3.0 * _root(t, 3), k, "p = -3 cbrt(a^2 - b)")
    try:
        return DepressedCubic(p, q)
    except InvalidInputError:
        # The mixed cubic: a float p beside an exact q beyond the double range, which solve_depressed solves.
        return _tuple_new(DepressedCubic, (p, q))


def _scale(a, b) -> int:
    """The radical's scale exponent k = max(ceil(e_a / 3), ceil(e_b / 6)), 0 in band: a^2 - b
    is formed as (a 8^-k)^2 - b 64^-k, and the value scales by 2^-k. b = 0 has no exponent,
    so k is then a's alone; a = 0 gives 0 on its side."""
    k = -(-_exponent(a) // 3)
    if b:
        k = max(k, -(-_exponent(b) // 6))
    return _band(k)


def _value(radical: NestedRadical, cubic: DepressedCubic) -> float:
    """u = cbrt(a + sign(a) sqrt(b)) plus the other cube root v = cbrt(a^2 - b) / u = -p / (3u):
    an exact radical's p = -3 cbrt(a^2 - b) is formed from an exact a^2 - b, so b ~ a^2 does not cancel.
    When b > a^2 (p > 0), v has the opposite sign, and once 2|v| > |u| the sum is taken as
    (u^3 + v^3) / (u^2 - uv + v^2) = 2a / (u^2 - uv + v^2), whose terms do not cancel.
    Formed on (a 8^-k, b 64^-k, p 4^-k), which scales the value by 2^-k; k = 0 in band."""
    a, b, p = radical.a, radical.b, cubic.p
    if not a:
        return 0.0  # the two cube roots cancel exactly
    k = _scale(a, b)
    a, b, p = _float_of(a, -3 * k), _float_of(b, -6 * k), _float_of(p, -2 * k)
    u = _root(a + math.copysign(math.sqrt(b), a), 3)
    v = -p / (3.0 * u)
    x = 2.0 * a / (u * u - u * v + v * v) if p > 0 and 2.0 * abs(v) > abs(u) else u + v
    return _scaled(x, k, "the value = {}")


def _rational_root_near(p: Fraction, q: Fraction, target: float) -> Optional[Fraction]:
    """The radical's value as a Fraction, if rational: target is its float, x^3 + px + q its cubic (q = -2a).

    With L = lcm(den p, den q), y = L x gives the monic integer cubic y^3 + P y + Q
    (P = p L^2, Q = q L^3), whose rational roots are integers (rational root theorem).
    The discriminant 108b >= 0 makes the value the one simple real root, of a's sign; a
    double root (b = 0) sits at -value/2, across 0. So on the value's side, within
    2e-9 |target| (plus a subnormal's rounding and one integer), the cubic is negative below
    the value and nonnegative from it on: one exact bisection finds the smallest such y.
    """
    lead = math.lcm(p._denominator, q._denominator)
    big_p = p._numerator * (lead // p._denominator) * lead
    big_q = q._numerator * (lead // q._denominator) * lead * lead
    width = 2e-9 * abs(target) + 5e-324
    n, d = (target - width).as_integer_ratio()
    lo = lead * n // d - 1
    n, d = (target + width).as_integer_ratio()
    hi = -(-lead * n // d) + 1
    lo, hi = (max(lo, 1), hi) if big_q < 0 else (lo, min(hi, -1))  # the value's side of 0
    while lo < hi:
        mid = (lo + hi) // 2
        if (mid * mid + big_p) * mid + big_q >= 0:
            hi = mid
        else:
            lo = mid + 1
    return _fraction(lo, lead) if (lo * lo + big_p) * lo + big_q == 0 else None


def denest(radical: NestedRadical) -> DenestResult:
    """Numeric value of the radical, plus its exact rational form when one exists."""
    cubic = radical_to_cubic(radical)
    value = _value(radical, cubic)
    a, (p, q) = radical.a, cubic
    if type(a) is not float and not a._numerator:  # cbrt(sqrt(b)) + cbrt(-sqrt(b)) cancels identically, whatever b is
        return _tuple_new(DenestResult, (value, Fraction(0), cubic, None))
    return _tuple_new(DenestResult, (value, None if type(p) is float else _rational_root_near(p, q, value), cubic, None))
