"""Denesting cbrt(a + sqrt(b)) + cbrt(a - sqrt(b)) by inverting the cubic map.

Such a sum x satisfies x^3 = 2a + 3 cbrt(a^2 - b) * x (cube it and regroup),
i.e. it is a root of x^3 + px + q with

    p = -3 * cbrt(a^2 - b),    q = -2a,

where the cube root is the real, sign-preserving one (a^2 - b is often
negative). When a and b are rational and a^2 - b is a perfect rational
cube, the cubic is exact and a rational-root search can replace the nested
radical by a plain number -- no by-hand simplification step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .chen import fraction_cbrt
from .numerics import real_cube_root
from .reduction import Coefficient, DepressedCubic, InvalidInputError, _coerce, is_exact

# Cap on candidate (numerator divisor, denominator divisor) pairs tried by
# the rational-root search, and on trial-division steps per divisor list.
SEARCH_CAP = 10**6


@dataclass(frozen=True)
class NestedRadical:
    """The expression cbrt(a + sqrt(b)) + cbrt(a - sqrt(b)), b >= 0."""

    a: Coefficient
    b: Coefficient

    def __init__(self, a, b):
        a = _coerce(a)
        b = _coerce(b)
        if b < 0:
            raise InvalidInputError("b must be nonnegative (real square root)")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def evaluate(self) -> float:
        """Direct numeric value, via real cube roots."""
        a, b = float(self.a), float(self.b)
        w = math.sqrt(b)
        return real_cube_root(a + w) + real_cube_root(a - w)


@dataclass(frozen=True)
class DenestResult:
    value: float
    exact: Optional[Fraction]
    cubic: DepressedCubic
    note: Optional[str] = None


def radical_to_cubic(radical: NestedRadical) -> DepressedCubic:
    """The depressed cubic the radical's value satisfies: p = -3 cbrt(a^2-b), q = -2a."""
    a, b = radical.a, radical.b
    t = a * a - b
    if is_exact(t):
        cr = fraction_cbrt(Fraction(t))
        p = -3 * cr if cr is not None else -3.0 * real_cube_root(float(t))
    else:
        p = -3.0 * real_cube_root(float(t))
    return DepressedCubic(p, -2 * a)


def _divisors(n: int) -> tuple[list[int], bool]:
    """Positive divisors of n > 0 (ascending), plus an exhausted flag if capped."""
    small, large = [], []
    i = 1
    while i * i <= n:
        if i > SEARCH_CAP:
            return small + large[::-1], True
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
        i += 1
    return small + large[::-1], False


def _rational_root_near(p: Fraction, q: Fraction, target: float) -> tuple[Optional[Fraction], bool]:
    """Rational root of x^3 + px + q within 1e-9 of target, if one exists.

    Candidates come from the rational root theorem on the integerized cubic
    L x^3 + Lp x + Lq (L clearing both denominators); verification is exact
    Fraction arithmetic. Returns (root_or_None, search_exhausted).
    """
    lead = math.lcm(p.denominator, q.denominator)
    const = abs(q.numerator * (lead // q.denominator)) if q != 0 else 0
    if const == 0:
        # q = 0: zero is a root; it only denests the radical if it IS the value.
        return (Fraction(0), False) if abs(target) <= 1e-9 else (None, False)
    num_divs, exhausted_n = _divisors(const)
    den_divs, exhausted_d = _divisors(lead)
    exhausted = exhausted_n or exhausted_d
    tried = 0
    for den in den_divs:
        for num in num_divs:
            tried += 1
            if tried > SEARCH_CAP:
                return None, True
            if abs(num / den - abs(target)) > 1e-9 * max(1.0, abs(target)):
                continue
            for cand in (Fraction(num, den), Fraction(-num, den)):
                if cand**3 + p * cand + q == 0 and abs(float(cand) - target) <= 1e-9:
                    return cand, exhausted
    return None, exhausted


def denest(radical: NestedRadical) -> DenestResult:
    """Numeric value of the radical, plus its exact rational form when one exists."""
    value = radical.evaluate()
    cubic = radical_to_cubic(radical)
    if is_exact(radical.a) and radical.a == 0:
        # cbrt(sqrt(b)) + cbrt(-sqrt(b)) cancels identically, whatever b is.
        return DenestResult(value, Fraction(0), cubic)
    if not cubic.exact:
        return DenestResult(value, None, cubic)
    root, exhausted = _rational_root_near(Fraction(cubic.p), Fraction(cubic.q), value)
    note = "search exhausted" if (exhausted and root is None) else None
    return DenestResult(value, root, cubic, note)
