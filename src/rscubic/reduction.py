"""Cubic input forms and the quadratic-term elimination x -> x - a/3.

Coefficients may be floats or exact rationals (``fractions.Fraction``).
Rational inputs are kept rational through the substitution, which is what
lets whole-number examples come out exact downstream. Ints are promoted to
Fraction at construction so ``a / 3`` never silently turns exact input
into a float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Coefficient = Union[Fraction, float]


class InvalidInputError(ValueError):
    """Raised for non-finite or otherwise unusable coefficients."""


def _coerce(value) -> Coefficient:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    value = float(value)
    if not math.isfinite(value):
        raise InvalidInputError(f"non-finite coefficient: {value!r}")
    return value


def is_exact(value) -> bool:
    # A float is ruled out first: isinstance of a float against the Fraction ABC is slow.
    return not isinstance(value, float) and isinstance(value, (Fraction, int))


@dataclass(frozen=True)
class GeneralCubic:
    """Monic cubic x^3 + a*x^2 + b*x + c.

    A non-unit leading coefficient may be passed via ``lead``; the stored
    form is always monic (coefficients divided through).
    """

    a: Coefficient
    b: Coefficient
    c: Coefficient

    def __init__(self, a, b, c, lead=1):
        lead = _coerce(lead)
        if lead == 0:
            raise InvalidInputError("leading coefficient must be nonzero")
        a, b, c = _coerce(a), _coerce(b), _coerce(c)
        # Dividing by an exact 1 changes nothing; a float 1.0 still turns
        # exact coefficients into floats. An exact lead ln/ld divides an exact
        # coefficient as one Fraction(n ld, d ln), not a Fraction division.
        if isinstance(lead, float):
            a, b, c = a / lead, b / lead, c / lead
        elif lead != 1:
            ln, ld = lead.numerator, lead.denominator
            a, b, c = (
                Fraction(v.numerator * ld, v.denominator * ln) if isinstance(v, Fraction) else v / lead
                for v in (a, b, c)
            )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def exact(self) -> bool:
        return is_exact(self.a) and is_exact(self.b) and is_exact(self.c)

    def __call__(self, x):
        """Evaluate at x (Horner); exact for rational x, complex-capable."""
        if isinstance(x, complex):
            return ((x + float(self.a)) * x + float(self.b)) * x + float(self.c)
        return ((x + self.a) * x + self.b) * x + self.c

    def __str__(self) -> str:
        return f"x^3 + ({self.a})x^2 + ({self.b})x + ({self.c})"


@dataclass(frozen=True)
class DepressedCubic:
    """x^3 + p*x + q."""

    p: Coefficient
    q: Coefficient

    def __init__(self, p, q):
        object.__setattr__(self, "p", _coerce(p))
        object.__setattr__(self, "q", _coerce(q))

    @property
    def exact(self) -> bool:
        return is_exact(self.p) and is_exact(self.q)

    def __call__(self, x):
        """Evaluate at x (Horner); exact for rational x, complex-capable."""
        if isinstance(x, complex):
            return (x * x + float(self.p)) * x + float(self.q)
        return (x * x + self.p) * x + self.q

    def __str__(self) -> str:
        return f"x^3 + ({self.p})x + ({self.q})"


def depress(cubic: GeneralCubic) -> tuple[DepressedCubic, Coefficient]:
    """Substitute x -> x - a/3, giving x^3 + px + q and the shift delta = a/3.

    original_root = depressed_root - delta. p = -a^2/3 + b and
    q = 2a^3/27 - ab/3 + c; exact when the input is.
    Exact p and q are summed as integers over the common denominators
    3*da^2*db and 27*da^3*db*dc, one Fraction each.
    """
    a, b, c = cubic.a, cubic.b, cubic.c
    if not cubic.exact:
        p = b - a * a / 3
        q = 2 * a**3 / 27 - a * b / 3 + c
        return DepressedCubic(p, q), a / 3
    an, ad = a.numerator, a.denominator
    bn, bd = b.numerator, b.denominator
    cn, cd = c.numerator, c.denominator
    ad2 = ad * ad
    p = Fraction(3 * bn * ad2 - an * an * bd, 3 * ad2 * bd)
    q = Fraction((2 * an * an * bd - 9 * bn * ad2) * an * cd + 27 * cn * ad2 * ad * bd, 27 * ad2 * ad * bd * cd)
    return DepressedCubic(p, q), Fraction(an, 3 * ad)

