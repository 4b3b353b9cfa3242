"""Cubic input forms and the quadratic-term elimination x -> x - a/3.

A cubic is monic, x^3 + ax^2 + bx + c (parsing.parse_cubic divides a written
x^3 coefficient out), and exact (integers of any kind and other rationals,
promoted to Fraction so ``a / 3`` stays exact) or float: a float anywhere
rounds every exact value once at construction, in _coerced (InvalidInputError
for an exact value beyond the double range). Exact inputs stay rational through
the substitution (depress builds p, q and the shift from integers, one _fraction
each); depress stores its p and q, exact or finite floats, without a second coercion.

The cubics, and every other record the package returns, are built on
_record: immutable namedtuples that compare and hash by value.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from fractions import Fraction
from typing import Union

Coefficient = Union[Fraction, float]


class InvalidInputError(ValueError):
    """Raised for non-finite or otherwise unusable coefficients."""


_tuple_new = tuple.__new__
_object_new = object.__new__


def _fraction(n: int, d: int) -> Fraction:
    """Fraction(n, d) of ints (lowest terms, d > 0, ZeroDivisionError at d = 0) with one gcd and
    none of Fraction.__new__'s dispatch: it sets the two slots Fraction.__new__ sets (3.10-3.13)."""
    if not d:
        raise ZeroDivisionError(f"Fraction({n}, 0)")
    g = math.gcd(n, d) if d > 0 else -math.gcd(n, d)
    f = _object_new(Fraction)
    f._numerator, f._denominator = n // g, d // g
    return f


def _refuse(self, other):
    # Raised, not NotImplemented: tuple would then serve (0,) + record and tuple < record.
    raise TypeError(f"{type(self).__name__} is a value record: no +, * or ordering")


def _record_eq(self, other):
    if type(other) is type(self):
        return tuple.__eq__(self, other)
    # Not NotImplemented for a tuple: tuple.__eq__ would then compare the values.
    return False if isinstance(other, tuple) else NotImplemented


def _record(name, fields, defaults=()):
    """Base class of an immutable value record: a namedtuple that equals only a
    record of its own type and refuses tuple +, * and ordering. _make and
    _replace build through the class, so a coercing __new__ runs again."""
    base = namedtuple(name, fields, defaults=defaults)
    base.__eq__, base.__ne__, base.__hash__ = _record_eq, object.__ne__, tuple.__hash__  # != negates __eq__
    base.__add__ = base.__radd__ = base.__mul__ = base.__rmul__ = _refuse
    base.__lt__ = base.__le__ = base.__gt__ = base.__ge__ = _refuse
    base._make = classmethod(lambda cls, values: cls(*values))
    # Pickle and copy store the values as they are and never re-coerce: denest's
    # cubic can hold a float p beside an exact q that no double holds.
    base.__reduce__ = lambda self: (_tuple_new, (type(self), tuple(self)))
    return base


def _coerce(value) -> Coefficient:
    # Exact int and float are tested by type first: isinstance(x, Fraction)
    # goes through ABCMeta.__instancecheck__ for any x that is not exactly a
    # Fraction. Every other input takes the isinstance rules: a Rational (bool,
    # int subclasses, numpy integers) is exact, the rest (numpy floats,
    # Decimal, numeric strings) goes through float().
    kind = type(value)
    if kind is int:  # the two slots Fraction(value) sets, without its dispatch
        f = _object_new(Fraction)
        f._numerator, f._denominator = value, 1
        return f
    if kind is not float:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, numbers.Rational):
            # int() first: a numpy integer's numerator stays a numpy int, which wraps at 2^63.
            return _fraction(int(value.numerator), int(value.denominator))
        value = float(value)
    if not math.isfinite(value):
        raise InvalidInputError(f"non-finite coefficient: {value!r}")
    return value


def _beyond_double() -> InvalidInputError:
    return InvalidInputError("an exact value beyond the double range cannot be rounded into a float form")


def _coerced(cls, *values):
    """Record cls of values coerced in order (_coerce), a float rounding all; plain finite floats are stored as they are."""
    for v in values:
        if type(v) is not float or v - v:  # v - v is nan for an inf or a nan
            break
    else:
        return _tuple_new(cls, values)
    values = tuple(map(_coerce, values))
    for v in values:
        if type(v) is float:
            try:
                return _tuple_new(cls, tuple(map(float, values)))
            except OverflowError:
                raise _beyond_double() from None
    return _tuple_new(cls, values)


class GeneralCubic(_record("GeneralCubic", "a b c")):
    """Monic cubic x^3 + a*x^2 + b*x + c, exact or float; a float a, b or c rounds all three."""

    __slots__ = ()

    def __new__(cls, a, b, c):
        return _coerced(cls, a, b, c)

    @property
    def exact(self) -> bool:
        return not isinstance(self.a, float)

    def __call__(self, x):
        """Evaluate at x (Horner); exact for rational x, complex-capable."""
        if isinstance(x, complex):
            return ((x + float(self.a)) * x + float(self.b)) * x + float(self.c)
        return ((x + self.a) * x + self.b) * x + self.c

    def __str__(self) -> str:
        return f"x^3 + ({self.a})x^2 + ({self.b})x + ({self.c})"


class DepressedCubic(_record("DepressedCubic", "p q")):
    """x^3 + p*x + q; a float p or q rounds both."""

    __slots__ = ()

    def __new__(cls, p, q):
        return _coerced(cls, p, q)

    @property
    def exact(self) -> bool:
        return not isinstance(self.p, float)

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
    q = 2a^3/27 - ab/3 + c; exact when the input is (see _depress_exact).
    """
    a, b, c = cubic
    if type(a) is float:
        p = b - a * a / 3
        try:
            q = 2 * a**3 / 27 - a * b / 3 + c
        except OverflowError:  # float ** raises where * would give inf: q is summed exactly and rounded once
            q = _depress_exact(*a.as_integer_ratio(), *b.as_integer_ratio(), *c.as_integer_ratio())[0].q
            try:
                q = float(q)
            except OverflowError:
                raise InvalidInputError("the depressed q = 2a^3/27 - ab/3 + c has no double: a^3 overflows") from None
        # p - p == q - q only for a finite p and q (inf - inf is nan); the constructor refuses the rest by name.
        return (_tuple_new(DepressedCubic, (p, q)) if p - p == q - q else DepressedCubic(p, q)), a / 3
    return _depress_exact(a.numerator, a.denominator, b.numerator, b.denominator, c.numerator, c.denominator)


def _depress_exact(an: int, ad: int, bn: int, bd: int, cn: int, cd: int) -> tuple[DepressedCubic, Fraction]:
    """depress on integers, for a = an/ad, b = bn/bd and c = cn/cd with positive denominators.

    p and q are summed as integers over the common denominators 3 ad^2 bd
    and 27 ad^3 bd cd, one _fraction each, which reduces them to lowest terms:
    a cubic of common-denominator roots keeps its integers small. Returns
    what depress returns, the DepressedCubic of p and q and delta = a/3.
    """
    ad2 = ad * ad
    P, dp = 3 * bn * ad2 - an * an * bd, 3 * ad2 * bd
    Q, dq = (2 * an * an * bd - 9 * bn * ad2) * an * cd + 27 * cn * ad2 * ad * bd, 27 * ad2 * ad * bd * cd
    d = _tuple_new(DepressedCubic, (_fraction(P, dp), _fraction(Q, dq)))  # Fractions already: no re-coercion
    return d, _fraction(an, 3 * ad)
