"""Numeric helpers: principal-branch cube roots, the unit cube roots, and the range rule.

Everything downstream leans on two conventions fixed here:

* the principal argument lives in (-pi, pi] (the negative real axis maps
  to +pi, never -pi);
* the principal cube root of z is |z|^(1/3) * e^(i*Arg(z)/3), so its
  argument lives in (-pi/3, pi/3].

A separate sign-preserving *real* cube root, ``_root(x, 3)``, serves the
real r,s solution formulas, which want (-8)^(1/3) = -2, not the principal
complex root.

The range rule. The roots of x^3 + px + q scale by 2^k under (p, q) ->
(p 4^k, q 8^k), so a stage solves on (p 4^-k, q 8^-k), k = max(ceil(e_p/2),
ceil(e_q/3)) from the binary exponents of the nonzero p and q (k = 0 in
band, |k| <= _BAND), and multiplies what it finds back by 2^k through
_scaled, which also rounds an exact value reported as a double. Only it
leaves the scale, and a value with no double is an InvalidInputError that
names it, never a bare OverflowError.
"""

from __future__ import annotations

import cmath
import math

from .reduction import InvalidInputError

# Primitive cube root of unity, omega = (-1 + sqrt(3) i) / 2.
OMEGA = complex(-0.5, math.sqrt(3.0) / 2.0)
OMEGA2 = OMEGA.conjugate()


def principal_cube_root(z: complex) -> complex:
    """Cube root |z|^(1/3) * e^(i*Arg(z)/3); argument in (-pi/3, pi/3]."""
    z = complex(z)
    if z == 0:
        return 0j
    a = math.atan2(z.imag, z.real)  # -pi only for a negative-zero imaginary part: folded to +pi
    return cmath.rect(abs(z) ** (1.0 / 3.0), (math.pi if a <= -math.pi else a) / 3.0)


def _exponent(x) -> int:
    """frexp's exponent e, 2^(e-1) <= |x| < 2^e (x != 0), for a float and for an exact x alike."""
    return math.frexp(x)[1] if isinstance(x, float) else _ratio_exponent(x.numerator, x.denominator)


def _ratio_exponent(n: int, d: int) -> int:
    """_exponent of n / d for integers n != 0 and d > 0 (finite, and meaningless, at n = 0)."""
    e = n.bit_length() - d.bit_length()  # bit_length ignores the sign
    return e + (abs(n) >= d << e if e >= 0 else abs(n) << -e >= d)


def _ratio(n: int, m: int, e: int) -> float:
    """n * 2^e / m for integers n and m != 0, rounded once."""
    return (n << e) / m if e >= 0 else n / (m << -e)


def _float_of(x, e: int = 0) -> float:
    """x * 2^e rounded once: ldexp for a float; for an exact x one integer true
    division, which rounds correctly, so at e = 0 it is bit-equal to float(x)
    without numbers.Rational.__float__'s dispatch, and at e != 0 it needs no
    Fraction product."""
    if type(x) is float:
        return math.ldexp(x, e) if e else x
    if not e:
        return x.numerator / x.denominator
    return _ratio(x.numerator, x.denominator, e)


def _float_pair(p, q) -> tuple[float, float]:
    """p and q each rounded once, as _float_of rounds it at e = 0: a float kept, an exact one
    by its int / int division, which raises OverflowError for one beyond the double range."""
    return (p if type(p) is float else p._numerator / p._denominator), (q if type(q) is float else q._numerator / q._denominator)


# Scale exponents |k| <= _BAND are not applied: no double of the formulas overflows there.
_BAND = 100
# The floats m whose binary exponent (frexp's) is in band: _BAND_LOW <= m < _BAND_HIGH.
_BAND_LOW, _BAND_HIGH = 2.0 ** -(_BAND + 1), 2.0**_BAND


def _band(k: int) -> int:
    """The scale exponent applied: 0 inside |k| <= _BAND."""
    return k if k > _BAND or k < -_BAND else 0


# Per n, the nonzero floats whose scale k = ceil(e / n) is in band (frexp exponent e in
# [-n _BAND - n + 1, n _BAND]), which _root takes without _exponent or _float_of: low <= |x| < high.
_ROOT_BANDS = {n: (2.0 ** -(n * _BAND + n), 2.0 ** (n * _BAND)) for n in (2, 3)}


def _root(x, n: int) -> float:
    """sqrt(x) (n = 2) or the sign-preserving real cube root (n = 3, _root(-8, 3) == -2)
    of a float or exact x, as root(x 2^-nk) 2^k; _scaled refuses one with no double as a root."""
    low, high = _ROOT_BANDS[n]
    k = 0
    if type(x) is not float or not (low <= abs(x) < high or not x):
        k = _band(-(-_exponent(x) // n))
        x = _float_of(x, -n * k)
    y = math.sqrt(x) if n == 2 else math.copysign(abs(x) ** (1.0 / 3.0), x)
    return _scaled(y, k) if k else y


# The names _scaled refuses a root's parts, and the pair's r and s, by.
_RE, _IM, _R, _S = "a root's real part = {}", "a root's imaginary part = {}", "the pair's r = {}", "the pair's s = {}"


def _scaled(x, k: int, name: str = "a root = {}") -> float:
    """x 2^k rounded once, for a float x found on the scale 2^-k or an exact x (k = 0): one with
    no double, or a float x that overflowed on the scale, is an InvalidInputError that names it,
    as name with its value, written as a double times 2^k, in place of its "{}"."""
    try:
        y = math.ldexp(x, k) if type(x) is float else x._numerator / x._denominator  # a Fraction's slots
        if math.isfinite(y):
            return y
    except OverflowError:  # x 2^k rounds to 2^1024 or beyond
        if type(x) is not float:
            j = _exponent(x)
            x, k = _float_of(x, -j), k + j
    raise InvalidInputError(name.format(f"{x!r} * 2^{k}") + " has no double")


def cube_roots_all(z: complex) -> tuple[complex, complex, complex]:
    """All three cube roots of z: principal * {1, omega, omega^2}."""
    w = principal_cube_root(z)
    return (w, w * OMEGA, w * OMEGA2)

