"""Complex helpers: principal-branch cube roots, the unit cube roots, arguments.

Everything downstream leans on two conventions fixed here:

* the principal argument lives in (-pi, pi] (the negative real axis maps
  to +pi, never -pi);
* the principal cube root of z is |z|^(1/3) * e^(i*Arg(z)/3), so its
  argument lives in (-pi/3, pi/3].

A separate sign-preserving *real* cube root is provided because the real
r,s solution formulas want (-8)^(1/3) = -2, not the principal complex root.
"""

from __future__ import annotations

import cmath
import math

# Primitive cube root of unity, omega = (-1 + sqrt(3) i) / 2.
OMEGA = complex(-0.5, math.sqrt(3.0) / 2.0)
OMEGA2 = OMEGA.conjugate()


def principal_arg(z: complex) -> float:
    """Argument of z in (-pi, pi]; 0.0 for z = 0.

    atan2 can return -pi for inputs that carry a negative-zero imaginary
    part; that boundary value is folded back to +pi.
    """
    a = math.atan2(z.imag, z.real)
    if a <= -math.pi:
        return math.pi
    return a


def principal_cube_root(z: complex) -> complex:
    """Cube root |z|^(1/3) * e^(i*Arg(z)/3); argument in (-pi/3, pi/3]."""
    z = complex(z)
    if z == 0:
        return 0j
    return cmath.rect(abs(z) ** (1.0 / 3.0), principal_arg(z) / 3.0)


def real_cube_root(x: float) -> float:
    """Sign-preserving real cube root: real_cube_root(-8) == -2."""
    x = float(x)
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def cube_roots_all(z: complex) -> tuple[complex, complex, complex]:
    """All three cube roots of z: principal * {1, omega, omega^2}."""
    w = principal_cube_root(z)
    return (w, w * OMEGA, w * OMEGA2)

