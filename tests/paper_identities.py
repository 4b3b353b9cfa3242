"""Test-side checks of the paper's algebraic identities.

The decomposition identity, for r != s:

    x^3 - 3rsx + rs(r+s) = s/(s-r) (x-r)^3 + r/(r-s) (x-s)^3,

and the ratio condition ((x-r)/(x-s))^3 = r/s it gives at every root.

The uniform product form: for any cube roots u of r and v of s, the
roots of that cubic are -uv(omega^j u + omega^-j v), j = 0, 1, 2.
Replacing u by omega^a u and v by omega^b v permutes the three j-values,
so all nine choices give the same set.

The trig identities are the ones the three-real-root cosine form forces
through Vieta's relations, with c_k = cos(theta/3 + 2k pi/3):

    sum c_k = 0
    sum_{j<k} c_j c_k = -3/4
    prod c_k = +cos(theta)/4
    sum c_k^3 = +(3/4) cos(theta)

The signs on the last two follow from prod(-2|r| c_k) = -q = -2|r|^3 cos
theta and from A^3+B^3+C^3 = 3ABC when A+B+C = 0; theta = 0 (c = 1, -1/2,
-1/2, product 1/4) pins them numerically.

The reference formulas of the r,s stage: the cubic discriminant
4p^3 + 27q^2 and the quadratic t^2 + (3q/p)t - p/3 whose roots are r and s,
which decompose.compute_rs is tested against on both of its paths.
"""

import math

from rscubic.numerics import OMEGA, OMEGA2
from rscubic.reduction import Coefficient, DepressedCubic


def discriminant(d: DepressedCubic) -> Coefficient:
    """The cubic discriminant 4p^3 + 27q^2 (exact when the input is)."""
    return 4 * d.p**3 + 27 * d.q**2


def rs_quadratic(d: DepressedCubic) -> tuple[Coefficient, Coefficient]:
    """Coefficients (B, C) of the monic quadratic t^2 + Bt + C with roots r, s."""
    return 3 * d.q / d.p, -d.p / 3


def decomposition_identity_residual(r: complex, s: complex, x: complex) -> float:
    """|x^3 - 3rsx + rs(r+s)  -  [s/(s-r) (x-r)^3 + r/(r-s) (x-s)^3]| for r != s."""
    r, s, x = complex(r), complex(s), complex(x)
    lhs = x**3 - 3 * r * s * x + r * s * (r + s)
    rhs = s / (s - r) * (x - r) ** 3 + r / (r - s) * (x - s) ** 3
    return abs(lhs - rhs)


def ratio_cube_residual(r: complex, s: complex, x: complex) -> float:
    """|((x-r)/(x-s))^3 - r/s|: every root turns the split form into this ratio condition."""
    r, s, x = complex(r), complex(s), complex(x)
    return abs(((x - r) / (x - s)) ** 3 - r / s)


def unified_roots(u: complex, v: complex) -> tuple[complex, complex, complex]:
    """The raw product-form roots -uv(omega^j u + omega^-j v), j = 0, 1, 2."""
    m = u * v
    return (
        -m * (u + v),
        -m * (OMEGA * u + OMEGA2 * v),
        -m * (OMEGA2 * u + OMEGA * v),
    )


def trig_identity_residuals(theta: float) -> tuple[float, float, float, float]:
    """Absolute deviations of the four cosine identities above at this theta."""
    c0, c1, c2 = (math.cos(theta / 3.0 + k * 2.0 * math.pi / 3.0) for k in range(3))
    return (
        abs(c0 + c1 + c2),
        abs(c0 * c1 + c0 * c2 + c1 * c2 + 0.75),
        abs(c0 * c1 * c2 - math.cos(theta) / 4.0),
        abs(c0**3 + c1**3 + c2**3 - 0.75 * math.cos(theta)),
    )
