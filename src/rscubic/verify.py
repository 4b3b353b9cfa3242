"""Independent checks: residuals, Vieta sums, and a bisection/deflation
root finder that shares no code path with the closed-form solvers.
"""

from __future__ import annotations

import math

from .chen import RootTriple
from .decompose import compute_rs
from .numerics import _float_pair
from .reduction import DepressedCubic, _beyond_double, _record, _tuple_new

_TOL = 1e-10


class VerificationReport(_record("VerificationReport", "residuals vieta_errors passed")):
    """What verify_roots measured: three float residuals, three float Vieta
    errors, and whether all passed."""

    __slots__ = ()


def verify_roots(d: DepressedCubic, triple: RootTriple) -> VerificationReport:
    """Residuals |x^3+px+q| and Vieta errors |sum x|, |sum x_i x_j - p|, |prod x + q|.

    passed requires every error <= _TOL * m^(3/2), m = max(1,|p|,|q|); the
    3/2 power keeps the bound covariant under the scaling (p,q) -> (p l^2, q l^3).
    It is tested as e / m <= _TOL * sqrt(m), which never forms m^(3/2).
    An exact p or q with no double raises InvalidInputError.
    """
    p, q = _doubles(d)
    x0, x1, x2 = triple.roots
    r0, r1, r2 = abs((x0 * x0 + p) * x0 + q), abs((x1 * x1 + p) * x1 + q), abs((x2 * x2 + p) * x2 + q)
    v0, v1, v2 = abs(x0 + x1 + x2), abs(x0 * x1 + x0 * x2 + x1 * x2 - p), abs(x0 * x1 * x2 + q)
    m = max(1.0, abs(p), abs(q))
    bound = _TOL * math.sqrt(m)
    passed = (
        r0 / m <= bound and r1 / m <= bound and r2 / m <= bound
        and v0 / m <= bound and v1 / m <= bound and v2 / m <= bound
    )
    return _tuple_new(VerificationReport, ((r0, r1, r2), (v0, v1, v2), passed))


def _doubles(d: DepressedCubic) -> tuple[float, float]:
    """p and q rounded once to doubles; an exact one beyond the double range is refused."""
    try:
        return _float_pair(*d)
    except OverflowError:
        raise _beyond_double() from None


def brute_force_roots(d: DepressedCubic) -> RootTriple:
    """Bisection + Newton for one real root, then quadratic deflation.

    A monic cubic always changes sign over [-R, R] with R = 2 max(|p|^(1/2),
    |q/2|^(1/3)) (Fujiwara's bound, widened past its rounding; Cauchy's
    1 + max(|p|,|q|) can lie far above the roots), and bisection can only
    converge to a sign-changing (odd-multiplicity) root, so deflation never
    divides out the wrong factor at a double root. Pure oracle: no cube
    roots, no (r, s); only its case tag is compute_rs's.
    """
    p, q = _doubles(d)

    def f(x: float) -> float:
        return (x * x + p) * x + q

    # ** (1/3) is up to about 62 ulps off at the ends of the double range; 2^-40 covers that.
    radius = 2.0 * max(math.sqrt(abs(p)), (abs(q) / 2.0) ** (1.0 / 3.0)) * (1.0 + 2.0**-40) or 1.0
    lo, hi = -radius, radius
    flo = f(lo)
    for _ in range(2200):  # from a radius below 2^515 to adjacent doubles, spaced 2^-1074 or more
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = f(mid)
        if fm == 0.0:
            lo = hi = mid
            break
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    x0 = 0.5 * (lo + hi)
    for _ in range(60):
        fx, dfx = f(x0), 3.0 * x0 * x0 + p
        if dfx == 0.0 or fx - fx:  # f overflows beside a root far enough out: no step from inf
            break
        x1 = x0 - fx / dfx
        if x1 == x0:
            break
        if abs(f(x1)) > abs(fx):
            break
        x0 = x1

    # x^3 + px + q = (x - x0)(x^2 + x0 x + c2) up to the residual, c2 = x0^2 + p = -q/x0; the
    # quotient while x0 dominates (x0^2 >= |p|), as the sum cancels beside a large root.
    b2, c2 = x0, -q / x0 if x0 and x0 * x0 >= abs(p) else x0 * x0 + p
    disc = b2 * b2 - 4.0 * c2
    if disc >= 0.0:
        w = math.sqrt(disc)
        t1 = -(b2 + math.copysign(w, b2)) / 2.0 if b2 != 0.0 else w / 2.0
        t2 = c2 / t1 if t1 != 0.0 else 0.0
        values = sorted([x0, t1, t2])
        roots = tuple(complex(v, 0.0) for v in values)
    else:
        re, im = -b2 / 2.0, math.sqrt(-disc) / 2.0
        roots = (complex(x0, 0.0), complex(re, -im), complex(re, im))
    return _tuple_new(RootTriple, (roots, compute_rs(d).case, (), None, None, None, None))
