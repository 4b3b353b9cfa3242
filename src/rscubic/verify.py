"""Independent checks: residuals, Vieta sums, and a bisection/deflation
root finder that shares no code path with the closed-form solvers.
"""

from __future__ import annotations

import math

from .chen import RootTriple
from .decompose import compute_rs
from .reduction import DepressedCubic, _record

_TOL = 1e-10


class VerificationReport(_record("VerificationReport", "residuals vieta_errors passed tol scale")):
    """What verify_roots measured: three float residuals, three float Vieta
    errors, whether all passed, and the float tolerance and scale they met."""

    __slots__ = ()


def verify_roots(d: DepressedCubic, triple: RootTriple) -> VerificationReport:
    """Residuals |x^3+px+q| and Vieta errors |sum x|, |sum x_i x_j - p|, |prod x + q|.

    passed requires every error <= _TOL * max(1,|p|,|q|)^(3/2); the
    3/2 power keeps the bound covariant under the scaling (p,q) -> (p l^2, q l^3).
    """
    p, q = float(d.p), float(d.q)
    x0, x1, x2 = triple.roots
    residuals = tuple(abs((x * x + p) * x + q) for x in triple.roots)
    vieta = (
        abs(x0 + x1 + x2),
        abs(x0 * x1 + x0 * x2 + x1 * x2 - p),
        abs(x0 * x1 * x2 + q),
    )
    scale = max(1.0, abs(p), abs(q)) ** 1.5
    passed = all(e <= _TOL * scale for e in residuals + vieta)
    return VerificationReport(residuals, vieta, passed, _TOL, scale)


def brute_force_roots(d: DepressedCubic) -> RootTriple:
    """Bisection + Newton for one real root, then quadratic deflation.

    A monic cubic always changes sign over [-R, R] with R = 1 + max(|p|,|q|)
    (Cauchy bound), and bisection can only converge to a sign-changing
    (odd-multiplicity) root, so deflation never divides out the wrong
    factor at a double root. Pure oracle: no cube roots, no (r, s); only
    its case tag is compute_rs's.
    """
    p, q = float(d.p), float(d.q)

    def f(x: float) -> float:
        return (x * x + p) * x + q

    radius = 1.0 + max(abs(p), abs(q))
    lo, hi = -radius, radius
    flo = f(lo)
    for _ in range(200):
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
        dfx = 3.0 * x0 * x0 + p
        if dfx == 0.0:
            break
        x1 = x0 - f(x0) / dfx
        if x1 == x0:
            break
        if abs(f(x1)) > abs(f(x0)):
            break
        x0 = x1

    # x^3 + px + q = (x - x0)(x^2 + x0 x + (x0^2 + p)) up to the residual.
    b2, c2 = x0, x0 * x0 + p
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
    return RootTriple(roots, compute_rs(d).case)
