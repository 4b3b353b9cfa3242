"""The closed-form baselines beside the r,s step: Cardano's formula and the Moebius map.

cardano_solve: x = cbrt(A) + cbrt(B) and its omega-twisted companions, with
A = -q/2 + sqrt((q/2)^2 + (p/3)^3) and B the conjugate choice. The one sharp
edge is branch pairing: cbrt(A) and cbrt(B) must be chosen so that their
product is -p/3, otherwise cbrt(A) + cbrt(B) silently stops being a root
once the discriminant goes negative. We therefore take one cube root and
derive the other as (-p/3) / cbrt(A).

solve_moebius: x = (r - su)/(1 - u) over the three cube roots u of r/s.

The roots are kept independent of the r,s step so the two can
cross-check each other: they stay raw closed-form values, only ordered and
folded to the real/conjugate shape of the case. Cardano's case tag is
compute_rs's, so it reports the same one as the step.
"""

from __future__ import annotations

import cmath
import math

from .chen import RootTriple
from .decompose import _CONJUGATE_PAIR, _DEGENERATE_P0, _DEGENERATE_Q0, _EQUAL, _REAL_DISTINCT, CaseTag, compute_rs, integer_discriminant
from .numerics import _BAND_HIGH, _BAND_LOW, _IM, _RE, OMEGA, OMEGA2, _band, _exponent, _float_of, _ratio, _root, _scaled, cube_roots_all, principal_cube_root
from .reduction import DepressedCubic, InvalidInputError, _tuple_new

# solve_moebius's roots are off by about eps/|1 - u|: below this gap from a
# cube root u of r/s to 1 that error can pass 1e-6, so the map refuses.
_MOEBIUS_GAP = 2.0**-32


def cardano_solve(d: DepressedCubic) -> RootTriple:
    """Solve x^3 + px + q by Cardano's formula (all p, q accepted)."""
    return _cardano(d, compute_rs(d).case)


def _cardano(d: DepressedCubic, case: CaseTag) -> RootTriple:
    """cardano_solve for a cubic whose case compute_rs has already decided.

    The formula runs on numerics' range scale; p and q whose doubles have
    2^-101 <= |p| + |q| < 2^100 are in band without their exponents.
    """
    p, q = d
    try:
        fp, fq = _float_of(p), _float_of(q)
        k = 0 if _BAND_LOW <= abs(fp) + abs(fq) < _BAND_HIGH else None
    except OverflowError:  # an exact p or q beyond the double range
        k = None
    if k is None:
        k = _band(max([-(-_exponent(x) // n) for x, n in ((p, 2), (q, 3)) if x], default=0))
        fp, fq = _float_of(p, -2 * k), _float_of(q, -3 * k)
    if type(p) is float:
        disc = (fq / 2.0) ** 2 + (fp / 3.0) ** 3
    else:
        # (q/2)^2 + (p/3)^3 = (4p^3 + 27q^2) / 108, rounded once: formed
        # in doubles it cancels when the two terms nearly balance.
        n, m = integer_discriminant(p._numerator, p._denominator, q._numerator, q._denominator)
        disc = _ratio(n, 108 * m, -6 * k)
    p, q = fp, fq
    if disc >= 0:
        w = math.sqrt(disc)
        # Compute whichever of A, B adds like signs (no cancellation) and
        # derive the other from the exact product A*B = -(p/3)^3.
        if q <= 0:
            a_val = -q / 2.0 + w
            b_val = -((p / 3.0) ** 3) / a_val if a_val != 0.0 else -q / 2.0 - w
        else:
            b_val = -q / 2.0 - w
            a_val = -((p / 3.0) ** 3) / b_val if b_val != 0.0 else -q / 2.0 + w
        cbrt_a = _root(a_val, 3)
        cbrt_b = (-p / 3.0) / cbrt_a if cbrt_a != 0.0 else _root(b_val, 3)
    else:
        # A = -q/2 + i sqrt(-disc) is off the real axis, so cbrt(A) != 0.
        cbrt_a = principal_cube_root(complex(-q / 2.0, math.sqrt(-disc)))
        cbrt_b = (-p / 3.0) / cbrt_a
    raw = (
        cbrt_a + cbrt_b,
        OMEGA * cbrt_a + OMEGA2 * cbrt_b,
        OMEGA2 * cbrt_a + OMEGA * cbrt_b,
    )
    triple = _finalize(raw, case, p, q)  # on the scale: off it, the mean of the pair's imaginary parts can overflow
    if k:
        triple = triple._replace(roots=tuple(complex(_scaled(z.real, k, _RE), _scaled(z.imag, k, _IM)) for z in triple.roots))
    return triple


def solve_moebius(r: complex, s: complex) -> RootTriple:
    """Roots x = (r - su)/(1 - u) over the three cube roots u of r/s.

    Needs s != 0, an r/s that rounds to a finite double (nonzero unless r = 0),
    and every cube root u at least 2^-32 from 1, where the map blows up: that
    refuses r = s, and an r/s so close to 1 that the roots would be wrong.
    The case is read off the pair's shape: real_distinct for real r and s,
    else conjugate_pair.
    """
    r = complex(r)
    s = complex(s)
    if s == 0:
        raise InvalidInputError("Moebius form needs s != 0")
    ratio = r / s
    if not cmath.isfinite(ratio) or r and not ratio:
        raise InvalidInputError(f"Moebius form needs r/s as a finite double, nonzero unless r = 0: it rounds to {ratio!r}")
    us = cube_roots_all(ratio)
    if min(abs(1.0 - u) for u in us) < _MOEBIUS_GAP:
        raise InvalidInputError("Moebius form degenerates when a cube root of r/s is within 2^-32 of 1")
    raw = tuple((r - s * u) / (1.0 - u) for u in us)
    return _finalize(raw, _REAL_DISTINCT if r.imag == s.imag == 0 else _CONJUGATE_PAIR)


def _finalize(raw, case: CaseTag, p: float = 0.0, q: float = 0.0) -> RootTriple:
    """Order raw roots canonically and restore the real/conjugate shape of the case.

    Real coefficients force the roots to be all real or one real plus a
    conjugate pair; residual imaginary noise from complex cube roots is
    folded back into that structure. Multiplicity follows from the case:
    the double root r of (x-r)^2 (x+2r) sorts first when q = 2r^3 < 0,
    and p = q = 0 is a triple root; only those tags read p and q.
    """
    three_real = case in (_EQUAL, _CONJUGATE_PAIR) or (case is _DEGENERATE_Q0 and p < 0) or (case is _DEGENERATE_P0 and q == 0)
    if three_real:
        x0, x1, x2 = sorted([raw[0].real, raw[1].real, raw[2].real])
        roots = (complex(x0, 0.0), complex(x1, 0.0), complex(x2, 0.0))
        if case is _EQUAL:
            mult = ((0, 2),) if q < 0 else ((1, 2),)
        else:
            mult = ((0, 3),) if case is _DEGENERATE_P0 else ()
        return _tuple_new(RootTriple, (roots, case, mult, None, None, None, None))
    # The real root is the first of least |imag| (min's choice); the pair keeps raw order.
    z0, z1, z2 = raw
    i0, i1, i2 = abs(z0.imag), abs(z1.imag), abs(z2.imag)
    if i2 < (i1 if i1 < i0 else i0):
        z0, z1, z2, i1, i2 = z2, z0, z1, i0, i1
    elif i1 < i0:
        z0, z1, i1 = z1, z0, i0
    re = 0.5 * (z1.real + z2.real)
    im = 0.5 * (i1 + i2)
    roots = (complex(z0.real, 0.0), complex(re, -im), complex(re, im))
    return _tuple_new(RootTriple, (roots, case, (), None, None, None, None))


def match_root_sets(a, b) -> float:
    """Minimum over pairings of the maximum pairwise distance between two root triples."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    d00, d01, d02 = abs(a0 - b0), abs(a0 - b1), abs(a0 - b2)
    d10, d11, d12 = abs(a1 - b0), abs(a1 - b1), abs(a1 - b2)
    d20, d21, d22 = abs(a2 - b0), abs(a2 - b1), abs(a2 - b2)
    # The six pairings in itertools.permutations order, so ties, inf and NaN
    # pick as min and max over the permutations do.
    return min(
        max(d00, d11, d22),
        max(d00, d12, d21),
        max(d01, d10, d22),
        max(d01, d12, d20),
        max(d02, d10, d21),
        max(d02, d11, d20),
    )

