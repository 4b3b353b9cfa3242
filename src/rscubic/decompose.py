"""Recover the pair (r, s) with p = -3rs, q = rs(r+s), and classify the case.

r and s are the two roots of the quadratic

    t^2 + (3q/p) t - p/3 = 0,

whose discriminant is (1/(3p^2)) * (4p^3 + 27q^2) -- the same sign as the
classic cubic discriminant 4p^3 + 27q^2. That sign drives everything:
positive means r, s are distinct reals (the cubic then has a single real
root), negative means a conjugate pair (three real roots), zero means
r = s.

Note the quadratic above: r + s = -3q/p and r*s = -p/3, which is what the
worked examples satisfy (p = -12, q = 16 gives t^2 - 4t + 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from .reduction import Coefficient, DepressedCubic

# Relative half-width of the band around 0 inside which the discriminant is
# treated as zero (float inputs only; exact inputs compare exactly). Near
# zero the distinct-root formulas are ill-conditioned while the equal-case
# formula r = s = -3q/(2p) is exact, so the band errs toward Equal.
EQUAL_BAND = 1e-12


class CaseTag(Enum):
    EQUAL = "equal"
    REAL_DISTINCT = "real_distinct"
    CONJUGATE_PAIR = "conjugate_pair"
    DEGENERATE_P0 = "degenerate_p0"
    DEGENERATE_Q0 = "degenerate_q0"


@dataclass(frozen=True)
class RsPair:
    """The decomposition pair. r and s are None for the degenerate tags.

    Canonical orientation: r >= s when both are real, Im(r) > 0 for a
    conjugate pair (with s = conj(r) bit-exactly). exact_r/exact_s are set
    when the quadratic could be solved in rational arithmetic.
    """

    r: Optional[complex]
    s: Optional[complex]
    case: CaseTag
    exact_r: Optional[Fraction] = None
    exact_s: Optional[Fraction] = None


def discriminant(d: DepressedCubic) -> Coefficient:
    """The cubic discriminant 4p^3 + 27q^2 (exact when the input is)."""
    return 4 * d.p**3 + 27 * d.q**2


def classify(d: DepressedCubic) -> CaseTag:
    """Case tag from the zero tests on p, q and the sign of 4p^3 + 27q^2."""
    if d.p == 0:
        return CaseTag.DEGENERATE_P0
    if d.q == 0:
        return CaseTag.DEGENERATE_Q0
    delta = discriminant(d)
    if d.exact:
        if delta == 0:
            return CaseTag.EQUAL
    else:
        band = EQUAL_BAND * (abs(4 * float(d.p) ** 3) + abs(27 * float(d.q) ** 2))
        if abs(delta) <= band:
            return CaseTag.EQUAL
    return CaseTag.REAL_DISTINCT if delta > 0 else CaseTag.CONJUGATE_PAIR


def rs_quadratic(d: DepressedCubic) -> tuple[Coefficient, Coefficient]:
    """Coefficients (B, C) of the monic quadratic t^2 + Bt + C with roots r, s."""
    return 3 * d.q / d.p, -d.p / 3


def _fraction_sqrt(value: Fraction) -> Optional[Fraction]:
    """Exact square root of a nonnegative rational, or None."""
    if value < 0:
        return None
    num, den = value.numerator, value.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def compute_rs(d: DepressedCubic) -> RsPair:
    """Solve t^2 + (3q/p)t - p/3 = 0 for the pair (r, s).

    Degenerate inputs (p = 0 or q = 0) return a tag with r, s unset; the
    solver handles those directly without a decomposition. Rational inputs
    whose quadratic discriminant is a perfect rational square get exact
    rational r, s.
    """
    case = classify(d)
    if case in (CaseTag.DEGENERATE_P0, CaseTag.DEGENERATE_Q0):
        return RsPair(None, None, case)

    B, C = rs_quadratic(d)

    if case is CaseTag.EQUAL:
        half = -B / 2
        exact = half if isinstance(half, Fraction) else None
        return RsPair(complex(half), complex(half), case, exact, exact)

    exact_disc = None
    if d.exact:
        exact_disc = B * B - 4 * C
        root = _fraction_sqrt(Fraction(exact_disc))
        if root is not None:
            r = (-B + root) / 2
            s = (-B - root) / 2
            return RsPair(complex(r), complex(s), case, Fraction(r), Fraction(s))

    B = float(B)
    C = float(C)
    if abs(B) > 1e150:
        # B*B would overflow; the 4C/B^2 correction is below double
        # resolution there, so the roots are -B and C/(-B) outright.
        t1 = -B
        t2 = C / t1
        r, s = (t1, t2) if t1 >= t2 else (t2, t1)
        return RsPair(complex(r), complex(s), case)
    # Rounding the exact discriminant once avoids the cancellation of
    # B*B - 4C in doubles when B^2 ~ 4|C|, which could even flip its sign.
    disc = float(exact_disc) if exact_disc is not None else B * B - 4.0 * C
    if case is CaseTag.REAL_DISTINCT:
        # Stable form: the large-magnitude root first, the other from the
        # product so that r*s reproduces C to a rounding error.
        w = math.sqrt(abs(disc))
        t1 = -(B + math.copysign(w, B)) / 2.0 if B != 0 else w / 2.0
        t2 = C / t1
        r, s = (t1, t2) if t1 >= t2 else (t2, t1)
        return RsPair(complex(r), complex(s), case)

    im = math.sqrt(-disc) / 2.0
    r = complex(-B / 2.0, im)
    return RsPair(r, r.conjugate(), case)
