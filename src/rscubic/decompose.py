"""Recover the pair (r, s) with p = -3rs, q = rs(r+s), and the case they give.

r and s are the two roots of the quadratic

    t^2 + (3q/p) t - p/3 = 0,

whose discriminant is (1/(3p^2)) * (4p^3 + 27q^2) -- the same sign as the
classic cubic discriminant 4p^3 + 27q^2. That sign drives everything:
positive means r, s are distinct reals (the cubic then has a single real
root), negative means a conjugate pair (three real roots), zero means
r = s.

Note the quadratic above: r + s = -3q/p and r*s = -p/3, which is what the
worked examples satisfy (p = -12, q = 16 gives t^2 - 4t + 4).

compute_rs is the one place that decides the case, from the plain sign
of 4p^3 + 27q^2: equal only when it is exactly 0. Exact inputs are worked
on as integers: with p = P/dp and q = Q/dq the sign, the perfect-square
test and every float come from integer expressions
(integer_discriminant), not from Fraction arithmetic. Float inputs take
the sign in doubles, on the 2^k-scaled p and q. The formulas
discriminant and rs_quadratic are the reference both paths are tested
against.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction

from .numerics import _band, _exponent
from .reduction import Coefficient, DepressedCubic, _record

# |p|^3 < 1e-60 q^2, as 2 e_q - 3 e_p in binary exponents: px moves no double root.
_NEGLIGIBLE_P_BITS = 199


class CaseTag(Enum):
    EQUAL = "equal"
    REAL_DISTINCT = "real_distinct"
    CONJUGATE_PAIR = "conjugate_pair"
    DEGENERATE_P0 = "degenerate_p0"
    DEGENERATE_Q0 = "degenerate_q0"


class RsPair(_record("RsPair", "r s case exact_r exact_s", (None, None))):
    """The decomposition pair: complex r and s (None for the degenerate tags) and the CaseTag.

    Canonical orientation: r >= s when both are real, Im(r) > 0 for a
    conjugate pair (with s = conj(r) bit-exactly). The Fractions
    exact_r/exact_s are set when the quadratic could be solved in rational
    arithmetic.
    """

    __slots__ = ()


def discriminant(d: DepressedCubic) -> Coefficient:
    """The cubic discriminant 4p^3 + 27q^2 (exact when the input is)."""
    return 4 * d.p**3 + 27 * d.q**2


def integer_discriminant(d: DepressedCubic) -> tuple[int, int]:
    """4p^3 + 27q^2 of an exact cubic as a quotient n / m of integers, m > 0.

    With p = P/dp and q = Q/dq in lowest terms, n = 4 P^3 dq^2 + 27 Q^2 dp^3
    and m = dp^3 dq^2: no Fraction arithmetic, so no gcd per operation.
    """
    P, dp, Q, dq = d.p.numerator, d.p.denominator, d.q.numerator, d.q.denominator
    dp3, dq2 = dp * dp * dp, dq * dq
    return 4 * P * P * P * dq2 + 27 * Q * Q * dp3, dp3 * dq2


def rs_quadratic(d: DepressedCubic) -> tuple[Coefficient, Coefficient]:
    """Coefficients (B, C) of the monic quadratic t^2 + Bt + C with roots r, s."""
    return 3 * d.q / d.p, -d.p / 3


def _ratio(n: int, m: int, e: int) -> float:
    """n * 2^e / m for integers n and m != 0, rounded once."""
    return (n << e) / m if e >= 0 else n / (m << -e)


def compute_rs(d: DepressedCubic) -> RsPair:
    """Solve t^2 + (3q/p)t - p/3 = 0 for the pair (r, s).

    p = 0, q = 0 and a negligible p return a tag with r, s unset. Range: r, s
    scale by 2^k under (p, q) -> (p 4^k, q 8^k), so the quadratic is solved on
    (p 4^-k, q 8^-k), k = max(ceil(e_p/2), ceil(e_q/3)) from binary exponents,
    and the float r, s are multiplied by 2^k, exactly; in band (|k| <= 100)
    k = 0. Exact r, s come back when the quadratic discriminant is a square.
    """
    p, q = d.p, d.q
    if p == 0:
        return RsPair(None, None, CaseTag.DEGENERATE_P0)
    if q == 0:
        return RsPair(None, None, CaseTag.DEGENERATE_Q0)
    ep, eq = _exponent(p), _exponent(q)
    if 2 * eq - 3 * ep > _NEGLIGIBLE_P_BITS:
        return RsPair(None, None, CaseTag.DEGENERATE_P0)
    k, kq = (ep + 1) // 2, (eq + 2) // 3  # ceil(e_p / 2), ceil(e_q / 3)
    k = _band(kq if kq > k else k)
    if d.exact:
        return _compute_rs_exact(d, k)
    if k:
        p, q = math.ldexp(p, -2 * k), math.ldexp(q, -3 * k)
    delta = 4 * p**3 + 27 * q**2
    B, C = 3 * q / p, -p / 3
    if delta == 0:
        half = complex(math.ldexp(-B / 2, k))
        return RsPair(half, half, CaseTag.EQUAL)
    case = CaseTag.REAL_DISTINCT if delta > 0 else CaseTag.CONJUGATE_PAIR
    return _rs_float(case, B, C, math.sqrt(abs(B * B - 4.0 * C)), k)


def _compute_rs_exact(d: DepressedCubic, k: int) -> RsPair:
    """compute_rs on integers: with p = P/dp and q = Q/dq,

        B = 3q/p = 3 Q dp / (dq P),   C = -p/3 = -P / (3 dp),
        B^2 - 4C = n / (3 P^2 dp dq^2)   (n from integer_discriminant),

    so the case is the sign of n, the quadratic discriminant is a rational
    square exactly when n * 3 P^2 dp dq^2 is an integer square, and each
    float is one correctly rounded int / int division at scale 2^-k,
    bit-equal to the float of the Fraction it stands for when k = 0.
    """
    P, dp, Q, dq = d.p.numerator, d.p.denominator, d.q.numerator, d.q.denominator
    n = integer_discriminant(d)[0]
    b_num, b_den = 3 * Q * dp, dq * P
    if n == 0:
        half = Fraction(-b_num, 2 * b_den)
        return RsPair(complex(half), complex(half), CaseTag.EQUAL, half, half)

    case = CaseTag.REAL_DISTINCT if n > 0 else CaseTag.CONJUGATE_PAIR
    disc_den = 3 * P * P * dp * dq * dq
    if n > 0:
        square = n * disc_den
        root = math.isqrt(square)
        if root * root == square:
            # sqrt(B^2 - 4C) = root / disc_den; r, s = (-B +- sqrt) / 2.
            den = 2 * b_den * disc_den
            r = Fraction(root * b_den - b_num * disc_den, den)
            s = Fraction(-root * b_den - b_num * disc_den, den)
            return RsPair(complex(r), complex(s), case, r, s)

    # The exact discriminant is rounded once: B*B - 4C in doubles cancels
    # when B^2 ~ 4|C| and can even flip sign.
    w = math.sqrt(_ratio(abs(n), disc_den, -2 * k))
    return _rs_float(case, _ratio(b_num, b_den, -k), _ratio(-P, 3 * dp, -2 * k), w, k)


def _rs_float(case: CaseTag, B: float, C: float, w: float, k: int) -> RsPair:
    """Float r, s of t^2 + Bt + C, given w = sqrt(|B^2 - 4C|), times 2^k."""
    if case is CaseTag.REAL_DISTINCT:
        # Stable form: the large-magnitude root first, the other from the
        # product so that r*s reproduces C to a rounding error.
        t1 = -(B + math.copysign(w, B)) / 2.0 if B != 0 else w / 2.0
        t2 = C / t1
        r, s = (t1, t2) if t1 >= t2 else (t2, t1)
        return RsPair(complex(math.ldexp(r, k)), complex(math.ldexp(s, k)), case)
    r = complex(math.ldexp(-B / 2.0, k), math.ldexp(w / 2.0, k))
    return RsPair(r, r.conjugate(), case)
