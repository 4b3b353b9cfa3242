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
of 4p^3 + 27q^2: equal only when it is exactly 0. An exact p = P/dp and
q = Q/dq are read once, and the zero tests, the exponents, the sign
(integer_discriminant), the square test and every float come from those four
integers in _compute_rs_exact, which only compute_rs calls: every stage
hands it a DepressedCubic. Only an exact r is built as a Fraction, by
_fraction. Float inputs take the sign in doubles, on the 2^k-scaled p and
q; a float cubic in band for certain settles k = 0 with one magnitude test,
as an exact one does with bit lengths, and only the others go through
_triage. Both paths are tested against the plain formulas 4p^3 + 27q^2 and
(B, C) = (3q/p, -p/3), which live with the tests.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Optional

from .numerics import _BAND, _R, _S, _band, _exponent, _float_of, _ratio, _ratio_exponent, _scaled
from .reduction import DepressedCubic, _fraction, _record, _tuple_new

# |p|^3 < 1e-60 q^2, as 2 e_q - 3 e_p in binary exponents: px moves no double root.
_NEGLIGIBLE_P_BITS = 199


class CaseTag(Enum):
    EQUAL = "equal"
    REAL_DISTINCT = "real_distinct"
    CONJUGATE_PAIR = "conjugate_pair"
    DEGENERATE_P0 = "degenerate_p0"
    DEGENERATE_Q0 = "degenerate_q0"


# The tags bound once, in definition order: an Enum member read off its class takes about 40 ns in 3.11, a global 6.
_EQUAL, _REAL_DISTINCT, _CONJUGATE_PAIR, _DEGENERATE_P0, _DEGENERATE_Q0 = CaseTag


class RsPair(_record("RsPair", "r s case exact_r", (None,))):
    """The decomposition pair: complex r and s (None for the degenerate tags) and the CaseTag.

    Canonical orientation: r >= s when both are real, Im(r) > 0 for a
    conjugate pair (with s = conj(r) bit-exactly). The Fraction exact_r is
    set when the quadratic could be solved in rational arithmetic; the exact
    s is then exact_r in the equal case and -p/(3 exact_r) otherwise.
    """

    __slots__ = ()


def integer_discriminant(P: int, dp: int, Q: int, dq: int) -> tuple[int, int]:
    """4p^3 + 27q^2 of an exact cubic as a quotient n / m of integers, m > 0.

    With p = P/dp and q = Q/dq in lowest terms, n = 4 P^3 dq^2 + 27 Q^2 dp^3
    and m = dp^3 dq^2: no Fraction arithmetic, so no gcd per operation.
    """
    dp3, dq2 = dp * dp * dp, dq * dq
    return 4 * P * P * P * dq2 + 27 * Q * Q * dp3, dp3 * dq2


def compute_rs(d: DepressedCubic) -> RsPair:
    """Solve t^2 + (3q/p)t - p/3 = 0 for the pair (r, s).

    p = 0, q = 0 and a negligible p return a tag with r, s unset. The quadratic
    is solved on numerics' range scale, which refuses an r or s with no double
    by name. Exact r, s come back when the quadratic discriminant is a square.

    A float cubic with a float q != 0, 2^-199 <= |p| < 2^199, |q| < 2^300 and
    q*q < 2^196 |p|**3 is in band for certain, and its p is not negligible, so
    it settles k = 0 without _triage or either exponent. The bounds give
    frexp exponents -198 <= e_p <= 199 and e_q <= 300, so ceil(e_p/2) is in
    [-99, 100] and ceil(e_q/3) at most 100: k = 0. A negligible p, 2 e_q - 3 e_p
    >= 200, has q^2 >= 2^(2 e_q - 2) >= 2^(3 e_p + 198) > 2^198 |p|^3, and
    |p|^3 >= 2^-597 keeps q*q normal there, so one rounding of q*q and one of
    |p|**3, each within 2^-52 of its value, cannot bring q*q under
    2^196 |p|**3: the last clause means 2 e_q - 3 e_p <= 198, two bits inside
    _NEGLIGIBLE_P_BITS. Nothing overflows: q*q < 2^600 and 2^196 |p|**3 < 2^793.
    Any other float p, q goes through _triage.
    """
    p, q = d
    if type(p) is not float:  # a Fraction: its slots, not the numerator and denominator properties
        return _compute_rs_exact(p._numerator, p._denominator, q._numerator, q._denominator)
    # In band for certain, and p not negligible (the proof is above).
    if type(q) is float and q and 2.0**-199 <= abs(p) < 2.0**199 and abs(q) < 2.0**300 and q * q < 2.0**196 * abs(p) ** 3:
        k = 0
    else:
        # denest's cubic can hold a float p beside an exact q beyond the double range
        tag, k = _triage(p, q, math.frexp(p)[1], math.frexp(q)[1] if type(q) is float else _exponent(q))
        if tag is not None:
            return _tuple_new(RsPair, (None, None, tag, None))
        if k:
            p, q = math.ldexp(p, -2 * k), _float_of(q, -3 * k)
    delta = 4 * p**3 + 27 * q**2
    B, C = 3 * q / p, -p / 3
    if delta == 0:
        half = complex(_scaled(-B / 2, k, _R) if k else -B / 2)  # in band, B = 3q/p is finite
        return _tuple_new(RsPair, (half, half, _EQUAL, None))
    case = _REAL_DISTINCT if delta > 0 else _CONJUGATE_PAIR
    return _rs_float(case, B, C, math.sqrt(abs(B * B - 4.0 * C)), k)


def _triage(p, q, ep: int, eq: int) -> tuple[Optional[CaseTag], int]:
    """compute_rs's first decision, on p and q (or their numerators) and their
    binary exponents: the degenerate tag of p = 0, q = 0 or a negligible p with
    k = 0, or None and the scale exponent k."""
    if p == 0 or q != 0 and 2 * eq - 3 * ep > _NEGLIGIBLE_P_BITS:
        return _DEGENERATE_P0, 0
    if q == 0:
        return _DEGENERATE_Q0, 0
    k, kq = (ep + 1) // 2, (eq + 2) // 3  # ceil(e_p / 2), ceil(e_q / 3)
    return None, _band(kq if kq > k else k)


def _compute_rs_exact(P: int, dp: int, Q: int, dq: int) -> RsPair:
    """compute_rs on integers: with p = P/dp and q = Q/dq in lowest terms,

        B = 3q/p = 3 Q dp / (dq P),   C = -p/3 = -P / (3 dp),
        B^2 - 4C = n / (3 P^2 dp dq^2)   (n from integer_discriminant),

    so the case is the sign of n, and the quadratic discriminant is a
    rational square exactly when 3 n dp is an integer square (P^2 dq^2 is
    one): its root times |P| dq is the square root of n * 3 P^2 dp dq^2.
    Bit lengths bracket frexp's exponents, e_p = lp or lp + 1 with
    lp = P.bit_length() - dp.bit_length() (and e_q alike), so they settle
    k = 0 and a p that is not negligible without computing either exponent;
    only p = 0, q = 0, and a cubic out of band, with a negligible p, or
    within a few bits of either, go through _triage. Each float is one
    correctly rounded int / int division: a plain n / d in band, bit-equal
    to the float of the Fraction it stands for, and at scale 2^-k
    (numerics._ratio) out of band.
    """
    lp, lq = P.bit_length() - dp.bit_length(), Q.bit_length() - dq.bit_length()
    # In band for certain: ceil(e_p/2) and ceil(e_q/3) at most _BAND, one of them
    # at least -_BAND, and 2 e_q - 3 e_p <= 2 lq - 3 lp + 2 within _NEGLIGIBLE_P_BITS.
    if (
        P
        and Q
        and lp < 2 * _BAND
        and lq < 3 * _BAND
        and (lp > -2 * _BAND - 2 or lq > -3 * _BAND - 3)
        and 2 * lq - 3 * lp <= _NEGLIGIBLE_P_BITS - 2
    ):
        k = 0
    else:
        tag, k = _triage(P, Q, _ratio_exponent(P, dp), _ratio_exponent(Q, dq))
        if tag is not None:
            return _tuple_new(RsPair, (None, None, tag, None))
    n = integer_discriminant(P, dp, Q, dq)[0]
    b_num, b_den = 3 * Q * dp, dq * P
    if n == 0:
        half = _fraction(-b_num, 2 * b_den)
        z = complex(_scaled(half, 0, _R))
        return _tuple_new(RsPair, (z, z, _EQUAL, half))

    case = _REAL_DISTINCT if n > 0 else _CONJUGATE_PAIR
    disc_den = 3 * P * P * dp * dq * dq
    if n > 0:
        square = 3 * n * dp
        root = math.isqrt(square)
        if root * root == square:
            # sqrt(B^2 - 4C) = root |P| dq / disc_den; r, s = (-B +- sqrt) / 2.
            root *= abs(P) * dq
            den = 2 * b_den * disc_den
            r = _fraction(root * b_den - b_num * disc_den, den)
            s = _fraction(-root * b_den - b_num * disc_den, den)
            return _tuple_new(RsPair, (complex(_scaled(r, 0, _R)), complex(_scaled(s, 0, _S)), case, r))

    # The exact discriminant is rounded once: B*B - 4C in doubles cancels
    # when B^2 ~ 4|C| and can even flip sign.
    if k:
        w = math.sqrt(_ratio(abs(n), disc_den, -2 * k))
        return _rs_float(case, _ratio(b_num, b_den, -k), _ratio(-P, 3 * dp, -2 * k), w, k)
    return _rs_float(case, b_num / b_den, -P / (3 * dp), math.sqrt(abs(n) / disc_den), 0)


def _rs_float(case: CaseTag, B: float, C: float, w: float, k: int) -> RsPair:
    """Float r, s of t^2 + Bt + C, given w = sqrt(|B^2 - 4C|), times 2^k."""
    if case is _REAL_DISTINCT:
        # Stable form: the large-magnitude root first, the other from the
        # product so that r*s reproduces C to a rounding error.
        t1 = -(B + math.copysign(w, B)) / 2.0 if B != 0 else w / 2.0
        t2 = C / t1
        r, s = (t1, t2) if t1 >= t2 else (t2, t1)
        if k:
            r, s = _scaled(r, k, _R), _scaled(s, k, _S)
        return _tuple_new(RsPair, (complex(r), complex(s), case, None))
    r = complex(_scaled(-B / 2.0, k, "the pair's Re r = {}"), _scaled(w / 2.0, k, "the pair's Im r = {}")) if k else complex(-B / 2.0, w / 2.0)
    return _tuple_new(RsPair, (r, r.conjugate(), case, None))
