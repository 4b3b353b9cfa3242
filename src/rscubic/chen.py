"""Roots of x^3 + px + q through the r,s factorization.

With p = -3rs and q = rs(r+s) the cubic splits (for r != s) as

    x^3 - 3rsx + rs(r+s) = s/(s-r) * (x-r)^3 + r/(r-s) * (x-s)^3,

so a root satisfies ((x-r)/(x-s))^3 = r/s and every case reduces to cube
roots of the ratio r/s:

* r = s:           (x-r)^2 (x+2r), roots r, r, -2r;
* r, s real:       one real root -r^(1/3) s^(1/3) (r^(1/3) + s^(1/3)) plus
                   an omega-twisted conjugate pair (real cube roots);
* s = conj(r):     three real roots -2|r| cos(theta/3 + 2k pi/3) with
                   theta = Arg(r), read off r -- no complex intermediates;
* any cube roots:  the uniform product form -uv(omega^j u + omega^-j v)
                   gives the same set for every choice of cube roots u of
                   r and v of s (checked in the tests), and so does the
                   Moebius map x = (r - su)/(1 - u) over the cube roots u
                   of r/s (the baseline cardano.solve_moebius).

p = 0 or q = 0 fall outside the decomposition, and their roots are read
off the cubic: the cube roots of -q, or 0 and +-sqrt(-p).

solve and solve_depressed read only one real root off these forms, lift it
(x = y - a/3), refine it and deflate (Kahan, "To Solve a Real Cubic Equation",
1986; Flocke, ACM TOMS Alg. 954, 2015), for every case tag alike: lifting all
three roots in doubles would lose any root far below the shift a/3. The step,
_solve_cubic, is the sequence of its stages, each a function whose docstring
holds its conditions:

* _anchor: the case solver, one real root's closed form off (r, s), or off
  the depressed cubic for a degenerate tag (_degenerate_anchor);
* _exact_channel: an exact cubic's roots known exactly, built from integers,
  one gcd each (a square -p is told by isqrt first); a cubic whose three
  roots are rational takes them from here alone, with no float work;
* _onto_scale: numerics' range scale 2^k, and a, b, c and a/3 on it, each
  rounded once from the integers of a, b and c (an exact cubic's, or a float
  cubic's doubles' out of band); a float cubic in band is on its scale
  already, with k = 0;
* _lift: the root x, as y - a/3 or from the product of the roots;
* _polish: one Newton step on the original cubic;
* _deflate: the other two roots, from the quadratic left by deflation, and
  all three multiplied back by 2^k.

A rational root of the exact channel then replaces its float root, as its
value rounded once (_rounded).
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Optional, Sequence

from .decompose import _CONJUGATE_PAIR, _EQUAL, _REAL_DISTINCT, RsPair, compute_rs
from .numerics import _BAND, _BAND_HIGH, _BAND_LOW, _IM, _RE, _band, _ratio, _ratio_exponent, _root, _scaled
from .reduction import DepressedCubic, GeneralCubic, _depress_exact, _fraction, _record, _tuple_new, depress

_TWO_PI_3 = 2.0 * math.pi / 3.0
_SQRT3 = math.sqrt(3.0)
# Largest relative Newton step an exact cubic's closed-form root takes: 256 ulps.
_NEWTON_CAP = 2.0**-45
_EPS = 2.0**-52
# solve_depressed's a and delta for an exact cubic: an exact root built against delta stays a Fraction.
_ZERO = Fraction(0)
# A float equal tag's deflated discriminant within this share of S^2 + 4|P| is rounding noise.
_DOUBLE_NOISE = 2.0**-48
# _exact_channel's (channel, mult) for a cubic with no root known exactly.
_NO_CHANNEL = (None, None)

_SQUARE_FREE_TRIAL_CAP = 2**17


@functools.cache
def _trial_primes() -> Sequence[int]:
    """The primes up to _SQUARE_FREE_TRIAL_CAP in 4-byte slots (48 KB), sieved once, on first use."""
    import array  # here, not at import time: most processes never split a radicand
    sieve = bytearray([0, 0]) + bytearray([1]) * (_SQUARE_FREE_TRIAL_CAP - 1)
    for d in range(2, math.isqrt(_SQUARE_FREE_TRIAL_CAP) + 1):
        if sieve[d]:
            sieve[d * d :: d] = bytes(len(range(d * d, len(sieve), d)))
    return array.array("I", itertools.compress(range(len(sieve)), sieve))


def _square_free_split(n: int) -> tuple[int, int]:
    """Write n = k^2 * m: a square n is (isqrt(n), 1) at once; any other n is split by trial division by the primes up to
    2^17, so m is square-free below 2^51 = (2^17)^3 and keeps a square only where a prime above the cap divides the rest twice."""
    k = math.isqrt(n)
    if k * k == n:
        return k, 1
    k, m = 1, 1
    for d in _trial_primes():
        if d * d * d > n:
            break
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            k *= d ** (e // 2)
            if e % 2:
                m *= d
    # Every prime left in n is above the last d: once d^3 > n, n is square-free unless a square.
    root = math.isqrt(n)
    return (k * root, m) if root * root == n else (k, m * n)


def _icbrt_floor(n: int) -> int:
    """Floor of the integer cube root (n >= 0); exact for arbitrary size."""
    if n == 0:
        return 0
    x = 1 << ((n.bit_length() + 2) // 3)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            return x
        x = y


def fraction_cbrt(value: Fraction) -> Optional[Fraction]:
    """Exact rational cube root of value, or None if it is not a perfect cube."""
    num, den = value._numerator, value._denominator
    rn, rd = _icbrt_floor(abs(num)), _icbrt_floor(den)
    if rn**3 != abs(num) or rd**3 != den:
        return None
    return _fraction(-rn if num < 0 else rn, rd)


def _rational(n: int, d: int) -> "ExactValue":
    """The rational ExactValue n / d of ints, d > 0: one _fraction, and no folding."""
    return _tuple_new(ExactValue, (_fraction(n, d), _ZERO, 1))


class ExactValue(_record("ExactValue", "rational surd_coef radicand")):
    """An exactly-known real root value: rational + surd_coef * sqrt(radicand),
    two Fractions and an int."""

    __slots__ = ()

    def __new__(cls, rational, surd_coef=Fraction(0), radicand=1):
        if radicand != 1 or surd_coef:  # not a plain rational: check the surd, fold a rational one
            if radicand < 0:
                raise ValueError("radicand must be nonnegative")
            if (root := math.isqrt(radicand)) ** 2 == radicand or surd_coef == 0:
                rational += surd_coef * root
                surd_coef, radicand = Fraction(0), 1
        return _tuple_new(cls, (rational, surd_coef, radicand))

    @classmethod
    def sqrt_of(cls, value: Fraction) -> "ExactValue":
        """Exact sqrt of a nonnegative rational, as k*sqrt(m)."""
        n, d = value.numerator, value.denominator
        if n < 0:
            raise ValueError("sqrt_of needs a nonnegative rational")
        k, m = _square_free_split(n * d)
        return _tuple_new(cls, (_fraction(k, d), _ZERO, 1) if m == 1 else (_ZERO, _fraction(k, d), m))

    def __float__(self) -> float:
        if not self.surd_coef:
            return float(self.rational)
        return float(self.rational) + float(self.surd_coef) * math.sqrt(self.radicand)

    def __str__(self) -> str:
        if not self.surd_coef:
            return str(self.rational)
        coef = self.surd_coef
        surd = f"sqrt({self.radicand})" if abs(coef) == 1 else f"{abs(coef)}*sqrt({self.radicand})"
        if self.rational == 0:
            return surd if coef > 0 else f"-{surd}"
        joiner = " + " if coef > 0 else " - "
        return f"{self.rational}{joiner}{surd}"


class RootTriple(_record("RootTriple", "roots case multiplicity exact pair depressed shift", ((),) + (None,) * 4)):
    """Three complex roots in canonical order: reals first ascending, then
    the non-real pair by ascending imaginary part; case is the CaseTag.

    multiplicity lists (index, count) for repeated roots only. exact holds
    per-root ExactValues (or None) when the input arithmetic allowed it.
    pair is the RsPair the case dispatch ran on, taken from the DepressedCubic
    depressed, and shift the delta of x = y - delta: (depressed, shift) is
    depress(cubic) for solve and (d, 0 of d's kind) for solve_depressed(d).
    Other solvers leave all three None. A conjugate pair's cosine form is read
    off pair.r: root k is near -2|r| cos(Arg(r)/3 + (0, 4pi/3, 2pi/3)[k]) - delta.
    """

    __slots__ = ()


def _solve_cubic(a, b, c, d: DepressedCubic, delta, pair: RsPair, ints=None) -> RootTriple:
    """The one solve step of x^3 + ax^2 + bx + c, given its depressed cubic d,
    delta = a/3 and compute_rs's pair for d; for an exact cubic, ints holds a,
    b and c as integer pairs (an, ad, bn, bd, cn, cd), denominators positive,
    and a, b, c are not read.

    The stages run in order: _anchor, _exact_channel (exact input), then
    _onto_scale, _lift, _polish and _deflate, after which each rational root
    of the exact channel replaces its float root (_rounded). The scale is
    decided once: for a float cubic with _BAND_LOW <= size + |delta| <
    _BAND_HIGH, k = 0 with a, b, c and delta as they are; else _onto_scale,
    fed exact input's integers, or the integers of a float cubic's doubles
    (and of the exact c of denest's mixed cubic) with size + |delta| as its
    size, so that its k is the exponent of size + |delta|. A float cubic
    keeps its own quadratic's discriminant: no quotient_disc, in band or out
    of it. A cubic whose three roots are rational takes them off the exact
    channel alone, and a float p = q = 0 is the triple root -delta. The anchor
    runs first: where a root has no double, the anchor's own rounding is what
    refuses the cubic, for three rational roots too.
    """
    r, _, case, _ = pair
    exact = ints is not None
    anchor = _anchor(d, pair, exact)
    channel, mult = _exact_channel(d, delta, pair) if exact else _NO_CHANNEL
    if mult is not None:
        roots = _rounded(channel, (None,) * 3)
    elif anchor is None:  # a float p = q = 0: the triple root -delta
        roots, mult = (complex(0.0 - delta, 0.0),) * 3, ((0, 3),)
    else:
        shape, size, h, values = anchor
        if exact:
            k, a, b, c, delta_k, quotient_disc = _onto_scale(size, ints)
        elif _BAND_LOW <= size + abs(delta) < _BAND_HIGH:  # a float cubic on its scale already, k = 0
            k, delta_k, quotient_disc = 0, delta, None
        else:  # a float cubic out of band: its doubles' integers (and denest's exact c), and its own discriminant
            (k, a, b, c, delta_k, _), quotient_disc = _onto_scale(size + abs(delta), a.as_integer_ratio() + b.as_integer_ratio() + c.as_integer_ratio()), None
        x, form = _lift(shape, values, k - h, c, delta_k)
        x = _polish(x, a, b, c, exact, r is None)
        roots, mult = _deflate(x, a, b, c, delta_k, k, quotient_disc, shape, form, exact)
        if channel is not None:
            roots = _rounded(channel, roots)
    return _tuple_new(RootTriple, (roots, case, mult, channel, pair, d, delta))


def _anchor(d: DepressedCubic, pair: RsPair, exact: bool):
    """The case solver: (shape, size, h, values), the closed form of one real root
    in the depressed variable, found at 2^-h, or None for p = q = 0. size bounds
    the roots within a small factor; h > 0 only where the form would pass 2^1024.

    * shape real_distinct, values (y, im): one real root y and a pair about -y/2
      with imaginary part im; for real_distinct, y = -uv(u+v) from the real cube
      roots u, v of r and s, im = sqrt(3)|uv(u-v)|/2 (an exact cubic's r and s
      out of band are rooted on their scale, and y, im are found at 2^-3 from
      |u| + |v| > 2^35, as they can reach 2^1026);
    * shape conjugate_pair, values (amplitude, cos0, cos1, cos2): three real roots
      amplitude * cos, ascending; for conjugate_pair, amplitude = -2|r| (at 2^-2
      once 2|r| passes 2^1024) and cos(theta/3), cos(theta/3 + 4pi/3),
      cos(theta/3 + 2pi/3), theta = Arg r;
    * shape equal (a float equal tag), values (r,): the double root r and the simple root -2r.

    The degenerate tags read theirs off d (_degenerate_anchor).
    """
    r, s, case, _ = pair
    if r is None:
        return _degenerate_anchor(d, exact)
    if case is _REAL_DISTINCT:
        u, v, h = r.real, s.real, 0
        size = abs(u) + abs(v)
        if exact and not (_BAND_LOW <= abs(u) < _BAND_HIGH and _BAND_LOW <= abs(v) < _BAND_HIGH):
            u, v = _root(u, 3), _root(v, 3)
            if abs(u) + abs(v) > 2.0**35:  # k > 100 here
                u, v, h = 0.5 * u, 0.5 * v, 3
        else:  # _root's bits in band; a float's unscaled cbrt costs under 2e-14, which Newton removes
            u, v = math.copysign(abs(u) ** (1.0 / 3.0), u), math.copysign(abs(v) ** (1.0 / 3.0), v)
        m = u * v
        return _REAL_DISTINCT, size, h, (-m * (u + v), abs(m * (u - v)) * _SQRT3 / 2.0)
    if case is _CONJUGATE_PAIR:
        # |s| = |r|, so size = 2|r|: from Im r = 2^100 on, 4|r/2|, as abs(r) raises past 2^1024.
        size = 2.0 * abs(r) if r.imag < 2.0**100 else 4.0 * abs(0.5 * r)
        # theta = Arg r in (0, pi] (Im r > 0).
        t, amplitude, h = math.atan2(r.imag, r.real) / 3.0, -size, 0
        if size == math.inf:  # 2|r| passes 2^1024 (k >= 1025 then): the amplitude from r's halved parts
            amplitude, h = -abs(0.5 * r), 2
        return _CONJUGATE_PAIR, size, h, (amplitude, math.cos(t), math.cos(t + 2.0 * _TWO_PI_3), math.cos(t + _TWO_PI_3))
    return _EQUAL, 2.0 * abs(r.real), 0, (r.real,)


def _degenerate_anchor(d: DepressedCubic, exact: bool):
    """_anchor off d for r = s = None: p = 0 or negligible, the real root y = cbrt(-q)
    and the pair y omega, y omega^2 (real_distinct's values, im = sqrt(3)|y|/2); q = 0 < p,
    y = 0 and the pair +-i sqrt(p); q = 0 > p, the amplitude sqrt(-p) and cosines -1, 0, 1
    (conjugate_pair's); None for p = q = 0. An exact p and q are rooted as rationals."""
    p, q = d
    if exact:  # |p|, -q and p's sign from the integers of p = pn / pd and q
        pn, pd = p._numerator, p._denominator
        p, q = _fraction(abs(pn), pd), _fraction(-q._numerator, q._denominator)
    else:
        pn, p, q = p, abs(p), -q
    if q:  # y^3 = -q
        y = _root(q, 3)
        size = abs(y)
        return _REAL_DISTINCT, size, 0, (y, size * (_SQRT3 / 2.0))  # the bits of size * sqrt(3) / 2, which can overflow near 2^1024
    if not p:
        return None
    size = _root(p, 2)
    return (_REAL_DISTINCT, size, 0, (0.0, size)) if pn > 0 else (_CONJUGATE_PAIR, size, 0, (size, -1.0, 0.0, 1.0))


def _exact_channel(d: DepressedCubic, delta: Fraction, pair: RsPair):
    """(channel, mult): the roots of an exact cubic known exactly, in output order,
    each an ExactValue or None, and the multiplicity when all three are rational,
    read off the exact values, since two distinct ones can round to one double.
    A rational equal pair (x - r)^2 (x + 2r) gives r - delta twice and -2r - delta;
    p = q = 0 the triple root -delta; q = 0 > p -sqrt(-p) - delta, -delta,
    sqrt(-p) - delta, rational where -p is a square; q = 0 < p -delta; p = 0 and
    a rational cube root cbrt(-q) - delta. Any other cubic has none: (None, None)."""
    r, _, case, exact_r = pair
    if r is not None and case is not _EQUAL:
        return _NO_CHANNEL
    dn, dd = delta._numerator, delta._denominator
    if r is not None:  # compute_rs sets an exact cubic's exact_r under equal
        # Stated with r itself, not sqrt(rs) = |r|, the double root is first for r < 0.
        rn, rd = exact_r._numerator, exact_r._denominator
        double, simple = _rational(rn * dd - dn * rd, rd * dd), _rational(-2 * rn * dd - dn * rd, rd * dd)
        return ((double, double, simple), ((0, 2),)) if rn < 0 else ((simple, double, double), ((1, 2),))
    p, q = d
    pn, pd = p._numerator, p._denominator
    if q._numerator:  # cbrt(-q) = -cbrt(q)
        root = None if pn else fraction_cbrt(q)
        if root is None:
            return _NO_CHANNEL
        return (_rational(-root._numerator * dd - dn * root._denominator, root._denominator * dd), None, None), None
    if pn > 0:
        return (_rational(-dn, dd), None, None), None
    if not pn:
        return (_rational(-dn, dd),) * 3, ((0, 3),)
    w, m = _square_free_split(-pn * pd)  # sqrt(-p) = w sqrt(m) / pd
    if m == 1:
        return (_rational(-dn * pd - w * dd, dd * pd), _rational(-dn, dd), _rational(w * dd - dn * pd, dd * pd)), ()
    center = _fraction(-dn, dd)  # the genexpr reads no local: one would become a closure cell, paid on every call
    return tuple(_tuple_new(ExactValue, e) for e in ((center, _fraction(-w, pd), m), (center, _ZERO, 1), (center, _fraction(w, pd), m))), None


def _rounded(channel, roots):
    """roots with each rational root of the exact channel (radicand 1) in its place, as its value rounded once."""
    return tuple(z if e is None or e.radicand != 1 else complex(_scaled(e.rational, 0)) for z, e in zip(roots, channel))


def _onto_scale(size: float, ints):
    """(k, a 2^-k, b 4^-k, c 8^-k, delta 2^-k, quotient_disc) of a cubic whose a, b, c
    are given as the integers of ints (an exact cubic's, or a float cubic's doubles'):
    numerics' range scale, with k from size and delta = an / (3 ad), every root being
    within a small factor of size + |delta|, and each value taken exactly before it is
    rounded once (a double is a dyadic rational: its value at 2^-k rounds as ldexp's
    does, and a zero comes out +0.0). It reads k = 0 off size's double and the bit
    lengths of a's integers, and rounds a, b, c and delta by plain int / int divisions
    then; for c = 0 its quotient x^2 + ax + b is exact, and so is the discriminant
    a^2 - 4b, quotient_disc (else None)."""
    an, ad, bn, bd, cn, cd = ints
    quotient_disc = None
    # k = 0 for certain when size's exponent is in band and delta's, at most
    # bit_length(an) - bit_length(ad), is at most _BAND; otherwise k comes from both exponents.
    if _BAND_LOW <= size < _BAND_HIGH and an.bit_length() - ad.bit_length() <= _BAND:
        if not cn:
            quotient_disc = (an * an * bd - 4 * bn * ad * ad) / (ad * ad * bd)
        return 0, an / ad, bn / bd, cn / cd, an / (3 * ad), quotient_disc
    e = math.frexp(size)[1] if size < math.inf else 1025  # |r| + |s| < 2^1025 can round to inf
    k = _band(max(e, _ratio_exponent(an, 3 * ad)) if an else e)
    if not cn:
        quotient_disc = _ratio(an * an * bd - 4 * bn * ad * ad, ad * ad * bd, -2 * k)
    return k, _ratio(an, ad, -k), _ratio(bn, bd, -2 * k), _ratio(cn, cd, -3 * k), _ratio(an, 3 * ad, -k), quotient_disc


def _lift(shape, values, e: int, c: float, delta: float):
    """(x, form): the anchor's root lifted, x = y - delta, once its values are taken
    onto the scale (times 2^-e); where that difference would cancel, x comes from
    the product of the roots, -c, instead. form is the closed form deflation may keep.

    * real_distinct: x = y - delta, or x = -c/|z|^2 when the lifted pair
      z = -y/2 - delta +- i im has the larger modulus; form (y, im);
    * conjugate_pair: of lo and hi, the one farther from the middle root, where
      f' is largest (at a double root it vanishes), with no sort; when the lift
      would cancel, 1/|x| > 1/|middle| + 1/|other|, x = -c / (other * middle);
      form (amplitude, middle, other);
    * equal: the simple root -2r - delta, or -c/(r - delta)^2 when it is under
      half the double root, since a Newton step at the double root, where f'
      vanishes, would divide by rounding noise; no form.
    """
    if shape is _REAL_DISTINCT:
        y, im = values
        if e:
            y, im = math.ldexp(y, -e), math.ldexp(im, -e)
        x = y - delta
        re = -0.5 * y - delta
        modulus2 = re * re + im * im
        return (-c / modulus2 if x * x < modulus2 else x), (y, im)
    if shape is _CONJUGATE_PAIR:
        amplitude, cos0, cos1, cos2 = values
        amp = math.ldexp(amplitude, -e) if e else amplitude
        lo, mid, hi = amp * cos0 - delta, amp * cos1 - delta, amp * cos2 - delta
        x, other = (hi, lo) if hi - mid >= mid - lo else (lo, hi)
        return (-c / (other * mid) if abs(x) * (abs(mid) + abs(other)) < abs(mid * other) else x), (amp, mid, other)
    y = math.ldexp(values[0], -e) if e else values[0]
    x, double = -2.0 * y - delta, y - delta
    return (-c / (double * double) if 2.0 * abs(x) < abs(double) else x), None


def _polish(x: float, a, b, c, exact: bool, degenerate: bool) -> float:
    """One Newton step on the original cubic; for c = 0 the root is 0 exactly.

    An exact cubic's closed form is within a few ulps, since p, q and the
    discriminant were rounded once; a step above _NEWTON_CAP |x| comes from
    rounding a, b, c, as next to a cluster of roots far from 0, and is refused.
    A degenerate anchor is one rounded cbrt(-q) or sqrt(-p): beside such a
    cluster, as (x + 17)^3 + 2, a step that f(x)'s own rounding explains would
    cost it up to 1e-14, so it is taken only where f(x) is above that rounding.
    """
    if not c:
        return 0.0
    slope = (3.0 * x + 2.0 * a) * x + b
    if slope:
        f = ((x + a) * x + b) * x + c
        step = f / slope
        if (not exact or abs(step) <= _NEWTON_CAP * abs(x)) and (
            not degenerate or abs(f) > _EPS * (((abs(x) + abs(a)) * abs(x) + abs(b)) * abs(x) + abs(c))
        ):
            return x - step
    return x


def _deflate(x: float, a, b, c, delta, k: int, quotient_disc, shape, form, exact: bool):
    """(roots, mult): x and the two roots of x^2 - Sx + P, each multiplied back by 2^k.

    P = -c/x and S = (b - P)/x while x dominates (x^2 >= |P|), else S = -a - x
    (S = -a, P = b for x = 0). The larger real root is (S + sign(S) sqrt(S^2 - 4P))/2
    and the other P over it (its negative for S = 0, so +-sqrt(-P) come out
    symmetric), or, when S^2 < 4P, the pair is S/2 +- i sqrt(4P - S^2)/2: for a
    float cubic the quadratic decides, whatever the tag. A float equal tag keeps
    its double root S/2, and its multiplicity, only where S^2 - 4P is rounding
    noise. An exact cubic's tag is right, and a pair too close to tell apart from
    the rounded S and P is closed: it keeps its form, the lifted middle and other
    root, or im about the center S/2, where that is off by about 2 eps (size +
    |delta|) and deflation would do worse. For c = 0 an exact quotient_disc is
    the discriminant.
    """
    if x:
        P = -c / x
        S = (b - P) / x if x * x >= abs(P) else -a - x
    else:
        S, P = -a, b
    disc = S * S - 4.0 * P if quotient_disc is None else quotient_disc
    # Rounding S and P moves the deflated roots by about eps N / (4 sqrt|disc|), N = S^2 + 4|P|,
    # and by no more than about sqrt(eps N) / 4, once |disc| is down to its own rounding eps N.
    closed = double = False
    if exact:  # (an exact cubic here takes real_distinct's or conjugate_pair's anchor)
        spread, size = (-disc, abs(form[0]) + form[1]) if shape is _REAL_DISTINCT else (disc, abs(form[0]))
        noise = S * S + 4.0 * abs(P)
        closed = c and noise > 8.0 * math.sqrt(max(spread, _EPS * noise)) * (size + abs(delta))
    elif shape is _EQUAL:  # a float equal tag's anchor
        double = abs(disc) <= _DOUBLE_NOISE * (S * S + 4.0 * abs(P))
    if closed and shape is _REAL_DISTINCT or disc < 0 and not (closed or double):
        # The pair's center is S/2 either way: the closed one, -y/2 - delta, cancels
        # when the pair is small beside delta.
        re, im = 0.5 * S, form[1] if closed else 0.5 * math.sqrt(-disc)
        if k:
            x, re, im = _scaled(x, k), _scaled(re, k, _RE), _scaled(im, k, _IM)
        re += 0.0  # no -0.0 in the output
        return (x + 0j, complex(re, -im), complex(re, im)), ()
    if closed:
        x1, x2 = form[1], form[2]
    elif disc > 0 and not double:
        x1 = 0.5 * (S + math.copysign(math.sqrt(disc), S))
        x2 = P / x1 if S else -x1  # S = 0: the roots are +-sqrt(-P), symmetric to the bit
    else:
        x1 = x2 = 0.5 * S
    if x1 > x2:
        x1, x2 = x2, x1
    if x > x1:
        x, x1 = x1, x
        if x1 > x2:
            x1, x2 = x2, x1
    mult = (((0, 2),) if x == x1 else ((1, 2),)) if double else ()
    if k:
        x, x1, x2 = _scaled(x, k), _scaled(x1, k), _scaled(x2, k)
    return (x + 0j, x1 + 0j, x2 + 0j), mult  # + 0j: no -0.0 in the output


def solve_depressed(d: DepressedCubic) -> RootTriple:
    """Roots of x^3 + px + q: solve's step with a = 0 and delta = 0.

    Every intermediate stays real where the case allows it (real cube
    roots for real r, s; the cosine form for a conjugate pair), and the
    exact values are carried.
    """
    p, q = d
    if not d.exact:
        return _solve_cubic(0.0, p, q, d, 0.0, compute_rs(d))
    return _solve_cubic(_ZERO, p, q, d, _ZERO, compute_rs(d), (0, 1, p._numerator, p._denominator, q._numerator, q._denominator))


def solve(cubic: GeneralCubic) -> RootTriple:
    """Full pipeline: depress, decompose into (r, s), take one dominant root, deflate.

    An exact cubic's a, b and c are read as integers once, for the depress
    stage and the step's roundings; compute_rs reads p and q's integers off
    the depressed cubic, as it does for any exact DepressedCubic.
    """
    a, b, c = cubic
    if type(a) is float:
        d, delta = depress(cubic)
        return _solve_cubic(a, b, c, d, delta, compute_rs(d))
    ints = a._numerator, a._denominator, b._numerator, b._denominator, c._numerator, c._denominator
    d, delta = _depress_exact(*ints)
    return _solve_cubic(a, b, c, d, delta, compute_rs(d), ints)
