"""Roots of x^3 + px + q through the r,s factorization.

With p = -3rs and q = rs(r+s) the cubic splits (for r != s) as

    x^3 - 3rsx + rs(r+s) = s/(s-r) * (x-r)^3 + r/(r-s) * (x-s)^3,

so a root satisfies ((x-r)/(x-s))^3 = r/s and every case reduces to cube
roots of the ratio r/s:

* r = s:           (x-r)^2 (x+2r), roots r, r, -2r;
* r, s real:       one real root -r^(1/3) s^(1/3) (r^(1/3) + s^(1/3)) plus
                   an omega-twisted conjugate pair (real cube roots);
* s = conj(r):     three real roots -2|r| cos(theta/3 + 2k pi/3) with
                   theta = Arg(r) -- no complex intermediates at all;
* any cube roots:  the uniform product form -uv(omega^j u + omega^-j v)
                   gives the same set for every choice of cube roots u of
                   r and v of s, and so does the Moebius map
                   x = (r - su)/(1 - u) over the cube roots u of r/s.

p = 0 or q = 0 fall outside the decomposition and are solved directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .decompose import CaseTag, RsPair, compute_rs
from .numerics import OMEGA, OMEGA2, _root, cube_roots_all, principal_arg
from .reduction import Coefficient, DepressedCubic, GeneralCubic, depress

_TWO_PI_3 = 2.0 * math.pi / 3.0
_SQRT3 = math.sqrt(3.0)

# Trial divisors tried by _square_free_split before the rest is kept whole.
_SQUARE_FREE_TRIAL_CAP = 10**6


class InvalidCaseError(ValueError):
    """Raised when a solver is applied outside its case (e.g. Moebius with r = s)."""


def _square_free_split(n: int) -> tuple[int, int]:
    """Write n = k^2 * m with m square-free (exact for n <= 10^18, best effort above)."""
    k, m = 1, 1
    d = 2
    while d * d * d <= n and d <= _SQUARE_FREE_TRIAL_CAP:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            k *= d ** (e // 2)
            if e % 2:
                m *= d
        d += 1 if d == 2 else 2
    # Once d^3 > n, n has at most two prime factors, all >= d: square-free unless a square.
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
    num, den = value.numerator, value.denominator
    rn = _icbrt_floor(abs(num))
    rd = _icbrt_floor(den)
    if rn**3 != abs(num) or rd**3 != den:
        return None
    return Fraction(-rn if num < 0 else rn, rd)


@dataclass(frozen=True)
class ExactValue:
    """An exactly-known real root value: rational + surd_coef * sqrt(radicand)."""

    rational: Fraction
    surd_coef: Fraction = Fraction(0)
    radicand: int = 1

    def __post_init__(self):
        if self.radicand == 1 and not self.surd_coef:
            return  # a plain rational: nothing to fold
        if self.radicand < 0:
            raise ValueError("radicand must be nonnegative")
        if self.radicand in (0, 1) or self.surd_coef == 0:
            # Fold degenerate surds into the rational part.
            extra = self.surd_coef if self.radicand == 1 else Fraction(0)
            object.__setattr__(self, "rational", self.rational + extra)
            object.__setattr__(self, "surd_coef", Fraction(0))
            object.__setattr__(self, "radicand", 1)

    @classmethod
    def sqrt_of(cls, value: Fraction) -> "ExactValue":
        """Exact sqrt of a nonnegative rational, as k*sqrt(m)."""
        if value < 0:
            raise ValueError("sqrt_of needs a nonnegative rational")
        if value == 0:
            return cls(Fraction(0))
        k, m = _square_free_split(value.numerator * value.denominator)
        return cls(Fraction(0), Fraction(k, value.denominator), m)

    @property
    def is_rational(self) -> bool:
        return self.surd_coef == 0

    def as_fraction(self) -> Optional[Fraction]:
        return self.rational if self.is_rational else None

    def shift(self, dr: Fraction) -> "ExactValue":
        return ExactValue(self.rational + dr, self.surd_coef, self.radicand)

    def __neg__(self) -> "ExactValue":
        return ExactValue(-self.rational, -self.surd_coef, self.radicand)

    def __float__(self) -> float:
        return float(self.rational) + float(self.surd_coef) * math.sqrt(self.radicand)

    def __str__(self) -> str:
        if self.is_rational:
            return str(self.rational)
        coef = self.surd_coef
        if abs(coef) == 1:
            surd = f"sqrt({self.radicand})"
        else:
            surd = f"{abs(coef)}*sqrt({self.radicand})"
        if self.rational == 0:
            return surd if coef > 0 else f"-{surd}"
        joiner = " + " if coef > 0 else " - "
        return f"{self.rational}{joiner}{surd}"


@dataclass(frozen=True)
class TrigForm:
    """Cosine form of the three-real-root case: root_k = amplitude * cos(offsets[k]).

    amplitude = -2*sqrt(rs) = -2|r| and theta = Arg(r); the offsets are
    theta/3 + 2k pi/3, reordered in step with the sorted roots.
    """

    amplitude: float
    theta: float
    offsets: tuple[float, float, float]

    def __init__(self, amplitude, theta, offsets):
        # One __dict__ fill, as in RsPair.
        self.__dict__.update(amplitude=amplitude, theta=theta, offsets=offsets)


@dataclass(frozen=True)
class RootTriple:
    """Three roots in canonical order: reals first ascending, then the
    non-real pair by ascending imaginary part.

    multiplicity lists (index, count) for repeated roots only. exact holds
    per-root exactly-known values when the input arithmetic allowed it.
    pair is the (r, s) decomposition the case dispatch ran on (set by
    solve_depressed; None from the other solvers).
    """

    roots: tuple[complex, complex, complex]
    case: CaseTag
    multiplicity: tuple[tuple[int, int], ...] = ()
    exact: Optional[tuple[Optional[ExactValue], ...]] = None
    trig: Optional[TrigForm] = None
    pair: Optional[RsPair] = None

    def __init__(self, roots, case, multiplicity=(), exact=None, trig=None, pair=None):
        # One __dict__ fill, as in RsPair.
        self.__dict__.update(roots=roots, case=case, multiplicity=multiplicity, exact=exact, trig=trig, pair=pair)


def _solve_equal(pair: RsPair) -> RootTriple:
    """Roots r, r, -2r of the repeated-pair case x^3 - 3r^2 x + 2r^3.

    Stated with r itself rather than sqrt(rs): for r < 0, sqrt(rs) = |r|
    would flip the sign, while (x-r)^2 (x+2r) pins the repeated root at r,
    first in ascending order when r < 0. Exact when r is rational.
    """
    r = pair.exact_r if pair.exact_r is not None else pair.r.real
    values = sorted([r, r, -2 * r])
    roots = tuple(complex(float(v), 0.0) for v in values)
    exact = tuple(ExactValue(v) for v in values) if pair.exact_r is not None else None
    return RootTriple(roots, CaseTag.EQUAL, multiplicity=((0, 2),) if r < 0 else ((1, 2),), exact=exact, pair=pair)


def _solve_real_distinct(pair: RsPair) -> RootTriple:
    """One real root and a conjugate pair, from real cube roots of r and s.

    With u = r^(1/3), v = s^(1/3) (real, sign-preserving, through one
    power-of-two scale) the roots are -uv(u+v) and -uv(omega^j u + omega^-j v);
    the twisted pair collapses to uv(u+v)/2 +- i sqrt(3) uv(u-v)/2.
    """
    u = _root(pair.r.real, 3)
    v = _root(pair.s.real, 3)
    m = u * v
    x0 = -m * (u + v)
    re = -x0 / 2.0
    im = abs(m * (u - v)) * _SQRT3 / 2.0
    roots = (complex(x0, 0.0), complex(re, -im), complex(re, im))
    return RootTriple(roots, CaseTag.REAL_DISTINCT, pair=pair)


def _solve_conjugate(pair: RsPair) -> RootTriple:
    """Three real roots -2|r| cos(theta/3 + 2k pi/3) for s = conj(r).

    The imaginary parts are identically zero by construction, so none of
    the casus-irreducibilis complex arithmetic leaks into the output.
    """
    theta = principal_arg(pair.r)
    amplitude = -2.0 * abs(pair.r)
    offsets = (theta / 3.0, theta / 3.0 + _TWO_PI_3, theta / 3.0 + 2.0 * _TWO_PI_3)
    pairs = sorted((amplitude * math.cos(o), o) for o in offsets)
    roots = tuple(complex(v, 0.0) for v, _ in pairs)
    trig = TrigForm(amplitude=amplitude, theta=theta, offsets=tuple(o for _, o in pairs))
    return RootTriple(roots, CaseTag.CONJUGATE_PAIR, trig=trig, pair=pair)


def unified_roots(u: complex, v: complex) -> tuple[complex, complex, complex]:
    """The raw product-form roots -uv(omega^j u + omega^-j v), j = 0, 1, 2.

    For any cube roots u of r and v of s these are the roots of
    x^3 - 3rsx + rs(r+s): replacing u by omega^a u and v by omega^b v
    permutes the three j-values, so all nine choices give the same set.
    """
    m = u * v
    return (
        -m * (u + v),
        -m * (OMEGA * u + OMEGA2 * v),
        -m * (OMEGA2 * u + OMEGA * v),
    )


def _finalize(raw, case: CaseTag, p: float, q: float) -> RootTriple:
    """Order raw roots canonically and restore the real/conjugate shape of the case.

    Real coefficients force the roots to be all real or one real plus a
    conjugate pair; residual imaginary noise from complex cube roots is
    folded back into that structure. Multiplicity follows from the case:
    the double root r of (x-r)^2 (x+2r) sorts first when q = 2r^3 < 0,
    and p = q = 0 is a triple root.
    """
    three_real = (
        case in (CaseTag.EQUAL, CaseTag.CONJUGATE_PAIR)
        or (case is CaseTag.DEGENERATE_Q0 and p < 0)
        or (case is CaseTag.DEGENERATE_P0 and q == 0)
    )
    if three_real:
        values = sorted(x.real for x in raw)
        roots = tuple(complex(v, 0.0) for v in values)
        if case is CaseTag.EQUAL:
            mult = ((0, 2),) if q < 0 else ((1, 2),)
        else:
            mult = ((0, 3),) if case is CaseTag.DEGENERATE_P0 else ()
        return RootTriple(roots, case, multiplicity=mult)
    k = min(range(3), key=lambda i: abs(raw[i].imag))
    z1, z2 = (raw[i] for i in range(3) if i != k)
    re = 0.5 * (z1.real + z2.real)
    im = 0.5 * (abs(z1.imag) + abs(z2.imag))
    roots = (complex(raw[k].real, 0.0), complex(re, -im), complex(re, im))
    return RootTriple(roots, case)


def solve_moebius(r: complex, s: complex) -> RootTriple:
    """Roots x = (r - su)/(1 - u) over the three cube roots u of r/s.

    Needs s != 0 and no cube root u equal to 1, where the map blows up:
    that is r = s, or an r/s that rounds to 1. The case is compute_rs's
    for p = -3rs and q = rs(r+s).
    """
    r = complex(r)
    s = complex(s)
    if s == 0:
        raise InvalidCaseError("Moebius form needs s != 0")
    us = cube_roots_all(r / s)
    if 1 in us:
        raise InvalidCaseError("Moebius form degenerates when r = s (a cube root of r/s is 1)")
    raw = tuple((r - s * u) / (1.0 - u) for u in us)
    rs = r * s
    p = (-3.0 * rs).real
    q = (rs * (r + s)).real
    return _finalize(raw, compute_rs(DepressedCubic(p, q)).case, p, q)


def _solve_degenerate(d: DepressedCubic, pair: RsPair) -> RootTriple:
    """p = 0 (or negligible) or q = 0: solved directly, no decomposition involved.

    q = 0: x(x^2 + p) -> {0, +-sqrt(-p)};  p = 0: the cube roots of -q, exact
    only if p is exactly 0. Roots go through one power-of-two scale.
    """
    p, q = d.p, d.q
    if p == 0 and q == 0:
        zero = ExactValue(Fraction(0))
        return RootTriple(
            (0j, 0j, 0j), CaseTag.DEGENERATE_P0, multiplicity=((0, 3),), exact=(zero, zero, zero), pair=pair
        )
    if q == 0:
        w = _root(abs(p), 2)
        if p < 0:
            roots = (complex(-w, 0.0), complex(0.0, 0.0), complex(w, 0.0))
            sv = ExactValue.sqrt_of(-p) if d.exact else None
            exact = (-sv, ExactValue(Fraction(0)), sv) if sv is not None else None
        else:
            roots = (complex(0.0, 0.0), complex(0.0, -w), complex(0.0, w))
            exact = (ExactValue(Fraction(0)), None, None) if d.exact else None
        return RootTriple(roots, CaseTag.DEGENERATE_Q0, exact=exact, pair=pair)
    c = _root(-q, 3)
    re, im = -c / 2.0, abs(c) * _SQRT3 / 2.0
    roots = (complex(c, 0.0), complex(re, -im), complex(re, im))
    cr = fraction_cbrt(-q) if d.exact and p == 0 else None
    exact = (ExactValue(cr), None, None) if cr is not None else None
    return RootTriple(roots, CaseTag.DEGENERATE_P0, exact=exact, pair=pair)


_CASE_STEPS = {
    CaseTag.EQUAL: _solve_equal,
    CaseTag.REAL_DISTINCT: _solve_real_distinct,
    CaseTag.CONJUGATE_PAIR: _solve_conjugate,
}


def solve_depressed(d: DepressedCubic) -> RootTriple:
    """Case-dispatched solve of x^3 + px + q on the pair compute_rs returns.

    Every intermediate stays real where the case allows it (real cube
    roots for real r, s; the cosine form for a conjugate pair), and exact
    and trig annotations are carried.
    """
    pair = compute_rs(d)
    if pair.r is None:
        return _solve_degenerate(d, pair)
    return _CASE_STEPS[pair.case](pair)


def lift_roots(triple: RootTriple, delta: Coefficient) -> RootTriple:
    """Undo the depression shift on a root triple: x = y - delta.

    Case tag, multiplicity, and the trig annotation ride along unchanged
    (the trig form keeps describing the depressed roots); exact values are
    shifted exactly by an exact shift and dropped by a float one.
    """
    if delta == 0:
        return triple
    d = complex(delta)
    roots = tuple(x - d for x in triple.roots)
    exact = None
    if triple.exact is not None and not isinstance(delta, float):
        dr = -Fraction(delta)
        exact = tuple(e.shift(dr) if e is not None else None for e in triple.exact)
    return RootTriple(roots, triple.case, triple.multiplicity, exact, triple.trig, triple.pair)


def newton_polish(triple: RootTriple, cubic: GeneralCubic) -> RootTriple:
    """One Newton step per root against the original monic cubic."""
    a = complex(float(cubic.a))
    b = complex(float(cubic.b))
    c = complex(float(cubic.c))
    polished = []
    for x in triple.roots:
        fp = (3.0 * x + 2.0 * a) * x + b
        if abs(fp) > 1e-300:
            f = ((x + a) * x + b) * x + c
            x = x - f / fp
        polished.append(x)
    return RootTriple(tuple(polished), triple.case, triple.multiplicity, triple.exact, triple.trig, triple.pair)


def solve(cubic: GeneralCubic) -> RootTriple:
    """Full pipeline: depress, decompose into (r, s), dispatch, lift back."""
    d, delta = depress(cubic)
    return lift_roots(solve_depressed(d), delta)
