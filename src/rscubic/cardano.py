"""Cardano baseline: x = cbrt(A) + cbrt(B) and its omega-twisted companions.

A = -q/2 + sqrt((q/2)^2 + (p/3)^3), B the conjugate choice. The one sharp
edge is branch pairing: cbrt(A) and cbrt(B) must be chosen so that their
product is -p/3, otherwise cbrt(A) + cbrt(B) silently stops being a root
once the discriminant goes negative. We therefore take one cube root and
derive the other as (-p/3) / cbrt(A).

The roots are kept independent of the r,s path so the two can
cross-check each other: they stay raw Cardano values, only ordered and
folded to the real/conjugate shape of the case. The case tag itself is
compute_rs's, so every solver reports the same one.
"""

from __future__ import annotations

import math
from itertools import permutations

from .chen import RootTriple, _finalize
from .decompose import CaseTag, compute_rs, integer_discriminant
from .numerics import _BAND_HIGH, _BAND_LOW, OMEGA, OMEGA2, _band, _exponent, _float_of, _ratio, _root, principal_cube_root
from .reduction import DepressedCubic, _record


class CardanoIntermediates(_record("CardanoIntermediates", "A B disc sqrt_disc cbrt_a cbrt_b")):
    """The raw quantities a by-hand application would write down.

    The float disc = (q/2)^2 + (p/3)^3; the complex sqrt_disc is its principal
    square root (+i sqrt|disc| when negative). All four of the complex A, B,
    cbrt_a, cbrt_b stay exactly real (zero imaginary part) whenever disc >= 0.
    Out of band (k != 0, see _cardano) they are those of the scaled cubic
    (p 4^-k, q 8^-k): A, B and sqrt_disc are 8^-k, disc 64^-k, and cbrt_a,
    cbrt_b 2^-k times the values of (p, q), which a double may not hold.
    """

    __slots__ = ()


def cardano_solve(d: DepressedCubic) -> tuple[RootTriple, CardanoIntermediates]:
    """Solve x^3 + px + q by Cardano's formula (all p, q accepted)."""
    return _cardano(d, compute_rs(d).case)


def _cardano(d: DepressedCubic, case: CaseTag) -> tuple[RootTriple, CardanoIntermediates]:
    """cardano_solve for a cubic whose case compute_rs has already decided.

    Range: the roots scale by 2^k under (p, q) -> (p 4^k, q 8^k), so the
    formula runs on (p 4^-k, q 8^-k) with compute_rs's k = max(ceil(e_p/2),
    ceil(e_q/3)) over the nonzero p and q, and the roots are multiplied by
    2^k; in band (|k| <= 100) k = 0, and p and q whose doubles have
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
        n, m = integer_discriminant(p.numerator, p.denominator, q.numerator, q.denominator)
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
        ca = _root(a_val, 3)
        cb = (-p / 3.0) / ca if ca != 0.0 else _root(b_val, 3)
        A, B = complex(a_val, 0.0), complex(b_val, 0.0)
        sqrt_disc = complex(w, 0.0)
        cbrt_a, cbrt_b = complex(ca, 0.0), complex(cb, 0.0)
    else:
        sqrt_disc = complex(0.0, math.sqrt(-disc))
        A = -q / 2.0 + sqrt_disc
        B = -q / 2.0 - sqrt_disc
        cbrt_a = principal_cube_root(A)
        cbrt_b = (-p / 3.0) / cbrt_a if cbrt_a != 0 else principal_cube_root(B)
    raw = (
        cbrt_a + cbrt_b,
        OMEGA * cbrt_a + OMEGA2 * cbrt_b,
        OMEGA2 * cbrt_a + OMEGA * cbrt_b,
    )
    if k:
        raw = tuple(complex(math.ldexp(z.real, k), math.ldexp(z.imag, k)) for z in raw)
    triple = _finalize(raw, case, p, q)
    return triple, CardanoIntermediates(A, B, disc, sqrt_disc, cbrt_a, cbrt_b)


def match_root_sets(a, b) -> float:
    """Minimum over pairings of the maximum pairwise distance between two root triples."""
    return min(max(abs(x - y) for x, y in zip(a, perm)) for perm in permutations(b))

