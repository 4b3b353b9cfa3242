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
from .decompose import compute_rs, integer_discriminant
from .numerics import OMEGA, OMEGA2, _root, principal_cube_root
from .reduction import DepressedCubic, _record


class CardanoIntermediates(_record("CardanoIntermediates", "A B disc sqrt_disc cbrt_a cbrt_b")):
    """The raw quantities a by-hand application would write down.

    The float disc = (q/2)^2 + (p/3)^3; the complex sqrt_disc is its principal
    square root (+i sqrt|disc| when negative). All four of the complex A, B,
    cbrt_a, cbrt_b stay exactly real (zero imaginary part) whenever disc >= 0.
    """

    __slots__ = ()


def cardano_solve(d: DepressedCubic) -> tuple[RootTriple, CardanoIntermediates]:
    """Solve x^3 + px + q by Cardano's formula (all p, q accepted)."""
    p = float(d.p)
    q = float(d.q)
    if d.exact:
        # (q/2)^2 + (p/3)^3 = (4p^3 + 27q^2) / 108, rounded once: formed
        # in doubles it cancels when the two terms nearly balance.
        n, m = integer_discriminant(d)
        disc = n / (108 * m)
    else:
        disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
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
    triple = _finalize(raw, compute_rs(d).case, p, q)
    return triple, CardanoIntermediates(A, B, disc, sqrt_disc, cbrt_a, cbrt_b)


def match_root_sets(a, b) -> float:
    """Minimum over pairings of the maximum pairwise distance between two root triples."""
    return min(max(abs(x - y) for x, y in zip(a, perm)) for perm in permutations(b))

