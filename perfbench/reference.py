"""High-precision reference roots (mpmath, 60 digits), cached per corpus.

Roots that the generator planted exactly are used as they are. Every other
cubic goes to ``mpmath.polyroots`` at 60 digits, started from the
generator's approximate roots when it has them (nudged off any repeated
value, since the iteration needs distinct complex starts). A radical's
reference is its direct value with real cube roots. This runs outside
every timed region, and the result is stored under the cache directory
keyed by workload, seed and a digest of the corpus.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import mpmath

DPS = 60
RESOLVED_DIGITS = 35
_NUDGE = (complex(0.4, 0.9), complex(-0.7, 0.3), complex(0.2, -0.8))


def _mp(coef: tuple) -> mpmath.mpf:
    q, m = coef
    value = mpmath.mpf(q.numerator) / q.denominator
    return value if m == 1 else value * mpmath.sqrt(m)


def _real_cbrt(x: mpmath.mpf) -> mpmath.mpf:
    return mpmath.sign(x) * mpmath.cbrt(abs(x))


def _polyroots(item, init) -> list:
    """Roots of the item's cubic at the current precision."""
    lead, a, b, c = (_mp(v) for v in item.coeffs)
    a, b, c = a / lead, b / lead, c / lead
    if c == 0:  # x (x^2 + a x + b): keep the zero root exact
        w = mpmath.sqrt(a * a - 4 * b)
        big = (-a - w) / 2 if mpmath.re(a) >= 0 else (-a + w) / 2
        return [mpmath.mpf(0), big, b / big if big else big]
    # polyroots stops on an absolute step size, so scale the roots to about 1
    # (by a power of two, which is exact) using the Fujiwara bound.
    bound = 2 * max(abs(a), mpmath.sqrt(abs(b)), mpmath.cbrt(abs(c) / 2))
    scale = mpmath.ldexp(1, int(mpmath.floor(mpmath.log(bound, 2))))
    coeffs = [1, a / scale, b / scale**2, c / scale**3]
    if init is not None:
        init = [mpmath.mpc(z) / scale * (1 + 1e-6 * w) + 1e-30 * w for z, w in zip(init, _NUDGE)]
    try:
        roots = mpmath.polyroots(coeffs, maxsteps=50, extraprec=4 * DPS, roots_init=init, cleanup=False)
    except mpmath.mp.NoConvergence:
        roots = mpmath.polyroots(coeffs, maxsteps=500, extraprec=8 * DPS, cleanup=False)
    return [z * scale for z in roots]


def _cubic_roots(item) -> list:
    if item.roots is not None:
        return [mpmath.mpf(r.numerator) / r.denominator for r in item.roots]
    # The step-size test resolves a root only to 10^-digits of the largest.
    # Every root should carry at least RESOLVED_DIGITS correct digits, so
    # when the roots span too many decades, solve again with more digits.
    digits = DPS
    while True:
        with mpmath.workdps(digits):
            roots = _polyroots(item, item.approx)
            spread = max(abs(r) for r in roots) / min(abs(r) for r in roots if r != 0)
            need = RESOLVED_DIGITS + int(mpmath.log10(spread))
        if need <= digits or digits >= 8 * DPS:
            return roots
        digits = min(need + 10, 8 * DPS)


def _radical_value(item) -> mpmath.mpf:
    a, b = (_mp(c) for c in item.coeffs)
    w = mpmath.sqrt(b)
    return _real_cbrt(a + w) + _real_cbrt(a - w)


def compute(items) -> list:
    """Reference values per item: three mpc roots, or one mpf for a radical."""
    with mpmath.workdps(DPS):
        return [_radical_value(it) if it.kind == "denest" else _cubic_roots(it) for it in items]


def _digest(items) -> str:
    h = hashlib.sha256(Path(__file__).read_bytes())  # new code, new references
    for it in items:
        h.update(repr((it.kind, it.coeffs, it.roots)).encode())
    return h.hexdigest()[:16]


def _encode(ref) -> object:
    if isinstance(ref, list):
        return [[mpmath.nstr(mpmath.re(z), 45), mpmath.nstr(mpmath.im(z), 45)] for z in ref]
    return mpmath.nstr(ref, 45)


def _decode(data) -> object:
    if isinstance(data, list):
        return [mpmath.mpc(re, im) for re, im in data]
    return mpmath.mpf(data)


def load(workload: str, seed: int, items, cache_dir: Path) -> list:
    """Cached references for this corpus, computed on a miss."""
    path = cache_dir / f"ref-{workload}-{seed}-{_digest(items)}.json"
    with mpmath.workdps(DPS):
        if path.exists():
            return [_decode(d) for d in json.loads(path.read_text())]
        refs = compute(items)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps([_encode(r) for r in refs]))
        tmp.replace(path)
        return refs
