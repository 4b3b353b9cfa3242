"""Seeded input corpora, one generator per workload.

Every generator draws from ``random.Random(f"{workload}:{seed}:{stream}")``,
so a seed gives the same inputs on every machine, and the two batch
workloads use separate seed streams although they share a generator.
Stream 0 is the checked corpus, judged against mpmath; a run times fresh
streams 1, 2, ... of the same seed, so no timed input repeats. Magnitude
exponents are drawn by Latin hypercube sampling (one draw per equal-width
stratum, in shuffled order): every run covers the whole magnitude range
evenly, which keeps run-to-run spread of the accuracy figures small.

An item records what the program receives (``args``) and what the checker
needs: the true coefficients, the exact roots the generator planted (when
all three are rational), and approximate roots that seed the reference
solver. Coefficients are ``(rational, radicand)`` pairs standing for
``rational * sqrt(radicand)``, so ``sqrt(m)`` literals keep their true value.

Basis of the mixes. The only traffic the repository records is the batch
of random integer-coefficient cubics in ROADMAP.md, so the batch corpus is
mostly such cubics; every other share below (planted cases in the batch,
all shares of the library corpora, for which no traffic is recorded) is
chosen for coverage, to make each case tag and input family appear in
every run, and is not a measured share of real traffic.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

WORKLOADS = ("batch_plain", "batch_both_verify", "lib_float_wide", "lib_exact")

# Corpus sizes per stream. The sizes keep the mpmath reference of the
# checked stream (cached per workload and seed) within a few seconds.
SIZES = {"batch_plain": 1200, "batch_both_verify": 1200, "lib_float_wide": 2048, "lib_exact": 1000}


@dataclass(frozen=True)
class Item:
    """One operation of a workload.

    kind:   "line" (a batch-file line), "solve" (library ``solve``) or
            "denest" (library ``denest``).
    args:   what the program receives: the text line, (a, b, c) for solve,
            (a, b) for denest.
    coeffs: true coefficients; (lead, a, b, c) for cubics, (a, b) for a
            radical, each as (Fraction, radicand).
    roots:  the planted exact roots, with multiplicity, when all are
            rational; for a radical, its rational value.
    approx: approximate roots (start values for the reference solver).
    probe:  checked once per run but never timed: inputs on which the
            solver raises, whose timings would mean nothing.
    """

    kind: str
    args: object
    coeffs: tuple
    roots: Optional[tuple] = None
    approx: Optional[tuple] = None
    probe: bool = False

    @property
    def exact(self) -> bool:
        """The program receives exact rationals (no float, no sqrt literal)."""
        if self.kind == "line":
            return all(m == 1 for _, m in self.coeffs)
        return not any(isinstance(v, float) for v in self.args)


def generate(workload: str, seed: int, size: Optional[int] = None, stream: int = 0) -> list[Item]:
    """The workload's items for this seed and stream; ``size`` overrides the corpus size.

    Only stream 0, the checked one, carries the untimed probe items.
    """
    rng = random.Random(f"{workload}:{seed}:{stream}")
    n = size if size is not None else SIZES[workload]
    if workload in ("batch_plain", "batch_both_verify"):
        return _batch(rng, n)
    if workload == "lib_float_wide":
        return _float_wide(rng, n)
    if workload == "lib_exact":
        items = _exact(rng, n)
        return items + _exact_probes(rng) if stream == 0 else items
    raise ValueError(f"unknown workload {workload!r}")


# -- helpers ------------------------------------------------------------------


def _lhs(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n values in [lo, hi), one from each of n equal strata, shuffled."""
    strata = list(range(n))
    rng.shuffle(strata)
    return [lo + (hi - lo) * (k + rng.random()) / n for k in strata]


def _counts(n: int, shares: list[float]) -> list[int]:
    """Split n into parts proportional to shares (the last part takes the rest)."""
    counts = [int(n * s) for s in shares[:-1]]
    return counts + [n - sum(counts)]


def _sign(rng: random.Random) -> int:
    return rng.choice((-1, 1))


def _rat(value) -> tuple[Fraction, int]:
    return (Fraction(value), 1)


def _from_roots(r0, r1, r2) -> tuple:
    """(a, b, c) of the monic cubic (x - r0)(x - r1)(x - r2)."""
    return -(r0 + r1 + r2), r0 * r1 + r0 * r2 + r1 * r2, -(r0 * r1 * r2)


def _cbrt_all(z: complex) -> tuple[complex, complex, complex]:
    w = complex(math.copysign(abs(z.real) ** (1 / 3), z.real)) if z.imag == 0 else z ** (1 / 3)
    omega = cmath.exp(2j * math.pi / 3)
    return (w, w * omega, w * omega * omega)


# -- batch workloads ------------------------------------------------------------


def _digits_int(rng: random.Random, max_exp: float) -> int:
    """Signed integer with log-uniform magnitude below 10**max_exp."""
    return _sign(rng) * int(10 ** rng.uniform(0, max_exp))


def _small_rat(rng: random.Random, num: int, den: int) -> Fraction:
    d = 1 if rng.random() < 0.5 else rng.randint(2, den)
    return Fraction(rng.randint(-num, num), d)


def _fmt_number(rng: random.Random, value: Fraction) -> str:
    """Unsigned literal for |value|: integer, decimal (when finite) or n/d."""
    value = abs(value)
    if value.denominator == 1:
        return str(value.numerator)
    den = value.denominator
    places = next((k for k in range(1, 5) if (10**k) % den == 0), None)
    if places is not None and rng.random() < 0.6:
        scaled = value.numerator * (10**places // den)
        whole, frac = divmod(scaled, 10**places)
        return f"{whole}.{frac:0{places}d}"
    return f"{value.numerator}/{den}"


def _fmt_line(rng: random.Random, coeffs: tuple) -> str:
    """Render lead*x^3 + a*x^2 + b*x + c in one of the parser's spellings."""
    parts = []
    for power, (q, m) in zip((3, 2, 1, 0), coeffs):
        if q == 0:
            continue
        neg = q < 0
        if m != 1:
            k = abs(q)
            body = f"sqrt({m})" if k == 1 else f"{_fmt_number(rng, k)}*sqrt({m})"
        elif abs(q) == 1 and power > 0:
            body = ""
        else:
            body = _fmt_number(rng, q)
        xpart = {3: "x^3", 2: "x^2", 1: "x", 0: ""}[power]
        if body and xpart and rng.random() < 0.3:
            body += "*"
        term = body + xpart
        if not parts:
            parts.append(("-" if neg else "") + term)
        else:
            op = "-" if neg else "+"
            parts.append(f" {op} {term}" if rng.random() < 0.7 else f"{op}{term}")
    line = "".join(parts)
    return line + " = 0" if rng.random() < 0.5 else line


def _line_item(rng, lead, a, b, c, roots=None, approx=None, surd=None) -> Item:
    coeffs = [_rat(lead), _rat(a), _rat(b), _rat(c)]
    if surd is not None:
        index, k, m = surd
        coeffs[index] = (Fraction(k), m)
    coeffs = tuple(coeffs)
    if approx is None and roots is not None:
        approx = tuple(complex(float(r)) for r in roots)
    return Item("line", _fmt_line(rng, coeffs), coeffs, roots, approx)


def _batch(rng: random.Random, n: int) -> list[Item]:
    """Text equations for ``rscubic solve --batch``.

    Why: batch throughput is the CLI user's headline figure. Coefficients
    stay at size <= 1e6 because one uncaught error aborts a whole batch.
    Mix: 88% cubics with uniform random coefficients: 80% of them
    integer-coefficient cubics like the batch ROADMAP.md measured, 10%
    with decimal and 10% with rational coefficients. The other 12% are
    planted for coverage, a few of each per 300-line batch file:
    three-rational-root cubics (three real roots), one rational root times
    an irreducible quadratic, double roots (the equal case), p = 0 and
    q = 0 after the shift (both degenerate tags, including triple roots),
    and sqrt(m) literals (float input).
    """
    kinds = ["random", "three_rational", "rational_quadratic", "equal", "p0", "q0", "surd"]
    counts = _counts(n, [0.88, 0.03, 0.02, 0.02, 0.02, 0.02, 0.01])
    items = []
    for kind, count in zip(kinds, counts):
        for _ in range(count):
            items.append(_batch_item(rng, kind))
    rng.shuffle(items)
    return items


def _batch_coef(rng: random.Random, style: str) -> Fraction:
    """Uniform random coefficient of size <= 1e6: an integer, a decimal or a small-denominator rational."""
    if style == "integer":
        return Fraction(rng.randint(-(10**6), 10**6))
    if style == "decimal":
        return Fraction(rng.randint(-(10**6), 10**6), 10 ** rng.randint(1, 3))
    return Fraction(rng.randint(-(10**5), 10**5), rng.randint(2, 9))


def _batch_item(rng: random.Random, kind: str) -> Item:
    if kind == "random":
        u = rng.random()
        style = "integer" if u < 0.8 else "decimal" if u < 0.9 else "rational"
        lead = 1 if rng.random() < 0.7 else _sign(rng) * rng.randint(2, 9)
        a = _batch_coef(rng, style) if rng.random() < 0.85 else Fraction(0)
        return _line_item(rng, lead, a, _batch_coef(rng, style), _batch_coef(rng, style))
    if kind == "three_rational":
        roots = set()
        while len(roots) < 3:
            roots.add(_small_rat(rng, 40, 5))
        r0, r1, r2 = sorted(roots)
        a, b, c = _from_roots(r0, r1, r2)
        lead = 1
        if rng.random() < 0.5:  # clear denominators: integer coefficients
            lead = r0.denominator * r1.denominator * r2.denominator
            a, b, c = a * lead, b * lead, c * lead
        return _line_item(rng, lead, a, b, c, roots=(r0, r1, r2))
    if kind == "rational_quadratic":
        r = _small_rat(rng, 60, 5)
        gamma = rng.randint(1, 2000)
        limit = 2 * math.isqrt(gamma)
        beta = rng.randint(-limit, limit)
        if beta * beta >= 4 * gamma:
            beta = 0
        a, b, c = beta - r, gamma - r * beta, -r * gamma
        w = cmath.sqrt(beta * beta - 4 * gamma)
        approx = (complex(float(r)), (-beta + w) / 2, (-beta - w) / 2)
        return _line_item(rng, 1, a, b, c, approx=approx)
    if kind == "equal":
        r = _small_rat(rng, 40, 4)
        s = _small_rat(rng, 40, 4)
        if s == r:
            s = r + 1
        a, b, c = _from_roots(r, r, s)
        return _line_item(rng, 1, a, b, c, roots=tuple(sorted((r, r, s))))
    if kind == "p0":
        # (x - h)^3 + k: p = 0 after the shift; k = 0 gives a triple root.
        h = _small_rat(rng, 20, 3)
        k = Fraction(0) if rng.random() < 0.2 else Fraction(_digits_int(rng, 5))
        a, b, c = -3 * h, 3 * h * h, -(h**3) + k
        if k == 0:
            return _line_item(rng, 1, a, b, c, roots=(h, h, h))
        approx = tuple(complex(float(h)) + w for w in _cbrt_all(complex(-float(k))))
        return _line_item(rng, 1, a, b, c, approx=approx)
    if kind == "q0":
        # (x - h)^3 + p (x - h): q = 0 after the shift.
        h = _small_rat(rng, 20, 3)
        p = Fraction(_digits_int(rng, 4) or 1)
        a, b, c = -3 * h, 3 * h * h + p, -(h**3) - p * h
        w = cmath.sqrt(-float(p))
        approx = (complex(float(h)), float(h) + w, float(h) - w)
        return _line_item(rng, 1, a, b, c, approx=approx)
    # A sqrt(m) literal on the x or constant term (the cubic is then float).
    m = rng.choice([2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23])
    k = rng.randint(1, 50) * _sign(rng)
    a = Fraction(_digits_int(rng, 3)) if rng.random() < 0.5 else Fraction(0)
    b, c = Fraction(_digits_int(rng, 4)), Fraction(_digits_int(rng, 5))
    return _line_item(rng, 1, a, b, c, surd=(rng.choice((2, 3)), k, m))


# -- lib_float_wide -------------------------------------------------------------


def _float_item(a: float, b: float, c: float, approx) -> Item:
    coeffs = (_rat(1), _rat(a), _rat(b), _rat(c))
    return Item("solve", (a, b, c), coeffs, None, tuple(complex(z) for z in approx))


def _float_wide(rng: random.Random, n: int) -> list[Item]:
    """Float cubics for library ``solve``, with roots over 1e-8 .. 1e8.

    Why: it skips parsing, the CLI and Fraction arithmetic, exercises the
    float path of every case, and is where accuracy defects show. Mix:
    three real roots and one real root plus a pair (each root magnitude
    drawn independently over 16 decades), near-double sweeps
    p = -3t^2, q = 2t^3(1+eps) with eps over 1e-14 .. 1e-2, and edges
    where p is negligible, p = 0 or q = 0. The shares (3/8, 3/8, 1/8,
    1/8) are chosen for coverage: the two root layouts carry most of the
    magnitude range, the sweeps and edges a few hundred inputs each.
    """
    n_real, n_pair, n_double, n_edge = _counts(n, [0.375, 0.375, 0.125, 0.125])
    items = []
    exps = zip(*(_lhs(rng, n_real, -8, 8) for _ in range(3)))
    for e0, e1, e2 in exps:
        roots = [_sign(rng) * 10**e for e in (e0, e1, e2)]
        items.append(_float_item(*_from_roots(*roots), roots))
    for e0, e1, phi in zip(_lhs(rng, n_pair, -8, 8), _lhs(rng, n_pair, -8, 8), _lhs(rng, n_pair, 0.05, 0.95)):
        x0 = _sign(rng) * 10**e0
        z = cmath.rect(10**e1, math.pi * phi)
        mod2 = abs(z) ** 2
        a, b, c = -(x0 + 2 * z.real), 2 * z.real * x0 + mod2, -x0 * mod2
        items.append(_float_item(a, b, c, (x0, z, z.conjugate())))
    for e, le in zip(_lhs(rng, n_double, -8, 8), _lhs(rng, n_double, -14, -2)):
        t = _sign(rng) * 10**e
        p, q = -3 * t * t, 2 * t**3 * (1 + 10**le)
        items.append(_float_item(0.0, p, q, (t, t, -2 * t)))
    for i, (e, f) in enumerate(zip(_lhs(rng, n_edge, -8, 8), _lhs(rng, n_edge, 10, 30))):
        v = _sign(rng) * 10**e
        if i % 3 == 0:  # p negligible against q: straddles the p-zeroing threshold
            p = _sign(rng) * abs(v) ** (2 / 3) * 10**-f
            items.append(_float_item(0.0, p, v, _cbrt_all(complex(-v))))
        elif i % 3 == 1:  # p exactly zero
            items.append(_float_item(0.0, 0.0, v, _cbrt_all(complex(-v))))
        else:  # q exactly zero
            w = cmath.sqrt(-v)
            items.append(_float_item(0.0, v, 0.0, (0.0, w, -w)))
    rng.shuffle(items)
    return items


# -- lib_exact ----------------------------------------------------------------


def _big_rat(rng: random.Random, digits: float) -> Fraction:
    """Signed rational of about 10**digits; half carry a denominator."""
    num = _sign(rng) * (int(10**digits) + rng.randrange(max(1, int(10**digits))))
    if rng.random() < 0.5:
        return Fraction(num)
    return Fraction(num, rng.randint(2, 10 ** max(1, int(digits / 4))))


def _exact_item(a, b, c, roots=None, approx=None, probe=False) -> Item:
    coeffs = (_rat(1), _rat(a), _rat(b), _rat(c))
    args = tuple(v.numerator if v.denominator == 1 else v for v in map(Fraction, (a, b, c)))
    if approx is None and roots is not None:
        approx = tuple(complex(float(r)) for r in roots)
    return Item("solve", args, coeffs, roots, approx, probe)


def _radical_item(rng: random.Random, size: float, known: bool, probe: bool = False) -> Item:
    """cbrt(a + sqrt(b)) + cbrt(a - sqrt(b)) = x, built from x and m = cbrt(a^2 - b).

    x^3 = 2a + 3mx gives 2a = x^3 - 3mx and b = a^2 - m^3, with integers x
    and m <= 0 (so b >= 0 and the value is the cubic's only real root).
    The rational-root search factors |2a|, about 1.4 |x|^3 with |x|^3 about
    10**size, so its cost is set by ``size`` alone. Without ``known``, 2a
    is raised by one, so the cubic stays exact but its real root is
    irrational.
    """
    x = _sign(rng) * max(1, round(10 ** (size / 3)))
    m = -rng.randint(x * x // 8, x * x // 7)
    a = Fraction(x**3 - 3 * m * x + (0 if known else 1), 2)
    b = a * a - m**3
    if known:
        return Item("denest", (a, b), (_rat(a), _rat(b)), (Fraction(x),), (complex(x),), probe)
    return Item("denest", (a, b), (_rat(a), _rat(b)), None, None, probe)


def _exact(rng: random.Random, n: int) -> list[Item]:
    """Exact int/Fraction inputs for library ``solve``, plus ``denest`` calls.

    Why: the only workload that reaches ``denest`` and large exact inputs.
    Timed mix, magnitudes from 10^0 up to coefficients of 10^300: three
    distinct rational roots of one magnitude (three real roots), double
    rational roots (the equal case), a rational root times an irreducible
    quadratic, exact p = 0 and q = 0 cubics, small random integer cubics;
    a fifth of the ops denest radicals, two thirds of them with a known
    rational value. The shares (34/13/13/10/10/20%) are chosen for
    coverage: each family gets at least a hundred ops per stream. The
    q = 0 roots are small integers times powers of ten, because
    ExactValue.sqrt_of trial-divides up to 10^6.

    Probes, checked once per run but not timed because they raise in the
    solver as it stands and a failing op has no meaningful time: random
    integer cubics of size 1e9 and rational roots spread over many decades
    (ValueError in compute_rs), exact coefficients beyond the double range
    up to 10^600 (OverflowError), and radicals whose rational-root search
    hits its cap.
    """
    n_three, n_equal, n_quad, n_degen, n_random, n_denest = _counts(n, [0.34, 0.13, 0.13, 0.1, 0.1, 0.2])
    items = []
    for d in _lhs(rng, n_three, 0, 100):
        den = rng.choice((1, 1, rng.randint(2, 10 ** max(1, int(d / 4)))))
        r = set()
        while len(r) < 3:
            r.add(Fraction(_sign(rng) * int(10 ** (d + rng.uniform(-1, 0))), den))
        r = tuple(sorted(r))
        items.append(_exact_item(*_from_roots(*r), roots=r))
    for d0, d1 in zip(_lhs(rng, n_equal, 0, 100), _lhs(rng, n_equal, 0, 100)):
        r, s = _big_rat(rng, d0), _big_rat(rng, d1)
        if s == r:
            s = r + 1
        items.append(_exact_item(*_from_roots(r, r, s), roots=tuple(sorted((r, r, s)))))
    for d0, d1 in zip(_lhs(rng, n_quad, 0, 100), _lhs(rng, n_quad, 0, 100)):
        r = _big_rat(rng, d0)
        z = complex(_sign(rng) * 10**d1 * rng.uniform(0.1, 1), 10**d1 * rng.uniform(0.1, 1))
        beta = Fraction(round(-2 * z.real))
        gamma = beta * beta + Fraction(round(z.imag * z.imag)) + 1  # beta^2 < 4 gamma
        a, b, c = beta - r, gamma - r * beta, -r * gamma
        w = cmath.sqrt(float(beta) ** 2 - 4 * float(gamma))
        approx = (complex(float(r)), (-float(beta) + w) / 2, (-float(beta) - w) / 2)
        items.append(_exact_item(a, b, c, approx=approx))
    for i, d in enumerate(_lhs(rng, n_degen, 0, 100)):
        if i % 2 == 0:  # x^3 - j^3: p = 0, one rational root j
            j = _big_rat(rng, d / 3)
            items.append(_exact_item(0, 0, -(j**3), approx=_cbrt_all(complex(float(j) ** 3))))
        else:  # x^3 - j^2 x: q = 0, roots -j, 0, j
            j = Fraction(rng.randint(2, 999) * 10 ** int(d / 2))
            items.append(_exact_item(0, -(j * j), 0, roots=(-j, Fraction(0), j)))
    for d in _lhs(rng, n_random, 0, 6):
        a, b, c = (_sign(rng) * int(10 ** rng.uniform(0, d)) for _ in range(3))
        items.append(_exact_item(a, b, c))
    for i, size in enumerate(_lhs(rng, n_denest, 3, 8)):
        items.append(_radical_item(rng, size, known=i % 3 != 2))
    rng.shuffle(items)
    return items


def _exact_probes(rng: random.Random) -> list[Item]:
    probes = [_exact_item(-719919180, -205527342, 966976506, probe=True)]
    for _ in range(60):
        a, b, c = (rng.randint(-(10**9), 10**9) for _ in range(3))
        probes.append(_exact_item(a, b, c, probe=True))
    for d0, d1, d2 in zip(*(_lhs(rng, 40, 0, 100) for _ in range(3))):
        r = tuple(sorted({_big_rat(rng, d) for d in (d0, d1, d2)}))
        if len(r) == 3:
            probes.append(_exact_item(*_from_roots(*r), roots=r, probe=True))
    for k in (*range(103, 200, 7), 200):  # x^3 - 3t^2 x + 2t^3 = (x - t)^2 (x + 2t), t = 10^k
        t = Fraction(10**k)
        probes.append(_exact_item(0, -3 * t * t, 2 * t**3, roots=(-2 * t, t, t), probe=True))
    for size in (13.5, 14, 14.5):
        probes.append(_radical_item(rng, size, known=True, probe=True))
    return probes
