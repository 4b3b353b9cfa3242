"""Library results pinned bit for bit: solve and solve_depressed over every exit of the solve step.

tests/data/golden_library.txt holds one entry a line: the call, its input
and what it returned. Floats are written with repr, which round-trips, and
exact values as Fraction strings. A result records repr of the roots, the
case tag, the multiplicity and str of each exact value; a refused input
records its error. The entries cover every case tag on float and exact
input, the range scale (k != 0, and the anchors found at 2^-2 and 2^-3),
c = 0, closed pairs, float equal tags kept and not kept as a double root,
Newton steps refused by either guard, and seeded random cubics over wide
ranges. The CLI goldens are integer-heavy and in band; these pin the float
and out-of-band bits a refactor of the step could move.

Regenerate (only for a documented change of output) with
    PYTHONPATH=src python tests/test_golden_library.py
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from pathlib import Path

from rscubic import DepressedCubic, GeneralCubic, solve, solve_depressed

GOLDEN = Path(__file__).parent / "data" / "golden_library.txt"
F = Fraction


def _from_roots(x0, x1, x2):
    return (-(x0 + x1 + x2), x0 * x1 + x0 * x2 + x1 * x2, -(x0 * x1 * x2))


def _from_real_and_pair(x0, re, im):
    m = re * re + im * im
    return (-(x0 + 2 * re), 2 * re * x0 + m, -(x0 * m))


def _float(values):
    return tuple(float(v) for v in values)


# (label, call, coefficients): solve takes (a, b, c), solve_depressed (p, q).
NAMED = [
    ("equal, r > 0", "solve_depressed", (-3, 2)),  # (x - 1)^2 (x + 2)
    ("equal, r < 0", "solve_depressed", (-3, -2)),
    ("equal, float", "solve_depressed", (-3.0, 2.0)),
    ("equal, shifted", "solve", (-5, 7, -3)),  # (x - 1)^2 (x - 3)
    ("equal, shifted, r < 0", "solve", (1, F(-8, 3), F(-80, 27))),
    ("equal, float, kept as a double root", "solve", _from_roots(1.0, 1.0, -2.0)),
    ("equal, float, kept, r > t", "solve", _from_roots(1024.0, 1024.0, 1e6)),
    ("equal, float, small simple root", "solve", _from_roots(1.0, 1.0, 0.25)),
    ("float double root -1024 beside 1, tagged conjugate_pair", "solve", _from_roots(-1024.0, -1024.0, 1.0)),
    ("equal, float, not kept beside a large root", "solve", (37914431.98111624, 227.09623455672488, 0.0006828256916087546)),
    ("equal, out of band", "solve", (0, -3 * 10**400, 2 * 10**600)),
    ("real_distinct, rational pair", "solve_depressed", (-6, -9)),
    ("real_distinct", "solve", (1, 1, 1)),
    ("real_distinct, float", "solve", (1.0, 1.0, 1.0)),
    ("real_distinct, float depressed", "solve_depressed", (-6.0, -9.0)),
    ("real_distinct, float out of band", "solve_depressed", (1e300, 1e-10)),
    ("real_distinct, float out of band, large q", "solve_depressed", (0.25e200, -1.25e300)),
    ("real_distinct, float out of band, tiny", "solve_depressed", (0.25e-200, -1.25e-300)),
    ("real_distinct, float tiny", "solve_depressed", (1e-110, 1e-170)),
    ("real_distinct, exact out of band", "solve_depressed", (10**300, 10**10)),
    ("real_distinct, exact, anchor at 2^-3", "solve_depressed", (3, -(2**1020))),
    ("real_distinct, exact, anchor at 2^-3, solve", "solve", (0, 3 * 2**200, -(2**1021))),
    ("real_distinct, exact out of band, small", "solve_depressed", (F(1, 10**300), F(1, 10**400))),
    ("real_distinct, pair wins the lift", "solve", _from_real_and_pair(F(1, 10**6), 1000, 1000)),
    ("real_distinct, float, pair wins the lift", "solve", _float(_from_real_and_pair(1e-6, 1000.0, 1000.0))),
    ("conjugate_pair", "solve", (-7, 14, -8)),  # (x - 1)(x - 2)(x - 4)
    ("conjugate_pair, depressed", "solve_depressed", (-7, 6)),
    ("conjugate_pair, float", "solve", (-7.0, 14.0, -8.0)),
    ("conjugate_pair, float huge", "solve_depressed", (-3e120, 1e180)),
    ("conjugate_pair, float tiny", "solve_depressed", (-3e-120, 1e-181)),
    ("conjugate_pair, exact out of band", "solve", (0, -7 * 10**300, 6 * 10**450)),
    ("conjugate_pair, exact, amplitude at 2^-2", "solve_depressed", (
        int(1.7e308) * -int(1e307) - (int(1.7e308) - int(1e307)) ** 2, int(1.7e308) * -int(1e307) * (int(1.7e308) - int(1e307)))),
    ("conjugate_pair, float close roots", "solve", _from_roots(-8.07e-6, -4.24, 2.92e7)),
    ("conjugate_pair, product form", "solve", _from_roots(F(1, 10**9), 3, 7)),
    ("conjugate_pair, float product form", "solve", _float(_from_roots(1e-9, 3, 7))),
    ("conjugate_pair, exact closed", "solve", _from_roots(1, 2, 2 + F(1, 10**9))),
    ("conjugate_pair, exact cluster 1e100", "solve", _from_roots(10**100, 10**100 + 10**94, 10**100 + 3 * 10**94)),
    ("conjugate_pair, exact cluster 1e-200", "solve", _from_roots(F(1, 10**200), F(10**6 + 1, 10**206), F(10**6 + 3, 10**206))),
    ("real_distinct, exact closed pair", "solve", _from_real_and_pair(1, 2, F(1, 10**9))),
    ("real_distinct, exact closed pair 1e-5", "solve", _from_real_and_pair(1, 2, F(1, 10**5))),
    ("real_distinct, float near pair", "solve", _float(_from_real_and_pair(1, 2, 1e-9))),
    ("degenerate_p0, rational cube root", "solve_depressed", (0, -8)),
    ("degenerate_p0, no rational cube root", "solve_depressed", (0, F(-2, 5))),
    ("degenerate_p0, shifted", "solve", (3, 3, -7)),  # (x + 1)^3 - 8
    ("degenerate_p0, negligible p", "solve", (0, 1, 10**200)),
    ("degenerate_p0, float", "solve_depressed", (0.0, 2.0)),
    ("degenerate_p0, float shifted", "solve", (3.0, 3.0, -7.0)),
    ("degenerate_p0, exact out of band", "solve", (0, 0, -(10**600))),
    ("degenerate_p0, exact near the top", "solve_depressed", (0, 2**3071)),
    ("degenerate_p0, Newton refused beside a cluster", "solve", (51, 867, 4915)),  # (x + 17)^3 + 2
    ("degenerate_p0, float beside a cluster", "solve", (51.0, 867.0, 4915.0)),
    ("degenerate_p0, exact, small q", "solve", (-3, 3, -1 - F(1, 10**20))),
    ("degenerate_p0, float, small q", "solve", (-3.0, 3.0, -1e-20)),
    ("degenerate_q0, square -p", "solve_depressed", (-4, 0)),
    ("degenerate_q0, surd -p", "solve_depressed", (F(-2, 9), 0)),
    ("degenerate_q0, p > 0", "solve_depressed", (1, 0)),
    ("degenerate_q0, shifted p > 0", "solve", (1, F(4, 3), F(10, 27))),
    ("degenerate_q0, shifted square", "solve", (3, -1, -3)),
    ("degenerate_q0, shifted surd", "solve", (3, 1, -1)),
    ("degenerate_q0, shifted surd 8/3", "solve", (-8, F(43, 3), F(-8, 27))),
    ("degenerate_q0, float", "solve_depressed", (-4.0, 0.0)),
    ("degenerate_q0, float p > 0", "solve_depressed", (4.0, 0.0)),
    ("degenerate_q0, float shifted", "solve", (3.0, 1.0, -1.0)),
    ("degenerate_q0, exact out of band", "solve", (0, -(10**400), 0)),
    ("degenerate_q0, small root", "solve", (-3, 2 + 2 * F(1, 10**20) - F(1, 10**40), F(1, 10**40) - 2 * F(1, 10**20))),
    ("triple, exact", "solve", (-6, 12, -8)),
    ("triple, exact origin", "solve_depressed", (0, 0)),
    ("triple, float origin", "solve_depressed", (0.0, 0.0)),
    ("triple, float shifted", "solve", (-6.0, 12.0, -8.0)),
    ("c = 0, exact", "solve", (1, -2, 0)),
    ("c = 0, float", "solve", (1.0, -2.0, 0.0)),
    ("c = 0, exact pair", "solve", (-4, 5, 0)),
    ("c = 0, exact near double pair", "solve", (-4, 4 + F(1, 10**18), 0)),
    ("c = 0, exact out of band", "solve", (-3 * 10**200, 2 * 10**400, 0)),
    ("c = 0, exact out of band pair", "solve", (-2 * 10**200, 10**400 + 1, 0)),
    ("c = 0, float out of band", "solve", (-3e200, 2e300, 0.0)),
    ("wide, exact 1e200", "solve", _from_roots(1, -2, 10**200)),
    ("wide, exact 1e-200", "solve", _from_roots(3, F(1, 10**200), F(-5, 2 * 10**200))),
    ("wide, float real and huge pair", "solve", _float(_from_real_and_pair(-4.1e73, 1e98, 2.7e98))),
    ("float, k != 0 by delta", "solve", (3e200, 1.0, 1.0)),
    ("exact, k != 0 by delta", "solve", (3 * 10**200, 1, 1)),
    ("refused, r without a double", "solve_depressed", (-(2**1850), 2**2873)),
    ("refused, conjugate r without a modulus", "solve_depressed", (-1014 * 2**2040, 8788 * 2**3060)),
    ("refused, s without a double", "solve_depressed", (2**1850, 2**2873)),
    ("refused, p = 0, cube root without a double", "solve_depressed", (0, -(10**1000))),
    ("refused, p = 0, negative cube root without a double", "solve_depressed", (0, 10**1000 + 1)),
    ("refused, q = 0, square -p without a double", "solve_depressed", (-(10**700), 0)),
    ("refused, q = 0, surd -p without a double", "solve_depressed", (-2 * 10**700, 0)),
    ("refused, q = 0 < p without a double", "solve_depressed", (10**700, 0)),
    ("refused, q = 0 > p, shifted", "solve", (3, 3 - 10**700, 1 - 10**700)),  # (x + 1)^3 - 10^700 (x + 1)
    ("refused, triple root without a double", "solve", (-3 * 10**400, 3 * 10**800, -(10**1200))),
]


def _random_entries():
    """Seeded random cubics: planted roots over wide ranges (float and exact), and random p, q with
    binary exponents to +-1000, which include refusals."""
    rng = random.Random(37)
    entries = []

    def mag(lo, hi):
        return rng.choice((-1, 1)) * rng.uniform(1, 10) * 10.0 ** rng.randint(lo, hi)

    def rat(e):
        return rng.choice((-1, 1)) * F(rng.randint(1, 999), rng.randint(1, 999)) * F(10) ** rng.randint(-e, e)

    for i in range(60):
        e = rng.choice((8, 30, 150))
        if i % 3 == 2:
            x0, re_, im = mag(-e, e), mag(-e, e), abs(mag(-e, e))
            entries.append((f"random float pair {i}", "solve", _from_real_and_pair(x0, re_, im)))
        else:
            entries.append((f"random float roots {i}", "solve", _from_roots(mag(-e, e), mag(-e, e), mag(-e, e))))
    for i in range(60):
        e = rng.choice((6, 30, 100))
        if i % 3 == 2:
            x0, re_, im = rat(e), rat(e), abs(rat(e))
            entries.append((f"random exact pair {i}", "solve", _from_real_and_pair(x0, re_, im)))
        elif i % 3 == 1:
            r = rat(e)
            entries.append((f"random exact double {i}", "solve", _from_roots(r, r, rat(e))))
        else:
            entries.append((f"random exact roots {i}", "solve", _from_roots(rat(e), rat(e), rat(e))))
    for i in range(40):
        r, w = mag(-30, 30), mag(-30, 30) * 10.0 ** -rng.randint(0, 12)
        entries.append((f"random float cluster {i}", "solve", _from_roots(r - w, r, r + w)))
    for i in range(60):
        p = rng.choice((-1, 1)) * rng.uniform(1, 2) * 2.0 ** rng.randint(-1000, 1000)
        q = rng.choice((-1, 1)) * rng.uniform(1, 2) * 2.0 ** rng.randint(-1000, 1000)
        entries.append((f"random float p, q {i}", "solve_depressed", (p, q)))
    for i in range(40):
        p = rng.choice((-1, 0, 1, 1)) * rng.randint(1, 10**rng.randint(1, 600))
        q = rng.choice((-1, 1)) * F(rng.randint(1, 10**rng.randint(1, 900)), rng.randint(1, 10**rng.randint(0, 40)))
        entries.append((f"random exact p, q {i}", "solve_depressed", (p, q)))
    for i in range(40):
        a, b, c = (rng.choice((-1, 1)) * rng.uniform(0, 1) * 10.0 ** rng.randint(-12, 12) for _ in range(3))
        entries.append((f"random float a, b, c {i}", "solve", (a, b, c)))
    return entries


def _text(value) -> str:
    return repr(value) if type(value) is float else str(F(value))


def _value(token: str):
    return F(token) if re.fullmatch(r"-?\d+(/\d+)?", token) else float(token)


def _result(call: str, values) -> str:
    try:
        triple = solve(GeneralCubic(*values)) if call == "solve" else solve_depressed(DepressedCubic(*values))
    except (ValueError, ArithmeticError) as exc:  # a refusal is pinned as its type and message
        return f"raises {type(exc).__name__}: {exc}"
    exact = None if triple.exact is None else [None if e is None else str(e) for e in triple.exact]
    return f"roots={triple.roots!r} case={triple.case.value} multiplicity={triple.multiplicity!r} exact={exact!r}"


def _line(label: str, call: str, values) -> str:
    return f"{label} | {call} {' '.join(_text(v) for v in values)} | {_result(call, values)}"


def _golden_entries():
    for line in GOLDEN.read_text(encoding="utf-8").splitlines():
        label, call_input, result = line.split(" | ")
        call, *tokens = call_input.split(" ")
        yield label, call, tuple(_value(t) for t in tokens), result


def test_the_golden_inputs_are_the_named_and_random_cubics():
    # The file's inputs are the entries this module lists, written as they round-trip.
    listed = [(label, call, " ".join(_text(v) for v in values)) for label, call, values in NAMED + _random_entries()]
    read = [(label, call, " ".join(_text(v) for v in values)) for label, call, values, _ in _golden_entries()]
    assert read == listed


def test_every_library_result_is_golden():
    differing = [f"{label}: {result!r} != {_result(call, values)!r}"
                 for label, call, values, result in _golden_entries() if _result(call, values) != result]
    assert differing == []


if __name__ == "__main__":
    GOLDEN.write_text("".join(_line(*entry) + "\n" for entry in NAMED + _random_entries()), encoding="utf-8")
