"""Scores outputs against the references, in the manner of Kahan (1986) and
Flocke (ACM TOMS 954, 2015): each root by its forward error.

An op fails when it raised, never emitted its line, or emitted a
non-finite value. A completed op is wrong when

* a root whose relative gap to the other roots is at least 1e-3 is more
  than 1e-6 relative away from its matched reference root (a root that is
  zero against the others, below 1e-30 of the largest, is measured
  against the largest instead);
* an exact value is not the matched root: not a root of the exact cubic,
  or a rational other than the known value of a radical;
* the case tag of an exact input disagrees with the exact discriminant.

With ``--method both`` the Cardano roots are judged by the same forward
error rule. Digits of a judged root are ``min(17, -log10(relative
error))``, floored at 0. ``--verify`` checks only the r,s answer, so it is
counted as passing a wrong answer when it reports PASS and the r,s roots,
exact values or case tag are wrong.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath

REL_TOL = 1e-6
SEPARATION = 1e-3
ZERO_ROOT = mpmath.mpf("1e-30")
MAX_DIGITS = 17.0
EXACT_TOL = mpmath.mpf("1e-25")  # an exact value must match its reference root to this relative distance

_SURD = re.compile(r"^(?:(?P<r>-?\d+(?:/\d+)?) (?P<op>[+-]) )?(?P<neg>-)?(?:(?P<k>\d+(?:/\d+)?)\*)?sqrt\((?P<m>\d+)\)$")


@dataclass
class Score:
    failed: bool = False
    wrong_root: bool = False
    wrong_cardano: bool = False
    wrong_exact: bool = False
    wrong_case: bool = False
    verify_pass: bool = False
    digits: list = field(default_factory=list)

    @property
    def wrong_rs(self) -> bool:
        """The r,s answer (roots, exact values, case tag) is wrong."""
        return not self.failed and (self.wrong_root or self.wrong_exact or self.wrong_case)

    @property
    def wrong(self) -> bool:
        return self.wrong_rs or (not self.failed and self.wrong_cardano)


def _digits(err) -> float:
    if err == 0:
        return MAX_DIGITS
    return max(0.0, min(MAX_DIGITS, -float(mpmath.log10(err))))


def _parse_exact(text: str) -> tuple[Fraction, Fraction, int]:
    """ExactValue's text form ('3/4', '-sqrt(2)', '1/2 - 3*sqrt(5)') as (u, v, m) = u + v*sqrt(m)."""
    m = _SURD.match(text)
    if m is None:
        return Fraction(text), Fraction(0), 1
    u = Fraction(m["r"]) if m["r"] else Fraction(0)
    v = Fraction(m["k"]) if m["k"] else Fraction(1)
    if (m["op"] == "-") != bool(m["neg"]):
        v = -v
    return u, v, int(m["m"])


def _poly_at_surd(coeffs, u: Fraction, v: Fraction, m: int) -> tuple[Fraction, Fraction]:
    """lead x^3 + a x^2 + b x + c at x = u + v sqrt(m), as (rational, sqrt(m)) parts."""
    def mul(x, y):
        return x[0] * y[0] + x[1] * y[1] * m, x[0] * y[1] + x[1] * y[0]

    x = (u, v)
    acc = (coeffs[0], Fraction(0))
    for c in coeffs[1:]:
        acc = mul(acc, x)
        acc = (acc[0] + c, acc[1])
    return acc


def expected_case(coeffs) -> str:
    """Case tag from the exact depressed cubic of lead x^3 + a x^2 + b x + c."""
    lead, a, b, c = coeffs
    a, b, c = a / lead, b / lead, c / lead
    p = b - a * a / 3
    q = 2 * a**3 / 27 - a * b / 3 + c
    if p == 0:
        return "degenerate_p0"
    if q == 0:
        return "degenerate_q0"
    delta = 4 * p**3 + 27 * q**2
    if delta == 0:
        return "equal"
    return "real_distinct" if delta > 0 else "conjugate_pair"


def _finite(zs) -> bool:
    return all(math.isfinite(z["re"]) and math.isfinite(z["im"]) for z in zs)


def _judge_roots(out, refs, score: Score) -> tuple:
    """Forward error of one output root list: (any root wrong, matched reference per output index)."""
    xs = [mpmath.mpc(z["re"], z["im"]) for z in out]
    try:  # pair roots in doubles when the references fit, which is much faster
        fx, fr = [complex(x) for x in xs], [complex(r) for r in refs]
        order = min(itertools.permutations(range(3)), key=lambda o: sum(abs(x - fr[j]) for x, j in zip(fx, o)))
        perm = [refs[j] for j in order]
    except OverflowError:
        perm = min(itertools.permutations(refs), key=lambda rs: sum(abs(x - r) for x, r in zip(xs, rs)))
    big = max(abs(r) for r in refs)
    wrong = False
    for x, r in zip(xs, perm):
        den = abs(r) if abs(r) > ZERO_ROOT * big else big
        if den == 0:
            continue
        gap = min(abs(r - s) for s in refs if s is not r) / den
        if gap < SEPARATION:
            continue
        err = abs(x - r) / den
        score.digits.append(_digits(err))
        wrong = wrong or err > REL_TOL
    return wrong, perm


def _judge_exact(item, rec, matched, score: Score) -> None:
    coeffs = [q for q, _ in item.coeffs]
    for text, ref in zip(rec.get("exact") or (), matched):
        if text is None:
            continue
        u, v, m = _parse_exact(text)
        value = mpmath.mpf(u.numerator) / u.denominator + mpmath.mpf(v.numerator) / v.denominator * mpmath.sqrt(m)
        scale = max(abs(ref), mpmath.mpf(1e-300))
        if abs(value - ref) > EXACT_TOL * scale:
            score.wrong_exact = True
        elif item.exact and _poly_at_surd(coeffs, u, v, m) != (0, 0):
            score.wrong_exact = True


def score_cubic(item, refs, rec) -> Score:
    """Score one solve output (a CLI JSON record or the library's rendering)."""
    if rec is None or "error" in rec:
        return Score(failed=True)
    lists = [rec["roots"]] + ([rec["cardano_roots"]] if "cardano_roots" in rec else [])
    if not all(_finite(zs) for zs in lists):
        return Score(failed=True)
    score = Score()
    score.wrong_root, matched = _judge_roots(lists[0], refs, score)
    for zs in lists[1:]:
        score.wrong_cardano, _ = _judge_roots(zs, refs, score)
    _judge_exact(item, rec, matched, score)
    if item.exact and rec["case"] != expected_case([q for q, _ in item.coeffs]):
        score.wrong_case = True
    verification = rec.get("verification")
    score.verify_pass = bool(verification and verification["pass"] and score.wrong_rs)
    return score


def score_radical(item, ref, rec) -> Score:
    """Score one denest output against the radical's value."""
    if rec is None or "error" in rec or not math.isfinite(rec["value"]):
        return Score(failed=True)
    score = Score()
    err = abs(mpmath.mpf(rec["value"]) - ref) / (abs(ref) or 1)
    score.digits.append(_digits(err))
    score.wrong_root = err > REL_TOL
    if rec["exact"] is not None:
        value = Fraction(rec["exact"])
        if item.roots is not None:
            score.wrong_exact = value != item.roots[0]
        else:
            score.wrong_exact = abs(mpmath.mpf(value.numerator) / value.denominator - ref) > EXACT_TOL * abs(ref)
    return score


def score_all(items, refs, outputs) -> list[Score]:
    with mpmath.workdps(40):
        return [
            score_radical(it, ref, out) if it.kind == "denest" else score_cubic(it, ref, out)
            for it, ref, out in zip(items, refs, outputs)
        ]


def summarize(scores: list[Score]) -> dict[str, float]:
    """Accuracy figures over the checked ops (each op once)."""
    n = len(scores)
    failed = sum(s.failed for s in scores)
    wrong = sum(s.wrong for s in scores)
    digits = sorted(d for s in scores for d in s.digits)
    p01 = digits[max(0, math.ceil(0.01 * len(digits)) - 1)] if digits else 0.0
    return {
        "ok_frac": 1 - failed / n,
        "right_frac": 1 - wrong / n,
        "digits_mean": sum(digits) / len(digits) if digits else 0.0,
        "error_frac": failed / n,
        "wrong_frac": wrong / n,
        "digits_p01": p01,
        "verify.pass_on_wrong_frac": sum(s.verify_pass for s in scores) / n,
    }
