"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
come; the assertions themselves carry the stated tolerances.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

import pytest

from rscubic import (
    CaseTag,
    DepressedCubic,
    GeneralCubic,
    NestedRadical,
    brute_force_roots,
    cardano_solve,
    compute_rs,
    denest,
    match_root_sets,
    solve,
    solve_depressed,
    solve_moebius,
)
from rscubic.numerics import cube_roots_all, principal_cube_root

from paper_identities import decomposition_identity_residual, discriminant, trig_identity_residuals, unified_roots

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
SQRT6 = math.sqrt(6.0)


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {name}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {name}")


def log_uniform_pq(rng):
    p = (-1) ** rng.randrange(2) * 10 ** rng.uniform(-3, 3)
    q = (-1) ** rng.randrange(2) * 10 ** rng.uniform(-3, 3)
    return p, q


def assert_multiset(roots, expected, tol):
    assert match_root_sets(roots, expected) <= tol


def test_criterion_1_regression_suite():
    with criterion(1, "regression suite, exact where rational, < 1 s"):
        start = time.perf_counter()

        triple = solve(GeneralCubic(0, -12, 16))
        assert triple.roots == (complex(-4), complex(2), complex(2))
        assert [e.rational for e in triple.exact if not e.surd_coef] == [-4, 2, 2]

        triple = solve(GeneralCubic(0, -6, -9))
        expected = (complex(3), complex(-1.5, -SQRT3 / 2), complex(-1.5, SQRT3 / 2))
        assert_multiset(triple.roots, expected, 1e-12)

        triple = solve(GeneralCubic(0, -48.0, -64.0 * SQRT2))
        expected = tuple(
            complex(v) for v in (-4 * SQRT2, 2 * SQRT2 + 2 * SQRT6, 2 * SQRT2 - 2 * SQRT6)
        )
        assert_multiset(triple.roots, expected, 1e-10)

        triple = solve(GeneralCubic(0, Fraction(-3, 4), Fraction(1, 8)))
        expected = tuple(complex(math.cos(k * math.pi / 9)) for k in (8, 2, 4))
        assert_multiset(triple.roots, expected, 1e-12)

        triple = solve(GeneralCubic(0, Fraction(-3, 4), SQRT3 / 8))
        expected = tuple(complex(math.sin(k * math.pi / 9)) for k in (14, 2, 8))
        assert_multiset(triple.roots, expected, 1e-12)

        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"regression suite took {elapsed:.3f} s"


def test_criterion_2_property_suite():
    with criterion(2, "10^4 random (p,q): residuals, Vieta, cross-method, case tags, < 30 s"):
        start = time.perf_counter()
        rng = random.Random(20240607)
        for _ in range(10**4):
            p, q = log_uniform_pq(rng)
            d = DepressedCubic(p, q)
            scale = max(1.0, abs(p), abs(q)) ** 1.5

            pair = compute_rs(d)
            triples = {
                "rs": solve_depressed(d),
                "cardano": cardano_solve(d),
                "moebius": solve_moebius(pair.r, pair.s),
                "brute": brute_force_roots(d),
            }

            # (a) residuals for every root of every method
            for name, t in triples.items():
                for x in t.roots:
                    assert abs(d(x)) <= 1e-10 * scale, (name, p, q)

            # (b) Vieta errors on each closed-form method
            for name in ("rs", "cardano", "moebius"):
                x0, x1, x2 = triples[name].roots
                assert abs(x0 + x1 + x2) <= 1e-10 * scale, (name, p, q)
                assert abs(x0 * x1 + x0 * x2 + x1 * x2 - p) <= 1e-10 * scale, (name, p, q)
                assert abs(x0 * x1 * x2 + q) <= 1e-10 * scale, (name, p, q)

            # (c) pairwise optimal matching
            for a, b in combinations(triples.values(), 2):
                assert match_root_sets(a.roots, b.roots) <= 1e-8, (p, q)

            # (d) case tag vs discriminant sign and real/complex structure
            delta = 4 * p**3 + 27 * q**2
            t = triples["rs"]
            n_real = sum(1 for x in t.roots if x.imag == 0)
            if t.case is CaseTag.REAL_DISTINCT:
                assert delta > 0 and n_real == 1
            elif t.case is CaseTag.CONJUGATE_PAIR:
                assert delta < 0 and n_real == 3
            elif t.case is CaseTag.EQUAL:
                assert n_real == 3 and len(set(t.roots)) < 3

        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"property suite took {elapsed:.1f} s"


def test_criterion_3_identity_suites():
    with criterion(3, "decomposition identity and corrected trig identities on 10^4 samples"):
        rng = random.Random(20240611)
        for _ in range(10**4):
            r = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            s = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            if abs(r - s) < 1e-9:
                continue
            x = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            scale = max(1.0, abs(r), abs(s), abs(x)) ** 3
            assert decomposition_identity_residual(r, s, x) <= 1e-10 * scale

        for _ in range(10**4):
            theta = rng.uniform(-math.pi, math.pi)
            assert max(trig_identity_residuals(theta)) <= 1e-13


def test_criterion_4_branch_and_symmetry_suite():
    with criterion(4, "branch invariance, r<->s swap, scaling covariance (10^3 samples)"):
        rng = random.Random(20240613)
        for _ in range(10**3):
            p, q = log_uniform_pq(rng)
            d = DepressedCubic(p, q)
            reference = solve_depressed(d)
            scale = max(1.0, max(abs(x) for x in reference.roots))

            pair = compute_rs(d)
            for u in cube_roots_all(pair.r):
                for v in cube_roots_all(pair.s):
                    assert match_root_sets(unified_roots(u, v), reference.roots) <= 1e-10 * scale
            u, v = principal_cube_root(pair.r), principal_cube_root(pair.s)
            assert match_root_sets(unified_roots(u, v), unified_roots(v, u)) <= 1e-10 * scale

            lam = 10 ** rng.uniform(-2, 2)
            scaled = solve_depressed(DepressedCubic(p * lam**2, q * lam**3))
            expected = tuple(lam * x for x in reference.roots)
            lam_scale = max(1.0, max(abs(x) for x in expected))
            assert match_root_sets(scaled.roots, expected) <= 1e-10 * lam_scale


def test_criterion_5_denesting():
    with criterion(5, "denesting: exact 3, exact 1, no-exact value, and round trips"):
        result = denest(NestedRadical(Fraction(9, 2), Fraction(49, 4)))
        assert result.exact == Fraction(3)

        result = denest(NestedRadical(2, 5))
        assert result.exact == Fraction(1)

        result = denest(NestedRadical(1, 2))
        assert result.exact is None
        direct = (1 + SQRT2) ** (1 / 3) - (SQRT2 - 1) ** (1 / 3)
        assert abs(result.value - direct) <= 1e-12

        rng = random.Random(20240617)
        for _ in range(10**3):
            a = Fraction(rng.randrange(-400, 401), rng.randrange(1, 20))
            b = Fraction(rng.randrange(0, 160000), rng.randrange(1, 20))
            r = denest(NestedRadical(a, b))
            scale = max(1.0, abs(float(r.cubic.p)), abs(float(r.cubic.q)))
            assert abs(r.cubic(r.value)) <= 1e-9 * scale, (a, b)


def test_criterion_6_errata_detection():
    with criterion(6, "errata pins: cosine-product sign +1/4 and Cardano term 49/4"):
        # Product of the three cosines at theta=0 is +cos(0)/4 = +1/4 (the
        # minus-sign variant is off by half a unit and must stay falsified).
        c = [math.cos(k * 2 * math.pi / 3) for k in range(3)]
        prod = c[0] * c[1] * c[2]
        assert abs(prod - 0.25) <= 1e-15
        assert abs(prod + 0.25) > 0.4
        assert max(trig_identity_residuals(0.0)) <= 1e-15

        # Cardano on x^3 - 6x - 9: (q/2)^2 + (p/3)^3 = (4p^3 + 27q^2)/108 = 49/4, not
        # 113/4, so A, B = 9/2 +- 7/2 = 8, 1 and the real root is cbrt(8) + cbrt(1) = 3.
        d = DepressedCubic(-6, -9)
        assert discriminant(d) / 108 == Fraction(49, 4)
        assert discriminant(d) / 108 != Fraction(113, 4)
        assert cardano_solve(d).roots[0] == 3.0


def test_criterion_7_simplification_gap_is_operationalized():
    with criterion(7, "exact denesting where Cardano's raw output stays nested"):
        # The Cardano real root of x^3 - 6x - 9 is cbrt(9/2 + 7/2) + cbrt(9/2 - 7/2)
        # in nested-radical form; the denesting pipeline returns plain 3.
        result = denest(NestedRadical(Fraction(9, 2), Fraction(49, 4)))
        assert result.exact == Fraction(3)
        assert result.cubic.p == -6 and result.cubic.q == -9
        print(
            "note: the simplification-avoidance claim is qualitative; "
            "criterion 5's exact outputs operationalize it (no number to reproduce)"
        )
