import math
import random

import pytest

from rscubic import (
    DepressedCubic,
    InvalidInputError,
    NestedRadical,
    RootTriple,
    CaseTag,
    brute_force_roots,
    cardano_solve,
    denest,
    match_root_sets,
    solve_depressed,
    verify_roots,
)

from paper_identities import decomposition_identity_residual, ratio_cube_residual, trig_identity_residuals

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


def log_uniform_pq(rng):
    p = (-1) ** rng.randrange(2) * 10 ** rng.uniform(-3, 3)
    q = (-1) ** rng.randrange(2) * 10 ** rng.uniform(-3, 3)
    return p, q


class TestVerifyRoots:
    def test_integer_case_is_exact(self):
        triple = RootTriple((complex(2), complex(2), complex(-4)), CaseTag.EQUAL)
        report = verify_roots(DepressedCubic(-12, 16), triple)
        assert report.residuals == (0.0, 0.0, 0.0)
        assert report.vieta_errors == (0.0, 0.0, 0.0)
        assert report.passed
        assert report._fields == ("residuals", "vieta_errors", "passed")

    def test_surd_case(self):
        roots = (complex(3), complex(-1.5, -SQRT3 / 2), complex(-1.5, SQRT3 / 2))
        report = verify_roots(DepressedCubic(-6, -9), RootTriple(roots, CaseTag.REAL_DISTINCT))
        assert max(report.residuals) <= 1e-14
        assert max(report.vieta_errors) <= 1e-14
        assert report.passed

    def test_trivial_case(self):
        triple = RootTriple((complex(0), complex(1), complex(-1)), CaseTag.DEGENERATE_Q0)
        report = verify_roots(DepressedCubic(-1, 0), triple)
        assert report.residuals == (0.0, 0.0, 0.0)
        assert report.vieta_errors == (0.0, 0.0, 0.0)

    def test_wrong_roots_fail(self):
        triple = RootTriple((complex(1), complex(2), complex(3)), CaseTag.REAL_DISTINCT)
        report = verify_roots(DepressedCubic(-6, -9), triple)
        assert not report.passed

    def test_bound_beyond_the_doubles(self):
        # max(1, |p|, |q|)^1.5 = 10^315 has no double; the bound is tested without forming it.
        d = DepressedCubic(0, 10**210)
        assert verify_roots(d, solve_depressed(d)).passed

    def test_every_solver_output_passes(self):
        rng = random.Random(89)
        for _ in range(500):
            p, q = log_uniform_pq(rng)
            d = DepressedCubic(p, q)
            assert verify_roots(d, solve_depressed(d)).passed
            assert verify_roots(d, cardano_solve(d)).passed


class TestTrigIdentities:
    def test_theta_zero_pins_the_product_sign(self):
        # c = {1, -1/2, -1/2}: sum 0, pair-sum -3/4, product +1/4, cube-sum 3/4
        res = trig_identity_residuals(0.0)
        assert max(res) <= 1e-15
        c = [math.cos(k * 2 * math.pi / 3) for k in range(3)]
        prod = c[0] * c[1] * c[2]
        assert prod == pytest.approx(0.25, abs=1e-15)

    def test_theta_half_pi(self):
        assert max(trig_identity_residuals(math.pi / 2)) <= 1e-15

    def test_theta_three_quarter_pi(self):
        res = trig_identity_residuals(3 * math.pi / 4)
        assert max(res) <= 1e-15
        c = [math.cos(math.pi / 4 + k * 2 * math.pi / 3) for k in range(3)]
        assert c[0] * c[1] * c[2] == pytest.approx(math.cos(3 * math.pi / 4) / 4, abs=1e-15)

    def test_bulk_random_thetas(self):
        rng = random.Random(97)
        for _ in range(10**4):
            theta = rng.uniform(-math.pi, math.pi)
            assert max(trig_identity_residuals(theta)) <= 1e-13


class TestDecompositionIdentity:
    def test_real_samples(self):
        rng = random.Random(101)
        for _ in range(2000):
            r = rng.uniform(-10, 10)
            s = rng.uniform(-10, 10)
            if abs(r - s) < 1e-6:
                continue
            x = rng.uniform(-10, 10)
            scale = max(1.0, abs(r), abs(s), abs(x)) ** 3
            assert decomposition_identity_residual(r, s, x) <= 1e-10 * scale

    def test_complex_samples(self):
        rng = random.Random(103)
        for _ in range(2000):
            r = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            s = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            if abs(r - s) < 1e-6:
                continue
            x = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            scale = max(1.0, abs(r), abs(s), abs(x)) ** 3
            assert decomposition_identity_residual(r, s, x) <= 1e-10 * scale

    def test_ratio_cube_helper(self):
        assert ratio_cube_residual(-0.5, -4.0, 3.0) <= 1e-12


class TestBruteForce:
    def test_double_root_case(self):
        triple = brute_force_roots(DepressedCubic(-12, 16))
        expected = (complex(-4), complex(2), complex(2))
        assert match_root_sets(triple.roots, expected) <= 1e-10

    def test_real_root(self):
        triple = brute_force_roots(DepressedCubic(-6, -9))
        assert any(abs(x - 3) <= 1e-12 for x in triple.roots)

    def test_three_real_surds(self):
        triple = brute_force_roots(DepressedCubic(-48.0, -64.0 * SQRT2))
        sqrt6 = math.sqrt(6.0)
        expected = tuple(
            complex(v) for v in sorted([-4 * SQRT2, 2 * SQRT2 - 2 * sqrt6, 2 * SQRT2 + 2 * sqrt6])
        )
        assert match_root_sets(triple.roots, expected) <= 1e-9

    def test_triple_zero(self):
        triple = brute_force_roots(DepressedCubic(0, 0))
        assert max(abs(x) for x in triple.roots) <= 1e-10

    @pytest.mark.parametrize(
        "d, x0",
        [(DepressedCubic(-1.0, -2e200), 5.848035476425732e66), (DepressedCubic(1e300, 1.0), -1e-300)],
        ids=["roots far below Cauchy's bound", "a root far below Fujiwara's bound"],
    )
    def test_far_bracket_still_reaches_the_real_root(self, d, x0):
        # The first cubic's roots sit far below Cauchy's radius 1 + max(|p|, |q|), about 2e200, from
        # which 200 halvings stop about 2.5e140 wide; the second's real root, -1e-300, is about 1,500
        # halvings below Fujiwara's 2e150.
        (real, low, high) = brute_force_roots(d).roots
        assert real == x0 and low == high.conjugate()
        assert high.real == -x0 / 2 and high.imag == pytest.approx(math.sqrt(3 * x0 * x0 / 4 + d.p))

    def test_no_newton_step_from_an_overflowed_value(self):
        # Beside the roots +-2.948e130, f(x) = (x^2 + p) x + q overflows at the bisection's last
        # bracket end, and a Newton step from inf would go to -inf and then nan.
        d = DepressedCubic(-8.691614186196356e260, -1.9204898750549179e-181)
        assert match_root_sets(brute_force_roots(d).roots, solve_depressed(d).roots) <= 1e-15 * 2.948154369465133e130

    def test_agrees_with_both_solvers(self):
        rng = random.Random(107)
        for _ in range(1000):
            p, q = log_uniform_pq(rng)
            d = DepressedCubic(p, q)
            oracle = brute_force_roots(d)
            scale = max(1.0, max(abs(x) for x in oracle.roots))
            assert match_root_sets(oracle.roots, solve_depressed(d).roots) <= 1e-8 * scale
            assert match_root_sets(oracle.roots, cardano_solve(d).roots) <= 1e-8 * scale

    def test_high_accuracy_on_simple_roots(self):
        rng = random.Random(109)
        for _ in range(200):
            p, q = log_uniform_pq(rng)
            d = DepressedCubic(p, q)
            triple = brute_force_roots(d)
            scale = max(1.0, abs(p), abs(q)) ** 1.5
            real_res = [abs(d(x)) for x in triple.roots if x.imag == 0]
            assert min(real_res) <= 1e-13 * scale


@pytest.mark.parametrize(
    "d",
    [
        DepressedCubic(10**400, 1),
        DepressedCubic(-3, 10**400),
        denest(NestedRadical(10**400, 10**799)).cubic,  # the mixed cubic: a float p, an exact q = -2 * 10^400
    ],
    ids=["p beyond the double range", "q beyond the double range", "mixed cubic"],
)
def test_p_or_q_without_a_double_is_refused_by_the_float_checks(d):
    # solve_depressed and cardano_solve solve these cubics on the scale of their
    # roots; the residual check and the oracle work on p and q as doubles.
    triple = solve_depressed(d)
    with pytest.raises(InvalidInputError, match="beyond the double range"):
        verify_roots(d, triple)
    with pytest.raises(InvalidInputError, match="beyond the double range"):
        brute_force_roots(d)
