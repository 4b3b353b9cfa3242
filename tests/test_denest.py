import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rscubic import DepressedCubic, InvalidInputError, NestedRadical, denest, solve_depressed
from rscubic.chen import fraction_cbrt
from rscubic.denest import radical_to_cubic
from rscubic.numerics import _root

# Frozen by independent evaluation: (1+sqrt(2))**(1/3) - (sqrt(2)-1)**(1/3)
VALUE_1_2 = 0.5960716379833214


class TestRadicalToCubic:
    def test_half_integers(self):
        # a^2 - b = 81/4 - 49/4 = 8, real cube root 2
        cubic = radical_to_cubic(NestedRadical(Fraction(9, 2), Fraction(49, 4)))
        assert cubic.p == Fraction(-6) and cubic.q == Fraction(-9)

    def test_origin(self):
        cubic = radical_to_cubic(NestedRadical(0, 0))
        assert cubic.p == 0 and cubic.q == 0

    def test_unit(self):
        # cbrt(1) + cbrt(1) = 2 solves x^3 - 3x - 2
        cubic = radical_to_cubic(NestedRadical(1, 0))
        assert cubic.p == Fraction(-3) and cubic.q == Fraction(-2)
        assert cubic(Fraction(2)) == 0

    def test_negative_difference_uses_real_cube_root(self):
        # a^2 - b = -1: principal complex root would break the reconstruction
        cubic = radical_to_cubic(NestedRadical(2, 5))
        assert cubic.p == Fraction(3) and cubic.q == Fraction(-4)

    def test_disc_reconstruction_exact(self):
        radical = NestedRadical(Fraction(9, 2), Fraction(49, 4))
        cubic = radical_to_cubic(radical)
        assert (Fraction(cubic.q) / 2) ** 2 + (Fraction(cubic.p) / 3) ** 3 == radical.b
        assert -Fraction(cubic.q) == 2 * radical.a

    def test_disc_reconstruction_float(self):
        radical = NestedRadical(1.25, 0.7)
        cubic = radical_to_cubic(radical)
        got = (cubic.q / 2) ** 2 + (cubic.p / 3) ** 3
        assert got == pytest.approx(0.7, rel=1e-12)

    def test_negative_b_rejected(self):
        with pytest.raises(InvalidInputError):
            NestedRadical(1, -2)


class TestDenest:
    def test_classic_three(self):
        result = denest(NestedRadical(Fraction(9, 2), Fraction(49, 4)))
        assert result.value == pytest.approx(3.0, abs=1e-12)
        assert result.exact == Fraction(3)

    def test_golden_style_one(self):
        result = denest(NestedRadical(2, 5))
        assert result.value == pytest.approx(1.0, abs=1e-12)
        assert result.exact == Fraction(1)

    def test_no_rational_root(self):
        result = denest(NestedRadical(1, 2))
        assert result.exact is None
        assert result.note is None  # search completed, nothing found
        assert result.value == pytest.approx(VALUE_1_2, abs=1e-12)

    def test_zero_a(self):
        result = denest(NestedRadical(0, 7))
        assert result.value == pytest.approx(0.0, abs=1e-12)
        assert result.exact == 0

    def test_b_equals_a_squared(self):
        # a^2 - b = 0 collapses p; value = cbrt(2a)
        result = denest(NestedRadical(3, 9))
        assert result.cubic.p == 0
        assert result.value == pytest.approx(_root(6.0, 3), abs=1e-14)

    def test_exact_root_substitutes_to_zero(self):
        result = denest(NestedRadical(2, 5))
        rho = result.exact
        assert rho**3 + Fraction(result.cubic.p) * rho + Fraction(result.cubic.q) == 0

    def test_float_inputs_skip_search(self):
        result = denest(NestedRadical(2.0, 5.5))
        assert result.exact is None

    def test_search_exhausted_note(self):
        # q = -2a with a huge prime numerator: a divisor enumeration would give
        # up; the window search completes, and no integer near the value is a root.
        a = Fraction(2**89 - 1)  # Mersenne prime
        result = denest(NestedRadical(a, a * a - 1))
        assert result.exact is None
        assert result.note is None

    def test_root_with_huge_prime_denominator(self):
        # x = 7/D, D = 10^20 + 39 prime, from x^3 + 3x = 2a (a^2 - b = -1):
        # the denominator D^3 of q has no divisor below 10^6 but 1.
        x = Fraction(7, 10**20 + 39)
        a = (x**3 + 3 * x) / 2
        result = denest(NestedRadical(a, a * a + 1))
        assert result.exact == x
        assert result.note is None

    @pytest.mark.parametrize("decade", [6, 9, 12])
    def test_large_integer_values(self, decade):
        # One rounding of a value above 10^6 exceeds 1e-9, so the root is matched relatively.
        rng = random.Random(decade)
        for _ in range(20):
            x = Fraction(rng.randrange(10**decade, 10 ** (decade + 1)))
            a = (x**3 + 3 * x) / 2
            assert denest(NestedRadical(a, a * a + 1)).exact == x

    def test_b_beyond_double_range(self):
        # b = a^2 + 1 is about 2.5e599, yet the value is 10^100.
        x = Fraction(10**100)
        a = (x**3 + 3 * x) / 2
        result = denest(NestedRadical(a, a * a + 1))
        assert abs(result.value - 1e100) <= 1e-13 * 1e100

    def test_a_beyond_double_range(self):
        # a = 10^600 has no double; the value, about 1.26e200, has one.
        mpmath = pytest.importorskip("mpmath")
        a, b = 10**600, 10**1200 - 1
        with mpmath.workdps(60):
            want = mpmath.cbrt(a + mpmath.sqrt(b)) + mpmath.cbrt(a - mpmath.sqrt(b))
            assert abs(denest(NestedRadical(a, b)).value - want) <= 1e-15 * want

    def test_a_beyond_double_range_without_a_rational_cube(self):
        # a^2 - b = 2 makes p a float; q = -2a has no double, so it stays exact.
        result = denest(NestedRadical(10**600, 10**1200 - 2))
        assert result.value == pytest.approx(2 ** (1 / 3) * 1e200, rel=1e-14)
        assert result.cubic.q == -2 * 10**600 and not result.cubic.exact
        assert solve_depressed(result.cubic).roots[0] == pytest.approx(result.value, rel=1e-14)


    def test_tiny_a_with_b_zero(self):
        # b = 0 has no exponent: the scale is a's, so a = 10^-400 does not round to 0.0.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            want = 2 * mpmath.cbrt(mpmath.mpf(10) ** -400)
            assert abs(denest(NestedRadical(Fraction(1, 10**400), 0)).value - want) <= 1e-15 * want

    @pytest.mark.parametrize(
        "c",
        [Fraction(1, 3**25), Fraction(1, 7**12), Fraction(-1, 3**25), Fraction(1, 3**672), Fraction(1, 3**680)],
        ids=["3^-25", "7^-12", "-3^-25", "3^-672 subnormal", "3^-680 underflows"],
    )
    def test_tiny_cube_with_b_zero(self, c):
        # cbrt(c^3) + cbrt(c^3) = 2c is the simple root of (x - 2c)(x + c)^2. The double root -c
        # is within 1e-9 of 2c and shares its denominator: an absolute window returned it. A
        # subnormal value is off by up to half of 2^-1074, beyond a relative window; at c = 3^-680
        # it rounds to 0.0 and -c is as near: the search keeps to a's side of 0.
        result = denest(NestedRadical(c**3, 0))
        assert result.exact == 2 * c
        assert result.value == pytest.approx(float(2 * c), rel=1e-15)

    @pytest.mark.parametrize(
        "a, t", [(10**500, 10**1000), (10**462, 343 * 10**921 + 1)], ids=["cube root overflows", "-3 cbrt overflows"]
    )
    def test_p_without_a_double_is_refused(self, a, t):
        # a^2 - b = t is no rational cube, and p = -3 cbrt(t), about -3e333 or -2.1e308, has no
        # double: the first raised a bare OverflowError, the second named a -inf coefficient.
        with pytest.raises(InvalidInputError, match=r"^p = -3 cbrt\(a\^2 - b\) has no double$"):
            denest(NestedRadical(a, a * a - t))

    @pytest.mark.parametrize("a, want", [(1e-200, 4.3088693800637675e-67), (1e200, 9.283177667225558e66)])
    def test_float_a_whose_square_has_no_double(self, a, want):
        # a^2 under- or overflows in doubles: formed unscaled, p was -0.0 (value 2.154e-67,
        # half the true one) or -inf (value inf). a^2 - b is formed on the radical's scale.
        mpmath = pytest.importorskip("mpmath")
        result = denest(NestedRadical(a, 0.0))
        assert result.value == pytest.approx(want, rel=1e-15)
        with mpmath.workdps(30):
            assert abs(result.cubic.p + 3 * mpmath.cbrt(mpmath.mpf(a)) ** 2) <= 1e-15 * abs(result.cubic.p)
        assert abs(result.cubic(result.value)) <= 1e-15 * abs(result.cubic.q)

    def test_float_a_whose_double_has_no_double(self):
        # q = -2a is beyond the double range, so it stays exact, as for an exact a.
        mpmath = pytest.importorskip("mpmath")
        result = denest(NestedRadical(1.7e308, 0.0))
        assert result.cubic.q == -2 * Fraction(1.7e308) and math.isfinite(result.cubic.p)
        with mpmath.workdps(30):
            assert abs(result.value - 2 * mpmath.cbrt(mpmath.mpf(1.7e308))) <= 1e-15 * result.value
        assert max(z.real for z in solve_depressed(result.cubic).roots) == pytest.approx(result.value, rel=1e-14)


def _real_cbrt(mpmath, x):
    return mpmath.sign(x) * mpmath.cbrt(abs(x))


@st.composite
def float_radicals(draw):
    """A float a = +-m 2^e, 1 <= m < 2, e from -1000 to 1000, with b = 0; or, where
    b = m^2 (1 + t) 4^e has a double, b near a^2 (2^-16 <= |t| <= 2^-4) or b
    random below it (t from -1 to -2^-4). Nearer a^2, a^2 - b cancels in doubles."""
    m = draw(st.floats(1.0, 2.0, exclude_max=True))
    sign = draw(st.sampled_from([1.0, -1.0]))
    kind = draw(st.sampled_from(["zero", "near", "random"]))
    e = draw(st.integers(-1000, 1000) if kind == "zero" else st.integers(-500, 510))
    a = sign * math.ldexp(m, e)
    if kind == "zero":
        return a, 0.0
    if kind == "near":
        t = draw(st.floats(2.0**-16, 2.0**-4)) * draw(st.sampled_from([1.0, -1.0]))
    else:
        t = draw(st.floats(-1.0, -(2.0**-4)))
    return a, math.ldexp(m * m * (1.0 + t), 2 * e)


@settings(max_examples=300, deadline=None)
@given(float_radicals())
@example((1e-200, 0.0))
@example((-1e200, 0.0))
@example((1e150, 1e300 * (1 - 2.0**-16)))
def test_float_radical_across_the_double_range(radical):
    # The value against mpmath, and the cubic: a finite p, with the value as its root.
    mpmath = pytest.importorskip("mpmath")
    a, b = radical
    result = denest(NestedRadical(a, b))
    with mpmath.workdps(60):
        w = mpmath.sqrt(mpmath.mpf(b))
        want = _real_cbrt(mpmath, a + w) + _real_cbrt(mpmath, a - w)
        assert abs(result.value - want) <= 1e-12 * abs(want)
    p, q = result.cubic
    assert math.isfinite(p) and q == -2 * a
    x, p, q = Fraction(result.value), Fraction(p), Fraction(q)
    assert abs((x * x + p) * x + q) <= 1e-12 * (abs(x) ** 3 + abs(p * x) + abs(q))


def _mp(mpmath, x):
    return mpmath.mpf(x) if isinstance(x, float) else mpmath.mpf(x.numerator) / x.denominator


# 1/7 solves x^3 + 3 10^12 x - 2a, so (A_SEVENTH, A_SEVENTH^2 + 10^36) denests to 1/7.
A_SEVENTH = (Fraction(1, 343) + 3 * Fraction(10**12, 7)) / 2


@st.composite
def radicals_far_above_a_squared(draw):
    """(a, b, x): an exact b = a^2 + 10^k or a float b = a^2 10^k, k <= 60. For an
    exact b with k = 3j, a = (x^3 + 3 m x) / 2 (m = 10^j) makes the rational x the
    value, since x^3 + 3mx - 2a = 0; otherwise x is None."""
    if draw(st.booleans()):
        a = math.ldexp(draw(st.floats(1.0, 2.0, exclude_max=True)), draw(st.integers(-300, 300)))
        a *= draw(st.sampled_from([1.0, -1.0]))
        return a, a * a * 10.0 ** draw(st.integers(2, 60)), None
    k = draw(st.integers(0, 60))
    x = draw(st.fractions(min_value=-1000, max_value=1000, max_denominator=1000).filter(bool))
    if k % 3:
        return x, x * x + 10**k, None
    m = 10 ** (k // 3)
    a = (x**3 + 3 * m * x) / 2
    return a, a * a + m**3, x


@settings(max_examples=300, deadline=None)
@given(radicals_far_above_a_squared())
@example((A_SEVENTH, A_SEVENTH**2 + 10**36, Fraction(1, 7)))
@example((Fraction(1), Fraction(10**30), None))
def test_b_far_above_a_squared(radical):
    # u = cbrt(a + sign(a) sqrt(b)) and v = -p/(3u) nearly cancel here; the value is well
    # conditioned all the same, and an exact cubic's rational value is found. u + v gave
    # 0.1428571413271129 (no exact root) for the first example and 5.82e-11 for the second.
    mpmath = pytest.importorskip("mpmath")
    a, b, x = radical
    result = denest(NestedRadical(a, b))
    with mpmath.workdps(80):
        w = mpmath.sqrt(_mp(mpmath, b))
        want = _real_cbrt(mpmath, _mp(mpmath, a) + w) + _real_cbrt(mpmath, _mp(mpmath, a) - w)
        assert abs(result.value - want) <= 1e-12 * abs(want)
    if x is not None:
        assert result.exact == x


def _divisors(n: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def _reference_root(p: Fraction, q: Fraction, target: float):
    """Brute-force rational-root search: every (numerator, denominator) pair the
    rational root theorem allows; the first exact root within 1e-9 of target,
    relative, wins (a radical's cubic has at most one)."""
    if q == 0:
        return Fraction(0) if target == 0 else None
    lead = math.lcm(p.denominator, q.denominator)
    nums = _divisors(abs(q.numerator) * (lead // q.denominator))
    for den in _divisors(lead):
        for num in nums:
            for cand in (Fraction(num, den), Fraction(-num, den)):
                if cand**3 + p * cand + q == 0 and abs(float(cand) - target) <= 1e-9 * abs(target):
                    return cand
    return None


@st.composite
def exact_radicals(draw):
    """(a, b) with a^2 - b = m^3 for a rational m, so the cubic x^3 - 3mx - 2a is
    exact; with no offset, 2a = x^3 - 3mx puts the rational x among its roots."""
    x = draw(st.fractions(min_value=-6, max_value=6, max_denominator=4))
    m = draw(st.fractions(min_value=-4, max_value=4, max_denominator=3))
    a = (x**3 - 3 * m * x) / 2 + draw(st.sampled_from([0, 0, Fraction(1, 2), 1]))
    assume(a * a >= m**3)
    return a, a * a - m**3


@settings(max_examples=300, deadline=None)
@given(exact_radicals())
@example((Fraction(9, 2), Fraction(49, 4)))
@example((Fraction(2), Fraction(5)))
@example((Fraction(1), Fraction(2)))
@example((Fraction(0), Fraction(7)))
@example((Fraction(3), Fraction(9)))
@example((Fraction(-7), Fraction(50)))
def test_matches_divisor_reference(radical):
    a, b = radical
    result = denest(NestedRadical(a, b))
    assert result.note is None
    if result.cubic.exact:
        p, q = Fraction(result.cubic.p), Fraction(result.cubic.q)
        assert result.exact == _reference_root(p, q, result.value)


@settings(max_examples=200, deadline=None)
@given(
    st.fractions(min_value=-20, max_value=20),
    st.fractions(min_value=0, max_value=400),
)
@example(Fraction(20), Fraction(19070011233469367, 47675028083944))  # b ~ a^2: cbrt(a - sqrt(b)) cancelled
def test_roundtrip_residual(a, b):
    radical = NestedRadical(a, b)
    result = denest(radical)
    cubic = result.cubic
    scale = max(1.0, abs(float(cubic.p)), abs(float(cubic.q)))
    assert abs(cubic(result.value)) <= 1e-9 * scale


@settings(max_examples=100, deadline=None)
@given(st.fractions(min_value=-20, max_value=20))
def test_perfect_cube_construction_denests(a):
    # Build b so that a^2 - b = -1: value is a root of x^3 + 3x + (-2a)
    b = a * a + 1
    result = denest(NestedRadical(a, b))
    cubic = result.cubic
    assert cubic.p == 3 and cubic.q == -2 * a
    if result.exact is not None:
        assert result.exact**3 + 3 * result.exact - 2 * a == 0
        assert abs(float(result.exact) - result.value) <= 1e-9



def _signed_big(n, e, d):
    return Fraction(n * 10**e, d)


@st.composite
def big_exact_radicals(draw):
    """(a, b, x): a and b up to about 10^300, of either sign of a. For a "cube" radical
    a^2 - b = m^3 with 2a = x^3 - 3mx, so its value is x; an "offset" one raises 2a by
    one (an exact cubic, x None); a "free" b need not make a^2 - b a cube; "zero" is a = 0."""
    kind = draw(st.sampled_from(["cube", "offset", "free", "zero"]))
    x = _signed_big(draw(st.integers(-999, 999).filter(bool)), draw(st.integers(0, 96)), draw(st.integers(1, 10**6)))
    m = _signed_big(-draw(st.integers(0, 999)), draw(st.integers(0, 192)), draw(st.integers(1, 10**6)))
    a = (x**3 - 3 * m * x) / 2 + (Fraction(1, 2) if kind == "offset" else 0)
    if kind == "zero":
        a = Fraction(0)
    b = a * a - m**3 if kind != "free" else abs(_signed_big(draw(st.integers(1, 999)), draw(st.integers(0, 290)), draw(st.integers(1, 10**6))))
    return a, b, x if kind == "cube" else None


def _lowest_terms(f):
    return type(f) is Fraction and f.denominator > 0 and math.gcd(f.numerator, f.denominator) == 1


@settings(max_examples=300, deadline=None)
@given(big_exact_radicals())
def test_cubic_and_exact_match_the_fraction_reference(radical):
    # The radical's cubic and exact value against Fraction arithmetic: q = -2a and
    # p = -3 cbrt(a^2 - b), exact when a^2 - b is a rational cube, else the rounded real cube root.
    a, b, x = radical
    result = denest(NestedRadical(a, b))
    t = a * a - b
    cr = fraction_cbrt(t)
    reference = DepressedCubic(-3 * cr, -2 * a) if cr is not None else DepressedCubic(-3.0 * _root(t, 3), -2 * a)
    assert repr(result.cubic) == repr(reference)
    if cr is not None:
        assert _lowest_terms(result.cubic.p) and _lowest_terms(result.cubic.q)
    if a == 0:
        assert repr(result.exact) == repr(Fraction(0))
    elif x is not None:
        assert repr(result.exact) == repr(x)
    elif result.exact is not None:
        p, q = result.cubic
        assert result.exact**3 + p * result.exact + q == 0
    if result.exact is not None:
        assert _lowest_terms(result.exact)
