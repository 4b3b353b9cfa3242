import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from rscubic.numerics import _BAND, OMEGA, OMEGA2, _band, _exponent, _float_of, _float_pair, _root, _scaled, cube_roots_all, principal_cube_root

SQRT3 = math.sqrt(3.0)


class TestOmega:
    def test_cube_is_one(self):
        assert abs(OMEGA**3 - 1) <= 1e-15

    def test_sum_of_unit_roots_vanishes(self):
        assert abs(1 + OMEGA + OMEGA2) <= 1e-15

    def test_omega2_is_square_and_conjugate(self):
        assert abs(OMEGA2 - OMEGA**2) <= 1e-15
        assert OMEGA2 == OMEGA.conjugate()


def principal_arg(z: complex) -> float:
    """Argument of z in (-pi, pi], numerics' convention; 0.0 for z = 0: principal_cube_root's reference.

    atan2 can return -pi for inputs that carry a negative-zero imaginary
    part; that boundary value is folded back to +pi.
    """
    a = math.atan2(z.imag, z.real)
    if a <= -math.pi:
        return math.pi
    return a


class TestPrincipalArg:
    def test_negative_real_axis_maps_to_plus_pi(self):
        assert principal_arg(complex(-8.0, 0.0)) == math.pi
        assert principal_arg(complex(-8.0, -0.0)) == math.pi

    def test_zero(self):
        assert principal_arg(0j) == 0.0

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    def test_range(self, re, im):
        a = principal_arg(complex(re, im))
        assert -math.pi < a <= math.pi


class TestPrincipalCubeRoot:
    def test_positive_real(self):
        assert principal_cube_root(8) == pytest.approx(2)

    def test_negative_real_rotates_into_upper_half_plane(self):
        # theta = pi forces 2 e^{i pi/3} = 1 + sqrt(3) i
        w = principal_cube_root(-8)
        assert w.real == pytest.approx(1.0, abs=1e-15)
        assert w.imag == pytest.approx(SQRT3, abs=1e-15)

    def test_polar_example(self):
        z = cmath.rect(4.0, 3 * math.pi / 4)
        w = principal_cube_root(z)
        expected = cmath.rect(4.0 ** (1 / 3), math.pi / 4)
        assert abs(w - expected) <= 1e-14

    def test_zero(self):
        assert principal_cube_root(0j) == 0j

    def test_bulk_cube_property_and_arg_range(self):
        # |w^3 - z| <= 1e-12 |z| over a million log-uniform moduli.
        rng = random.Random(20240601)
        third = math.pi / 3
        for _ in range(10**6):
            z = cmath.rect(10 ** rng.uniform(-6, 6), rng.uniform(-math.pi, math.pi))
            w = principal_cube_root(z)
            assert abs(w * w * w - z) <= 1e-12 * abs(z)
            a = principal_arg(w)
            assert -third < a <= third

    def test_arg_boundary_hit_exactly_on_negative_axis(self):
        w = principal_cube_root(complex(-27.0, 0.0))
        assert principal_arg(w) == pytest.approx(math.pi / 3, abs=1e-15)


class TestRealCubeRoot:
    @pytest.mark.parametrize("x,expected", [(-1.0, -1.0), (0.0, 0.0), (27.0, 3.0), (-8.0, -2.0)])
    def test_examples(self, x, expected):
        assert _root(x, 3) == pytest.approx(expected)

    def test_sign_preserved(self):
        assert _root(-0.001, 3) < 0

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    def test_product_law(self, x, y):
        lhs = _root(x, 3) * _root(y, 3)
        rhs = _root(x * y, 3)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @given(st.floats(1.0, 2.0, exclude_max=True), st.integers(-300, 298), st.booleans())
    def test_unscaled_inside_the_band(self, m, e, negative):
        # |x| in [2^-300, 2^299): no range scale, so the bits are the plain formula's.
        x = math.copysign(math.ldexp(m, e), -1.0 if negative else 1.0)
        assert _root(x, 3) == math.copysign(abs(x) ** (1.0 / 3.0), x)


def _outcome(f, *args):
    """repr of the result, which tells -0.0 from 0.0 and spells nan, or the exception's type."""
    try:
        return repr(f(*args))
    except Exception as exc:  # math.sqrt of a negative float raises ValueError
        return type(exc)


def _root_reference(x, n):
    """_root on the scale: root(x 2^-nk) 2^k, with k = 0 in band."""
    k = _band(-(-_exponent(x) // n))
    y = _float_of(x, -n * k)
    y = math.sqrt(y) if n == 2 else math.copysign(abs(y) ** (1.0 / 3.0), y)
    return _scaled(y, k) if k else y


@pytest.mark.parametrize(
    "p, q, expected",
    [
        (1.5, Fraction(1, 3), (1.5, 1 / 3)),  # denest's mixed cubic: each part rounded on its own
        (Fraction(-2, 3), 2.5, (-2 / 3, 2.5)),
        (Fraction(10**400), 1.0, OverflowError),
        (0.0, Fraction(-(10**400), 3), OverflowError),
    ],
)
def test_float_pair_rounds_each_part_as_float_of(p, q, expected):
    if expected is OverflowError:
        with pytest.raises(OverflowError):
            _float_pair(p, q)
    else:
        assert _float_pair(p, q) == (_float_of(p), _float_of(q)) == expected


def _principal_cube_root_reference(z):
    z = complex(z)
    if z == 0:
        return 0j
    return cmath.rect(abs(z) ** (1.0 / 3.0), principal_arg(z) / 3.0)


# The exponents of each band's edges (frexp's: k = ceil(e / n) is in band for e in [-n _BAND - n + 1, n _BAND]),
# and the first out of band on either side.
_EDGES = {n: (-n * _BAND - n, -n * _BAND - n + 1, n * _BAND, n * _BAND + 1) for n in (2, 3)}


@st.composite
def _near_band_edges(draw):
    n = draw(st.sampled_from([2, 3]))
    e = draw(st.sampled_from(_EDGES[n])) + draw(st.integers(-2, 2))
    x = math.ldexp(draw(st.floats(0.5, 1.0, exclude_max=True)), e)
    return (-x if draw(st.booleans()) else x), n


@settings(max_examples=500, deadline=None)
@given(st.one_of(_near_band_edges(), st.tuples(st.floats(), st.sampled_from([2, 3]))))
@example((2.0**-303, 3))
@example((math.nextafter(2.0**-303, 0.0), 3))
@example((2.0**300, 3))
@example((math.nextafter(2.0**300, 0.0), 3))
@example((-(2.0**300), 3))
@example((2.0**-202, 2))
@example((math.nextafter(2.0**-202, 0.0), 2))
@example((2.0**200, 2))
@example((math.nextafter(2.0**200, 0.0), 2))
@example((-0.0, 3))
@example((-0.0, 2))
@example((5e-324, 3))
@example((-1e308, 3))
@example((math.inf, 2))
@example((math.nan, 3))
def test_root_is_bit_equal_to_the_scaled_form(case):
    x, n = case
    assert _outcome(_root, x, n) == _outcome(_root_reference, x, n)


@settings(max_examples=500, deadline=None)
@given(st.builds(complex, st.floats(), st.floats()))
@example(complex(-8.0, -0.0))  # atan2 gives -pi: folded to +pi
@example(complex(-8.0, 0.0))
@example(complex(-0.0, -0.0))
@example(complex(0.0, -0.0))
@example(complex(3.0, -0.0))
@example(complex(-1e-300, -0.0))
@example(complex(-1e308, -1e308))
@example(complex(math.inf, -0.0))
def test_principal_cube_root_is_bit_equal_to_the_principal_arg_form(z):
    assert _outcome(principal_cube_root, z) == _outcome(_principal_cube_root_reference, z)


class TestCubeRootsAll:
    def test_unity(self):
        roots = cube_roots_all(1)
        assert abs(roots[0] - 1) <= 1e-15
        assert abs(roots[1] - OMEGA) <= 1e-15
        assert abs(roots[2] - OMEGA2) <= 1e-15

    def test_minus_eight(self):
        roots = sorted(cube_roots_all(-8), key=lambda z: (round(z.real, 9), z.imag))
        assert abs(roots[0] - (-2)) <= 1e-14
        assert abs(roots[1] - complex(1, -SQRT3)) <= 1e-14
        assert abs(roots[2] - complex(1, SQRT3)) <= 1e-14

    def test_eighth(self):
        # r/s for r=-1/2, s=-4: each cube must come back to 0.125
        for w in cube_roots_all(0.125):
            assert abs(w**3 - 0.125) <= 1e-15

    def test_closed_under_omega(self):
        rng = random.Random(3)
        for _ in range(200):
            z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            roots = cube_roots_all(z)
            for w in roots:
                rotated = w * OMEGA
                assert min(abs(rotated - other) for other in roots) <= 1e-12 * max(1.0, abs(w))
