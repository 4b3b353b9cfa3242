"""Range: one power-of-two scale in compute_rs, checked against mpmath.

The r,s problem is covariant: (p, q) -> (p 4^j, q 8^j) maps r, s and the
roots by 2^j. compute_rs solves out-of-range cubics at unit scale, so its
pair must be the unit-scale pair times 2^j to the bit, and the roots of
cubics far outside the double range of p^3 and q^2 must still match an
arbitrary-precision oracle root by root.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rscubic import (
    CaseTag,
    DepressedCubic,
    GeneralCubic,
    InvalidInputError,
    NestedRadical,
    cardano_solve,
    compute_rs,
    denest,
    depress,
    solve,
    solve_depressed,
    solve_moebius,
)
from rscubic.chen import _anchor, _onto_scale
from rscubic.numerics import _BAND_HIGH, _BAND_LOW, _band, _float_of
from rscubic.reduction import _tuple_new

mpmath = pytest.importorskip("mpmath")


def unit(x):
    return math.copysign(1.0, x) * (abs(x) + 0.0625)


unit_float = st.floats(-4, 4, allow_nan=False).map(unit)
unit_exact = st.fractions(-4, 4, max_denominator=1000).map(lambda x: x + (1 if x >= 0 else -1))


def scaled(x, e):
    return math.ldexp(x, e) if isinstance(x, float) else x * Fraction(2) ** e


def bits(z):
    return None if z is None else (z.real.hex(), z.imag.hex(), math.copysign(1.0, z.imag))


@given(st.one_of(st.tuples(unit_float, unit_float), st.tuples(unit_exact, unit_exact)), st.sampled_from([300, -300]))
def test_pair_is_bitwise_covariant(pq, j):
    p, q = pq
    base = compute_rs(DepressedCubic(p, q))
    pair = compute_rs(DepressedCubic(scaled(p, 2 * j), scaled(q, 3 * j)))
    assert pair.case is base.case
    for got, want in ((pair.r, base.r), (pair.s, base.s)):
        assert bits(got) == bits(complex(math.ldexp(want.real, j), math.ldexp(want.imag, j)))
    if base.exact_r is not None:
        assert pair.exact_r == base.exact_r * Fraction(2) ** j


def oracle_roots(p, q):
    """Roots of x^3 + px + q for float or exact p, q, solved by mpmath at unit scale."""
    with mpmath.workdps(60):
        p, q = (mpmath.mpf(v.numerator) / v.denominator if isinstance(v, Fraction) else mpmath.mpf(v) for v in (p, q))
        lam = max(mpmath.sqrt(abs(p)), mpmath.cbrt(abs(q)))
        roots = mpmath.polyroots([1, 0, p / lam**2, q / lam**3], maxsteps=200, extraprec=100)
        return [complex(z * lam) for z in roots]


def assert_roots_match(roots, p, q, rel=1e-12):
    assert all(math.isfinite(abs(x)) for x in roots)
    for z in oracle_roots(p, q):
        assert min(abs(x - z) for x in roots) <= rel * abs(z), roots


# r = t and s = t 2^1475 give a negligible p and roots near 2^1024.
NEAR_TOP_T = Fraction(144597784759682, 83)

# (p, q) of well-separated unit shapes: roots {1, 2, -3}, {1, 3, -4}, {1, -1/2 +- i}, {-1, 0, 1}, cube roots of -1.
SHAPES = [(-7, 6), (-13, 12), (Fraction(1, 4), Fraction(-5, 4)), (-1, 0), (0, 1)]


@pytest.mark.parametrize("shape", SHAPES, ids=["three_real", "three_real_wide", "real_and_pair", "q0", "p0"])
@pytest.mark.parametrize("e", range(-100, 101, 8))
def test_float_shapes_match_mpmath_across_the_double_range(shape, e):
    lam = 10.0**e
    p, q = float(shape[0]) * lam * lam, float(shape[1]) * lam**3
    assert_roots_match(solve_depressed(DepressedCubic(p, q)).roots, p, q)


@pytest.mark.parametrize("shape", SHAPES + [(-3, 2)], ids=["three_real", "three_real_wide", "real_and_pair", "q0", "p0", "equal"])
@pytest.mark.parametrize("e", range(-250, 251, 25))
def test_exact_shapes_match_mpmath_across_the_double_range(shape, e):
    lam = Fraction(10) ** e
    p, q = Fraction(shape[0]) * lam * lam, Fraction(shape[1]) * lam**3
    assert_roots_match(solve_depressed(DepressedCubic(p, q)).roots, p, q)


def test_huge_float_conjugate_case_is_finite():
    triple = solve_depressed(DepressedCubic(-3e120, 1e180))
    assert triple.case is CaseTag.CONJUGATE_PAIR
    assert_roots_match(triple.roots, -3e120, 1e180)


@pytest.mark.parametrize(
    "p, q, case",
    [(1e-110, 1e-170, CaseTag.REAL_DISTINCT), (-3e-120, 1e-181, CaseTag.CONJUGATE_PAIR)],
    ids=["real_and_pair", "three_real"],
)
def test_tiny_float_cubics_do_not_underflow_into_the_equal_case(p, q, case):
    # The first has its real root 1e5 below the pair, where -uv(u + v) cancels
    # about five digits (at any scale), hence the looser bound.
    triple = solve_depressed(DepressedCubic(p, q))
    assert triple.case is case
    assert_roots_match(triple.roots, p, q, rel=1e-9)


def test_exact_double_root_beyond_double_range_of_q():
    t = 10**200
    triple = solve(GeneralCubic(0, -3 * t * t, 2 * t**3))
    assert triple.case is CaseTag.EQUAL
    assert [e.rational for e in triple.exact if not e.surd_coef] == [-2 * t, t, t]
    assert triple.roots == (complex(-2e200), complex(1e200), complex(1e200))


def test_exact_distinct_roots_beyond_double_range_of_q():
    r = (10**200, 2 * 10**200, -3 * 10**200)
    cubic = GeneralCubic(-sum(r), r[0] * r[1] + r[0] * r[2] + r[1] * r[2], -r[0] * r[1] * r[2])
    triple = solve(cubic)
    for x, want in zip(triple.roots, sorted(r)):
        assert x.imag == 0 and abs(x.real - want) <= 1e-14 * abs(want)


def test_pure_cube_beyond_double_range():
    triple = solve(GeneralCubic(0, 0, -(10**600)))
    assert triple.case is CaseTag.DEGENERATE_P0
    assert triple.roots[0] == complex(1e200)
    assert str(triple.exact[0]) == str(10**200)
    assert all(abs(abs(x) - 1e200) <= 1e-14 * 1e200 for x in triple.roots)


def test_q0_cubic_beyond_double_range():
    triple = solve(GeneralCubic(0, -(10**400), 0))
    assert triple.case is CaseTag.DEGENERATE_Q0
    assert triple.roots == (complex(-1e200), 0j, complex(1e200))
    assert [e.rational for e in triple.exact if not e.surd_coef] == [-(10**200), 0, 10**200]


@pytest.mark.parametrize("p, q", [(1e300, 1e-10), (0.25e200, -1.25e300), (0.25e-200, -1.25e-300)])
def test_out_of_band_real_distinct_cube_roots_keep_accuracy(p, q):
    # r and s lie beyond the band, so their cube roots are taken at unit scale.
    triple = solve_depressed(DepressedCubic(p, q))
    assert triple.case is CaseTag.REAL_DISTINCT
    assert_roots_match(triple.roots, p, q, rel=1e-15)



@pytest.mark.parametrize(
    "p, q, name",
    [
        (2**1850, 2**2873, "s"),  # real root about -2^1023, the pair about +-2^925 i
        (-(2**1850), 2**2873, "r"),
        (-(2**2100), 1, "Im r"),  # conjugate_pair: |r| = 2^1050 / sqrt(3)
        # A rational pair is exact: r = 10^310, s = 10^260, the roots about 1e293.
        (-3 * 10**570, 10**570 * (10**310 + 10**260), "r"),
        # r = 10^300, s = -10^310: the real root is about 4.6e306.
        (3 * 10**610, -(10**610) * (10**300 - 10**310), "s"),
        (-3 * 10**800, 2 * 10**1200, "r"),  # equal: r = s = 10^400, the roots -10^400 and 2 10^400
    ],
    ids=["s", "r", "conjugate r", "rational r", "rational s", "equal r"],
)
def test_r_or_s_without_a_double_is_refused_by_name(p, q, name):
    # Out of band, r and s are scaled back by 2^k, and a rational pair is rounded once:
    # one past the double range is invalid input that names it, not a bare OverflowError.
    d = DepressedCubic(p, q)
    message = rf"^the pair's {name} = \S+ \* 2\^\d+ has no double$"
    with pytest.raises(InvalidInputError, match=message):
        compute_rs(d)
    with pytest.raises(InvalidInputError, match=message):
        solve_depressed(d)
    with pytest.raises(InvalidInputError, match=message):
        solve(GeneralCubic(0, p, q))


@st.composite
def mixed_radicals(draw):
    """An exact a = +-m 10^e with 10^308 <= |a| <= 10^450, whose -2a has no double, and a b
    that is 0, below a^2, or a^2 - n for a small n (a negligible p)."""
    a = draw(st.integers(1, 10**6)) * 10 ** draw(st.integers(308, 444)) * draw(st.sampled_from([1, -1]))
    b = draw(st.one_of(st.just(0), st.integers(0, a * a), st.integers(-1000, 1000).map(lambda n: a * a - n)))
    return a, max(b, 0)


@settings(max_examples=200, deadline=None)
@given(mixed_radicals())
@example((10**400, 10**799))
def test_mixed_cubic_solves(radical):
    # Unless a^2 - b is a rational cube, denest's cubic is mixed: a float p beside an exact
    # q = -2a beyond the double range, which compute_rs reads on its 2^k scale.
    result = denest(NestedRadical(*radical))
    assume(not result.cubic.exact)
    roots = solve_depressed(result.cubic).roots
    assert all(math.isfinite(abs(z)) for z in roots)
    assert min(abs(z - result.value) for z in roots if z.imag == 0) <= 1e-12 * abs(result.value)


def dyadic():
    """An exact +-(m/n) 2^e, 1 <= m <= 2^53 and 1 <= n <= 2^20, with e up to +-3000 and often
    near the edges of the doubles, 2^1024 and 2^-1074."""
    exponents = st.one_of(st.integers(-3000, 3000), st.integers(1000, 1030), st.integers(-1090, -1060))
    return st.builds(
        lambda sign, m, n, e: sign * Fraction(m, n) * Fraction(2) ** e,
        st.sampled_from([1, -1]),
        st.integers(1, 2**53),
        st.integers(1, 2**20),
        exponents,
    )


@settings(max_examples=300, deadline=None)
@given(st.builds(lambda r, s: (-3 * r * s, r * s * (r + s)), dyadic(), dyadic()), st.one_of(st.just(0), dyadic()))
@example((0, 10**1000), 0)  # cbrt(-q) has no double
@example((-(10**1000), 0), 0)  # sqrt(-p) has none
@example((0, 0), 10**400)  # (x + 10^400)^3: the rational triple root -10^400 has none
@example((-9 * 2**2045, 9 * 2**3067), 0)  # a conjugate pair with |r| > 2^1023: |r| + |s| rounds to inf
@example((-3 * NEAR_TOP_T**2 * 2**1475, NEAR_TOP_T**3 * 2**1475 * (1 + 2**1475)), 0)  # r = t, s = t 2^1475: a pair near 2^1024
def test_far_cubics_solve_or_are_refused_by_name(pq, delta):
    # x^3 + px + q with p = -3rs and q = rs(r + s), and the cubic in x = y - delta: the roots
    # of each are finite doubles, or the call raises InvalidInputError, never a bare
    # OverflowError or ZeroDivisionError.
    p, q = pq
    d = DepressedCubic(p, q)
    shifted = GeneralCubic(3 * delta, 3 * delta * delta + p, (delta * delta + p) * delta + q)
    for call in (lambda: solve_depressed(d), lambda: solve(shifted), lambda: cardano_solve(d)):
        try:
            roots = call().roots
        except InvalidInputError:
            continue
        assert all(math.isfinite(z.real) and math.isfinite(z.imag) for z in roots), roots


@pytest.mark.parametrize(
    "p, q, case",
    [
        (-9 * 2**2045, 15 * 2**3067, CaseTag.REAL_DISTINCT),  # r = 3 2^1022, s = 2^1023: y = -uv(u + v) passes 2^1024
        (-9 * 2**2045, 9 * 2**3067, CaseTag.CONJUGATE_PAIR),  # |r| > 2^1023: the amplitude -2|r| passes 2^1024
    ],
    ids=["real_distinct", "conjugate_pair"],
)
def test_refusal_near_the_top_names_a_finite_root(p, q, case):
    # The largest root, about -1.2 * 2^1024, has no double. The anchor is formed on the
    # scale, so the refusal names the root's finite mantissa, not -inf.
    d = DepressedCubic(p, q)
    assert compute_rs(d).case is case
    with pytest.raises(InvalidInputError, match=r"^a root = -0\.\d+ \* 2\^1025 has no double$"):
        solve_depressed(d)


def test_conjugate_pair_whose_r_has_no_modulus_is_refused_by_name():
    # r = 13 2^1020 (1 + i): the complex |r| passes 2^1024, and abs(r) raised a bare
    # OverflowError('absolute value too large') before the roots were formed.
    d = DepressedCubic(-1014 * 2**2040, 8788 * 2**3060)
    assert compute_rs(d).case is CaseTag.CONJUGATE_PAIR
    for call in (lambda: solve_depressed(d), lambda: solve(GeneralCubic(0, d.p, d.q))):
        with pytest.raises(InvalidInputError, match=r"^a root = -1\.1098956405748563 \* 2\^1025 has no double$"):
            call()


@pytest.mark.parametrize(
    "p, q",
    [(0, 2**3071), (-3 * NEAR_TOP_T**2 * 2**1475, NEAR_TOP_T**3 * 2**1475 * (1 + 2**1475))],
    ids=["p = 0", "negligible p"],
)
def test_pair_near_the_top_is_right(p, q):
    # y^3 = -q with |y| near 2^1024: the pair's imaginary part sqrt(3)|y|/2 has a double and
    # sqrt(3)|y| does not. The step read it as inf and returned 0, 0, 0 (p = 0) or 0 and
    # +-sqrt(-p); Cardano's mean of the pair's two imaginary parts overflowed to inf.
    d = DepressedCubic(p, q)
    for triple in (solve_depressed(d), solve(GeneralCubic(0, p, q)), cardano_solve(d)):
        assert_roots_match(triple.roots, p, q)


def test_conjugate_pair_whose_amplitude_passes_2_to_the_1024_solves():
    # Roots a, b and -(a + b): 2|r| = 1.9e308 has no double, though every root has one.
    a, b = int(1.7e308), -int(1e307)
    d = DepressedCubic(a * b - (a + b) ** 2, a * b * (a + b))
    assert compute_rs(d).case is CaseTag.CONJUGATE_PAIR
    roots = solve_depressed(d).roots
    assert [z.imag for z in roots] == [0.0, 0.0, 0.0]
    assert [z.real for z in roots] == pytest.approx([float(-(a + b)), float(b), float(a)], rel=1e-15)


@pytest.mark.parametrize("r, s", [(1e-320, 1e300), (1e308, 1e-308)], ids=["r/s underflows", "r/s overflows"])
def test_moebius_refuses_an_r_over_s_without_a_double(r, s):
    # r/s rounds to 0 (every u = 0 gave x = r three times, though the real root is about
    # -2.15e93) or to inf (NaN roots).
    with pytest.raises(InvalidInputError, match=r"^Moebius form needs r/s as a finite double"):
        solve_moebius(r, s)


def float_scale_route(size, a, b, c, delta):
    """The solve step's former scale stage for a float cubic out of band, kept as the reference:
    (k, a 2^-k, b 4^-k, c 8^-k, delta 2^-k), k off the exponent of size + |delta|, each value
    rounded from its double."""
    k = _band(math.frexp(size + abs(delta))[1])
    if k:  # denest's cubic can hold an exact c = q beside its float b = p
        a, b, c, delta = _float_of(a, -k), _float_of(b, -2 * k), _float_of(c, -3 * k), _float_of(delta, -k)
    return k, a, b, c, delta


wide_float = st.builds(
    lambda m, e, negative: math.ldexp(-m if negative else m, e),
    st.floats(1.0, 2.0, exclude_max=True),
    st.integers(-1074, 1023),
    st.booleans(),
) | st.sampled_from([0.0, -0.0])

MIXED = denest(NestedRadical(10**400, 10**799)).cubic  # a float p beside an exact q = -2 10^400


@settings(max_examples=400, deadline=None)
@given(st.tuples(wide_float, wide_float, wide_float))
@example((1.5 * 2.0**300, 1.0, math.pi * 2.0**-130))  # k = 301: c 8^-k is subnormal
@example((-1.25 * 2.0**300, 3.0, -math.e * 2.0**-150))
@example((3.5e-323, 0.0, 2.0**-1000))  # k = -333: a/3 is subnormal as a double, and normal on the scale
@example((-0.0, -0.0, 2.0**-1000))
@example((0.0, MIXED.p, MIXED.q))  # denest's mixed cubic, as solve_depressed takes it
def test_out_of_band_float_route_is_the_float_stage(abc):
    # A float cubic out of band takes _onto_scale on its doubles' integers, with size + |delta|
    # as the size. A double is a dyadic rational, so each value is the reference's bit for bit
    # (an underflow keeps its sign in both), but for two things the integers cannot carry: a
    # zero comes out +0.0, and delta is a/3 on the scale rounded once, where the reference
    # rounded it twice if a/3 or its value on the scale is subnormal.
    a, b, c = abc
    try:
        if type(c) is float:
            d, delta = depress(GeneralCubic(a, b, c))
        else:
            d, delta = _tuple_new(DepressedCubic, (b, c)), 0.0
        anchor = _anchor(d, compute_rs(d), False)
    except InvalidInputError:
        assume(False)
    assume(anchor is not None)
    size = anchor[1]
    assume(not _BAND_LOW <= size + abs(delta) < _BAND_HIGH)
    k, *expected = float_scale_route(size, a, b, c, delta)
    got = _onto_scale(size + abs(delta), a.as_integer_ratio() + b.as_integer_ratio() + c.as_integer_ratio())[:5]
    assert got[0] == k
    assert [x.hex() for x in got[1:4]] == [(x if v else 0.0).hex() for x, v in zip(expected, abc)]
    assert got[4].hex() == float(Fraction(a) / 3 * Fraction(2) ** -k).hex()
    if not a or min(abs(delta), abs(expected[3])) >= 2.0**-1022:
        assert got[4].hex() == (expected[3] if a else 0.0).hex()


def test_moebius_zero_r_is_the_triple_root_zero():
    assert solve_moebius(0.0, 1e300).roots == (0j, 0j, 0j)


# Known wrong roots, returned with no error. They share one cause: the solve step computes
# all three roots on the largest root's scale and deflates by P = -c/x there, where c (the
# roots' product) and x can underflow to zero or to a few subnormal ulps.
_ONE_SCALE = "every root is computed on the largest root's scale, where the small roots' product underflows"


@pytest.mark.xfail(strict=True, reason=_ONE_SCALE)
@pytest.mark.parametrize(
    "roots, expected",
    [
        ((Fraction(1), Fraction(-2), Fraction(10**200)), (-2.0, 1.0, 1e200)),  # gives -1, 0, 1e200
        ((Fraction(3), Fraction(1, 10**200), Fraction(-5, 2 * 10**200)), (-2.5e-200, 1e-200, 3.0)),  # gives -1.5e-200, 0, 3
    ],
    ids=["beside 1e200", "beside 3"],
)
def test_small_roots_beside_a_large_root_keep_their_values(roots, expected):
    x0, x1, x2 = roots
    got = solve(GeneralCubic(-(x0 + x1 + x2), x0 * x1 + x0 * x2 + x1 * x2, -x0 * x1 * x2)).roots
    assert [z.imag for z in got] == [0.0, 0.0, 0.0]
    assert [z.real for z in got] == pytest.approx(expected, rel=1e-15, abs=0.0)


@pytest.mark.xfail(strict=True, reason=_ONE_SCALE)
def test_tiny_real_root_beside_a_huge_pair_keeps_its_value():
    # p > 0 and |q| below about p^(3/2) 1e-318: the step's scale is 2^436, on which q 8^-436 is
    # 5e-324 and the real root three subnormal ulps. Gives -2.630e-192 and Im 1.0245e131.
    x0, pair = solve_depressed(DepressedCubic(1.1629478265567585e262, 2.9987607300242697e70)).roots[:2]
    assert x0.real == pytest.approx(-2.5785857813612870e-192, rel=1e-15, abs=0.0) and x0.imag == 0.0
    assert pair.real == pytest.approx(1.2892928906806435e-192, rel=1e-15, abs=0.0)
    assert abs(pair.imag) == pytest.approx(1.0784005872386933e131, rel=1e-15)


@pytest.mark.xfail(strict=True, reason=_ONE_SCALE)
def test_pair_beside_a_subnormal_real_root_keeps_its_modulus():
    # In band (k = 0): the real root -4e-324 rounds to -5e-324, so P = -c/x reads 1.0 for
    # 1.25. Gives Im = +-1 for +-sqrt(1.25); test_roundtrip_residual can draw this cubic.
    roots = solve(GeneralCubic(0.0, 1.25, 5e-324)).roots
    assert roots[0] == complex(-5e-324, 0.0)
    assert [abs(z.imag) for z in roots[1:]] == pytest.approx([math.sqrt(1.25)] * 2, rel=1e-15)
