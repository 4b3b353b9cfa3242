import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, strategies as st

from rscubic import (
    CaseTag,
    DepressedCubic,
    GeneralCubic,
    InvalidInputError,
    ParseError,
    RsPair,
    cardano_solve,
    compute_rs,
    depress,
    parse_cubic,
    solve,
)
from rscubic.decompose import discriminant, rs_quadratic

SQRT2 = math.sqrt(2.0)


def log_uniform_pq(rng):
    p = (-1) ** rng.randrange(2) * 10 ** rng.uniform(-3, 3)
    q = (-1) ** rng.randrange(2) * 10 ** rng.uniform(-3, 3)
    return p, q


class TestDiscriminant:
    def test_equal_case_is_zero(self):
        # 4*(-1728) + 27*256 = -6912 + 6912
        assert discriminant(DepressedCubic(-12, 16)) == 0

    def test_real_distinct_positive(self):
        # 4*(-216) + 27*81 = -864 + 2187 = 1323
        assert discriminant(DepressedCubic(-6, -9)) == 1323

    def test_origin(self):
        assert discriminant(DepressedCubic(0, 0)) == 0


class TestRsQuadratic:
    def test_example_quadratic_is_t2_minus_4t_plus_4(self):
        # For p=-12, q=16 the quadratic with roots r, s must be t^2 - 4t + 4,
        # i.e. B = 3q/p and C = -p/3 (sum -B, product C).
        B, C = rs_quadratic(DepressedCubic(-12, 16))
        assert B == -4 and C == 4

    def test_second_example(self):
        # p=-6, q=-9: t^2 + (9/2)t + 2
        B, C = rs_quadratic(DepressedCubic(-6, -9))
        assert B == Fraction(9, 2) and C == 2


class TestComputeRs:
    def test_equal_case(self):
        pair = compute_rs(DepressedCubic(-12, 16))
        assert pair.case is CaseTag.EQUAL
        assert pair.r == pair.s == complex(2)
        assert pair.exact_r == Fraction(2)

    def test_real_distinct_exact(self):
        pair = compute_rs(DepressedCubic(-6, -9))
        assert pair.case is CaseTag.REAL_DISTINCT
        assert pair.exact_r == Fraction(-1, 2)
        assert pair.exact_s == Fraction(-4)
        assert pair.r.real >= pair.s.real

    def test_conjugate_surd_example(self):
        pair = compute_rs(DepressedCubic(-48.0, -64.0 * SQRT2))
        assert pair.case is CaseTag.CONJUGATE_PAIR
        assert pair.r == pytest.approx(complex(-2 * SQRT2, 2 * SQRT2), abs=1e-12)
        assert abs(pair.r) == pytest.approx(4.0)
        assert math.atan2(pair.r.imag, pair.r.real) == pytest.approx(3 * math.pi / 4)

    def test_conjugate_rational_example(self):
        pair = compute_rs(DepressedCubic(Fraction(-3, 4), Fraction(1, 8)))
        assert pair.case is CaseTag.CONJUGATE_PAIR
        assert pair.r == pytest.approx(complex(0.25, math.sqrt(3) / 4), abs=1e-15)
        assert abs(pair.r) == pytest.approx(0.5)

    def test_degenerate_tags(self):
        pair = compute_rs(DepressedCubic(0, 5))
        assert pair.case is CaseTag.DEGENERATE_P0 and pair.r is None and pair.s is None
        pair = compute_rs(DepressedCubic(3, 0))
        assert pair.case is CaseTag.DEGENERATE_Q0
        assert compute_rs(DepressedCubic(0, 0)).case is CaseTag.DEGENERATE_P0

    # One rule for exact and float inputs: 2 e_q - 3 e_p > 199 drops p, with
    # frexp's exponent for both, so (1, 2**100) and (1.0, 2.0**100) sit just inside it.
    @pytest.mark.parametrize("p,q", [(1, 2**101), (1.0, 2.0**101), (Fraction(-1, 3), 10**40)])
    def test_negligible_p_is_degenerate(self, p, q):
        pair = compute_rs(DepressedCubic(p, q))
        assert pair.case is CaseTag.DEGENERATE_P0 and pair.r is None and pair.s is None

    def test_conjugate_orientation_and_bit_exact_conjugation(self):
        rng = random.Random(17)
        seen = 0
        while seen < 300:
            p, q = log_uniform_pq(rng)
            d = DepressedCubic(p, q)
            pair = compute_rs(d)
            if pair.case is not CaseTag.CONJUGATE_PAIR:
                continue
            seen += 1
            assert pair.r.imag > 0
            assert pair.s == pair.r.conjugate()
            assert pair.s.imag == -pair.r.imag  # bit-exact construction

    def test_real_distinct_ordering(self):
        rng = random.Random(18)
        seen = 0
        while seen < 300:
            p, q = log_uniform_pq(rng)
            pair = compute_rs(DepressedCubic(p, q))
            if pair.case is not CaseTag.REAL_DISTINCT:
                continue
            seen += 1
            assert pair.r.real >= pair.s.real
            assert pair.r.imag == 0 and pair.s.imag == 0


class TestPairInvariants:
    def test_product_and_sum(self):
        rng = random.Random(19)
        for _ in range(2000):
            p, q = log_uniform_pq(rng)
            pair = compute_rs(DepressedCubic(p, q))
            r, s = pair.r, pair.s
            assert abs((r * s).real - (-p / 3)) <= 1e-12 * max(1.0, abs(p))
            total = (r + s).real
            assert abs(total - (-3 * q / p)) <= 1e-12 * max(1.0, abs(total))

    def test_reconstruction(self):
        # Expanding x^3 - 3rsx + rs(r+s) must reproduce (p, q); scale
        # max(1,|p|,|q|) (see notes: the sum cannot beat eps*|r| absolute).
        rng = random.Random(21)
        for _ in range(2000):
            p, q = log_uniform_pq(rng)
            pair = compute_rs(DepressedCubic(p, q))
            scale = max(1.0, abs(p), abs(q))
            rs = (pair.r * pair.s).real
            total = (pair.r + pair.s).real
            assert abs(-3 * rs - p) <= 1e-12 * scale
            assert abs(rs * total - q) <= 1e-12 * scale

    def test_quadratic_discriminant_sign_matches_delta(self):
        rng = random.Random(23)
        for _ in range(2000):
            p, q = log_uniform_pq(rng)
            d = DepressedCubic(p, q)
            delta = discriminant(d)
            B, C = rs_quadratic(d)
            quad_disc = B * B - 4 * C
            if compute_rs(d).case in (CaseTag.REAL_DISTINCT, CaseTag.CONJUGATE_PAIR):
                assert (quad_disc > 0) == (delta > 0)


class TestEqualBand:
    """The equal case is a discriminant of exactly 0, for float input too: there is no band."""

    def test_exact_zero_float(self):
        assert compute_rs(DepressedCubic(-12.0, 16.0)).case is CaseTag.EQUAL

    def test_near_zero_float_is_not_equal(self):
        q = 16.0 * (1 + 1e-14)
        assert compute_rs(DepressedCubic(-12.0, q)).case is CaseTag.REAL_DISTINCT

    def test_outside_band(self):
        assert compute_rs(DepressedCubic(-12.0, 16.5)).case is not CaseTag.EQUAL

    def test_exact_inputs_classify_exactly(self):
        # A rationally tiny but nonzero discriminant is NOT the equal case.
        p = Fraction(-12)
        q = Fraction(16) + Fraction(1, 10**40)
        assert compute_rs(DepressedCubic(p, q)).case is CaseTag.REAL_DISTINCT
        assert compute_rs(DepressedCubic(Fraction(-12), Fraction(16))).case is CaseTag.EQUAL


def reference_rs(d):
    """(case, r, s, exact_r, exact_s) from the Fraction formulas, each float rounded once."""
    delta = discriminant(d)
    case = CaseTag.EQUAL if delta == 0 else CaseTag.REAL_DISTINCT if delta > 0 else CaseTag.CONJUGATE_PAIR
    B, C = rs_quadratic(d)
    if case is CaseTag.EQUAL:
        return case, complex(-B / 2), complex(-B / 2), -B / 2, -B / 2
    quad = B * B - 4 * C
    if quad > 0:
        rn, rd = math.isqrt(quad.numerator), math.isqrt(quad.denominator)
        if rn * rn == quad.numerator and rd * rd == quad.denominator:
            r, s = (-B + Fraction(rn, rd)) / 2, (-B - Fraction(rn, rd)) / 2
            return case, complex(r), complex(s), r, s
    Bf, Cf = float(B), float(C)
    if abs(Bf) > 1e150:
        t1 = -Bf
    elif case is CaseTag.REAL_DISTINCT:
        w = math.sqrt(float(quad))
        t1 = -(Bf + math.copysign(w, Bf)) / 2.0 if Bf != 0 else w / 2.0
    else:
        r = complex(-Bf / 2.0, math.sqrt(-float(quad)) / 2.0)
        return case, r, r.conjugate(), None, None
    t2 = Cf / t1
    r, s = (t1, t2) if t1 >= t2 else (t2, t1)
    return case, complex(r), complex(s), None, None


def exponent(x):
    """frexp's exponent of the nonzero rational x: 2^(e-1) <= |x| < 2^e."""
    e = x.numerator.bit_length() - x.denominator.bit_length()
    return e + (abs(x) >= Fraction(2) ** e)


def bits(z):
    return (math.copysign(1.0, z.real), z.real, math.copysign(1.0, z.imag), z.imag)


exact_coefficient = st.one_of(
    st.integers(-(10**6), 10**6),
    st.integers(-(10**40), 10**40),
    st.builds(Fraction, st.integers(-(10**20), 10**20), st.integers(1, 10**9)),
)


class TestIntegerPathMatchesFractionFormulas:
    """Exact inputs run on integers; the Fraction formulas are the reference."""

    @given(exact_coefficient, exact_coefficient, exact_coefficient)
    @example(-6, 11, -6)  # roots 1, 2, 3
    @example(-5, 8, -4)  # roots 1, 2, 2: the equal case
    @example(0, -6, -9)  # exact r, s = -1/2, -4
    @example(Fraction(-1, 3), Fraction(7, 4), Fraction(-7, 12))  # (x - 1/3)(x^2 + 7/4)
    @example(0, 0, 5)
    @example(3, 3, 0)
    @example(0, 1, 2**100)  # negligible p
    def test_depress_classify_and_rs(self, a, b, c):
        cubic = GeneralCubic(a, b, c)
        d, delta = depress(cubic)
        a, b, c = cubic.a, cubic.b, cubic.c
        assert type(d.p) is Fraction and d.p == b - a * a / 3
        assert type(d.q) is Fraction and d.q == 2 * a**3 / 27 - a * b / 3 + c
        assert delta == a / 3
        pair = compute_rs(d)
        if d.p == 0 or d.q == 0:
            expected = CaseTag.DEGENERATE_P0 if d.p == 0 else CaseTag.DEGENERATE_Q0
            assert pair.case is expected
            assert pair.r is None and pair.s is None
            return
        if 2 * exponent(d.q) - 3 * exponent(d.p) > 199:
            assert pair.case is CaseTag.DEGENERATE_P0
            assert pair.r is None and pair.s is None
            return
        case, r, s, exact_r, exact_s = reference_rs(d)
        assert pair.case is case
        assert bits(pair.r) == bits(r) and bits(pair.s) == bits(s)
        assert pair.exact_r == exact_r and pair.exact_s == exact_s
        assert cardano_solve(d)[1].disc == float(discriminant(d) / 108)


@st.composite
def literal(draw, big=True):
    """An unsigned exact coefficient literal and its value: an integer, a decimal or a/b."""
    kind = draw(st.sampled_from(["integer", "decimal", "ratio"]))
    top = 10**300 if big else 10**6
    ints = st.integers(0, top) | st.integers(top // 10**60, top) if big else st.integers(0, top)
    if kind == "integer":
        n = draw(ints)
        return str(n), Fraction(n)
    if kind == "decimal":
        whole = draw(st.sampled_from(["", "0"]) | ints.map(str))
        frac = draw(st.text("0123456789", max_size=12))
        if not whole and not frac:
            frac = "5"
        return f"{whole}.{frac}", Fraction(int(whole + frac or "0"), 10 ** len(frac))
    n, d = draw(ints), draw(ints.filter(bool))
    return f"{n}/{d}", Fraction(n, d)


@st.composite
def exact_line(draw):
    """A cubic's text and its coefficient sums (c, b, a, lead): repeated powers, zero
    coefficients, bare x-parts, optional '*', spaces and '= 0'; the lead is nonzero."""
    terms = [(3, draw(literal(big=False).filter(lambda lit: lit[1] != 0)))]
    for _ in range(draw(st.integers(0, 6))):
        power = draw(st.integers(0, 3))
        bare = power and draw(st.booleans())
        terms.append((power, ("", Fraction(1)) if bare else draw(literal())))
    terms = draw(st.permutations(terms))
    sums, text = [Fraction(0)] * 4, ""
    for i, (power, (digits, value)) in enumerate(terms):
        negative = draw(st.booleans())
        sums[power] += -value if negative else value
        sign = "-" if negative else "+" if i or draw(st.booleans()) else ""
        star = "*" if digits and power and draw(st.booleans()) else ""
        x = ["", "x", "x^2", "x^3"][power]
        if power == 1 and draw(st.booleans()):
            x = "x^1"
        space = draw(st.sampled_from(["", " "]))
        text += f"{space}{sign}{space}{digits}{star}{x}"
    if draw(st.booleans()):
        text += draw(st.sampled_from(["=0", " = 0"]))
    return text, sums


class TestParsedIntegerPath:
    """parse_cubic -> depress -> compute_rs on exact lines against plain Fraction arithmetic,
    and parse_cubic on float lines against per-sum rounding."""

    @given(
        exact_line(),
        st.integers(0, 3),
        st.booleans(),
        st.integers(2, 10**12).filter(lambda m: math.isqrt(m) ** 2 != m),
    )
    @example(("2x^3 - 3x + 1", [1, -3, 0, 2]), 2, False, 2)  # 2x^3 + sqrt(2)x^2 - 3x + 1
    @example(("-1.4142135623730951x^3 + x", [0, 1, 0, Fraction(-14142135623730951, 10**16)]), 3, False, 2)  # lead 0.0
    @example((f"1/1{'0' * 330}x^3 + x", [0, 1, 0, Fraction(1, 10**330)]), 0, True, 3)  # the lead rounds to 0.0
    @example((f"1/1{'0' * 310}x^3 + x", [0, 1, 0, Fraction(1, 10**310)]), 0, False, 3)  # b / lead overflows
    def test_float_lines_round_each_sum_once_then_divide_by_the_lead(self, line, power, negative, m):
        # A sqrt(m) term written last at its power: the parser rounds that power's
        # exact sum once and adds the root, as it rounds every other sum once.
        text, sums = line
        head, eq, tail = text.partition("=")
        text = f"{head}{'-' if negative else '+'}sqrt({m}){['', 'x', 'x^2', 'x^3'][power]}{eq}{tail}"
        rounded = [float(v) for v in sums]
        rounded[power] += -math.sqrt(m) if negative else math.sqrt(m)
        c, b, a, lead = rounded
        if lead == 0:  # no x^3 term, or an exact lead that rounds to 0.0
            with pytest.raises(ParseError if sums[3] == 0 or power == 3 else InvalidInputError):
                parse_cubic(text)
            return
        expected = a / lead, b / lead, c / lead
        if not all(map(math.isfinite, expected)):
            with pytest.raises(InvalidInputError):
                parse_cubic(text)
            return
        assert repr(tuple(parse_cubic(text))) == repr(expected)

    @given(exact_line())
    @example(("-3x^3 + 6x^2 + 0x - 1/2 = 0", [Fraction(-1, 2), Fraction(0), Fraction(6), Fraction(-3)]))
    @example(("x^3 + x^3 - 12x + 16 - 0.5x^3", [Fraction(16), Fraction(-12), Fraction(0), Fraction(3, 2)]))
    @example(("2/3x^3 - 2x", [Fraction(0), Fraction(-2), Fraction(0), Fraction(2, 3)]))
    @example(("x^3-6x-9=0", [Fraction(-9), Fraction(-6), Fraction(0), Fraction(1)]))  # exact r, s = -1/2, -4
    @example(("-x^3 + 12x - 16", [Fraction(-16), Fraction(12), Fraction(0), Fraction(-1)]))  # equal, r = s = 2
    def test_parse_depress_and_rs_match_fraction_formulas(self, line):
        text, (c, b, a, lead) = line
        assume(lead != 0)
        cubic = parse_cubic(text)
        assert cubic == GeneralCubic(a / lead, b / lead, c / lead)
        assert all(type(v) is Fraction for v in cubic)
        d = depress(cubic)[0]
        try:
            pair = compute_rs(d)
        except OverflowError:  # only a float r or s beyond the double range may overflow
            B, C = rs_quadratic(d)
            assert abs(B) > 2**1000 or abs(C) > 2**2000
            return
        if d.p == 0 or d.q == 0 or 2 * exponent(d.q) - 3 * exponent(d.p) > 199:
            assert pair.case is (CaseTag.DEGENERATE_Q0 if d.p and not d.q else CaseTag.DEGENERATE_P0)
            assert pair.exact_r is None and pair.exact_s is None
            return
        delta = discriminant(d)
        assert pair.case is (CaseTag.EQUAL if delta == 0 else CaseTag.REAL_DISTINCT if delta > 0 else CaseTag.CONJUGATE_PAIR)
        B, C = rs_quadratic(d)
        quad = B * B - 4 * C
        root = Fraction(math.isqrt(quad.numerator), math.isqrt(quad.denominator)) if quad >= 0 else None
        exact = ((-B + root) / 2, (-B - root) / 2) if root is not None and root * root == quad else (None, None)
        assert (pair.exact_r, pair.exact_s) == exact


@pytest.mark.parametrize("p", [15 * 10**307, -15 * 10**307], ids=["positive", "negative"])
def test_exact_p_near_double_limit_gives_finite_roots(p):
    # 4C = -4p/3 exceeds the double range there, so B^2 - 4C cannot be
    # rounded as it stands; its square root can.
    triple = solve(GeneralCubic(0, p, 1))
    assert all(math.isfinite(x.real) and math.isfinite(x.imag) for x in triple.roots)
    assert max(abs(x) for x in triple.roots) == pytest.approx(math.sqrt(abs(p)), rel=1e-12)


def reference_float_rs(p, q):
    """compute_rs of float p, q != 0 by the reference formulas: the sign of
    discriminant, rs_quadratic, B*B - 4C and ldexp by k."""
    ep, eq = math.frexp(p)[1], math.frexp(q)[1]
    if 2 * eq - 3 * ep > 199:
        return RsPair(None, None, CaseTag.DEGENERATE_P0)
    k = max(-(-ep // 2), -(-eq // 3))
    k = k if abs(k) > 100 else 0
    d = DepressedCubic(math.ldexp(p, -2 * k), math.ldexp(q, -3 * k))
    if d.q == 0:  # q underflowed at unit scale: x^3 + px
        case = CaseTag.REAL_DISTINCT if d.p > 0 else CaseTag.CONJUGATE_PAIR
    else:
        delta = discriminant(d)
        case = CaseTag.EQUAL if delta == 0 else CaseTag.REAL_DISTINCT if delta > 0 else CaseTag.CONJUGATE_PAIR
    B, C = rs_quadratic(d)
    if case is CaseTag.EQUAL:
        half = complex(math.ldexp(-B / 2, k))
        return RsPair(half, half, case)
    disc = B * B - 4.0 * C
    if case is CaseTag.REAL_DISTINCT:
        w = math.sqrt(abs(disc))
        t1 = -(B + math.copysign(w, B)) / 2.0 if B != 0 else w / 2.0
        t2 = C / t1
        r, s = (t1, t2) if t1 >= t2 else (t2, t1)
        return RsPair(complex(math.ldexp(r, k)), complex(math.ldexp(s, k)), case)
    r = complex(math.ldexp(-B / 2.0, k), math.ldexp(math.sqrt(-disc) / 2.0, k))
    return RsPair(r, r.conjugate(), case)


nonzero_float = st.floats(allow_nan=False, allow_infinity=False).filter(bool)


@given(nonzero_float, nonzero_float)
@example(-12.0 * 2.0**300, 16.0 * 2.0**450)  # the equal case, out of band
@example(-12.0, 16.0 * (1 + 1e-14))  # near the equal case, not in it
@example(1e300, 1e-10)
@example(-3e200, 2e300)
@example(1e-300, 1e-200)
@example(2.0**400, 1e-200)  # q underflows at unit scale
@example(-(2.0**400), 1e-200)
def test_float_compute_rs_matches_reference_formulas_bitwise(p, q):
    assert repr(compute_rs(DepressedCubic(p, q))) == repr(reference_float_rs(p, q))
