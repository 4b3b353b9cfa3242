import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rscubic import (
    CaseTag,
    DepressedCubic,
    GeneralCubic,
    InvalidInputError,
    NestedRadical,
    ParseError,
    RsPair,
    compute_rs,
    denest,
    depress,
    parse_cubic,
    solve,
    solve_depressed,
)
import rscubic.chen
import rscubic.decompose
from rscubic.decompose import _rs_float
from rscubic.numerics import _R, _ratio, _ratio_exponent, _scaled

from paper_identities import discriminant, rs_quadratic

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
        assert Fraction(6) / (3 * pair.exact_r) == -4  # the exact s is -p/(3 exact_r)
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
    """(case, r, s, exact_r) from the Fraction formulas, each float rounded once."""
    delta = discriminant(d)
    case = CaseTag.EQUAL if delta == 0 else CaseTag.REAL_DISTINCT if delta > 0 else CaseTag.CONJUGATE_PAIR
    B, C = rs_quadratic(d)
    if case is CaseTag.EQUAL:
        return case, complex(-B / 2), complex(-B / 2), -B / 2
    quad = B * B - 4 * C
    if quad > 0:
        rn, rd = math.isqrt(quad.numerator), math.isqrt(quad.denominator)
        if rn * rn == quad.numerator and rd * rd == quad.denominator:
            r, s = (-B + Fraction(rn, rd)) / 2, (-B - Fraction(rn, rd)) / 2
            return case, complex(r), complex(s), r
    Bf, Cf = float(B), float(C)
    if abs(Bf) > 1e150:
        t1 = -Bf
    elif case is CaseTag.REAL_DISTINCT:
        w = math.sqrt(float(quad))
        t1 = -(Bf + math.copysign(w, Bf)) / 2.0 if Bf != 0 else w / 2.0
    else:
        r = complex(-Bf / 2.0, math.sqrt(-float(quad)) / 2.0)
        return case, r, r.conjugate(), None
    t2 = Cf / t1
    r, s = (t1, t2) if t1 >= t2 else (t2, t1)
    return case, complex(r), complex(s), None


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
    @example(2195635245840476761639769790216, 0, 1)  # k = 101: out of band
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
        case, r, s, exact_r = reference_rs(d)
        assert pair.case is case
        assert bits(pair.r) == bits(r) and bits(pair.s) == bits(s)
        assert pair.exact_r == exact_r


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
        except InvalidInputError:  # only a float r or s beyond the double range is refused
            B, C = rs_quadratic(d)
            assert abs(B) > 2**1000 or abs(C) > 2**2000
            return
        if d.p == 0 or d.q == 0 or 2 * exponent(d.q) - 3 * exponent(d.p) > 199:
            assert pair.case is (CaseTag.DEGENERATE_Q0 if d.p and not d.q else CaseTag.DEGENERATE_P0)
            assert pair.exact_r is None
            return
        delta = discriminant(d)
        assert pair.case is (CaseTag.EQUAL if delta == 0 else CaseTag.REAL_DISTINCT if delta > 0 else CaseTag.CONJUGATE_PAIR)
        B, C = rs_quadratic(d)
        quad = B * B - 4 * C
        root = Fraction(math.isqrt(quad.numerator), math.isqrt(quad.denominator)) if quad >= 0 else None
        assert pair.exact_r == ((-B + root) / 2 if root is not None and root * root == quad else None)

    @given(exact_line(), st.fractions(-1000, 1000, max_denominator=1000), st.integers(0, 10**4))
    @example(("-2.5x^3 + 3x - 1.5", [Fraction(-3, 2), Fraction(3), Fraction(0), Fraction(-5, 2)]), Fraction(1, 2), 3)
    @example(("-0.75x^3 - 4.5x^2 + 6/4x + 1.25x - 9", [-9, Fraction(11, 4), Fraction(-9, 2), Fraction(-3, 4)]), -3, 0)
    @example(("-2x^3 + 24x - 32", [-32, 24, 0, -2]), Fraction(-5, 3), 7)  # equal: an exact r = s = 2
    def test_every_returned_fraction_is_in_lowest_terms(self, line, s, m):
        # Exact values are built from integers the package already holds, each reduced
        # once (gcd(n, d) = 1 and d > 0): from parse_cubic, solve and denest alike.
        text, (c, b, a, lead) = line
        assume(lead != 0)
        cubic = parse_cubic(text)
        d, shift = depress(cubic)
        values = [*cubic, *d, shift]
        try:
            triple = solve(cubic)
        except InvalidInputError:  # an r or s beyond the double range
            triple = None
        if triple is not None:
            assert (triple.depressed, triple.shift) == (d, shift)
            values += [v for e in triple.exact or () if e is not None for v in e[:2]]
            values += [triple.pair.exact_r] if triple.pair.exact_r is not None else []
        # With u, v = s +- sqrt(m): u v = s^2 - m and u^3 + v^3 = 2 (s^3 + 3 s m), so the value is 2s.
        radical = denest(NestedRadical(s**3 + 3 * s * m, 9 * s**4 * m + 6 * s**2 * m**2 + m**3))
        assert radical.exact == 2 * s
        values += [radical.exact] + [v for v in radical.cubic if type(v) is not float]
        for value in values:
            assert type(value) is Fraction
            assert value.denominator > 0 and math.gcd(value.numerator, value.denominator) == 1


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


def scale_route_rs(P, dp, Q, dq):
    """The exact compute_rs of p = P/dp, q = Q/dq on the scale route: both exponents and
    k for every cubic, the square test on n * 3 P^2 dp dq^2, and every float by _ratio."""
    ep, eq = _ratio_exponent(P, dp), _ratio_exponent(Q, dq)
    if P == 0 or Q != 0 and 2 * eq - 3 * ep > 199:
        return RsPair(None, None, CaseTag.DEGENERATE_P0)
    if Q == 0:
        return RsPair(None, None, CaseTag.DEGENERATE_Q0)
    k = max(-(-ep // 2), -(-eq // 3))
    k = k if abs(k) > 100 else 0
    n = 4 * P**3 * dq**2 + 27 * Q**2 * dp**3
    b_num, b_den = 3 * Q * dp, dq * P
    if n == 0:
        half = Fraction(-b_num, 2 * b_den)
        return RsPair(complex(half), complex(half), CaseTag.EQUAL, half)
    case = CaseTag.REAL_DISTINCT if n > 0 else CaseTag.CONJUGATE_PAIR
    disc_den = 3 * P * P * dp * dq * dq
    if n > 0:
        square = n * disc_den
        root = math.isqrt(square)
        if root * root == square:
            den = 2 * b_den * disc_den
            r = Fraction(root * b_den - b_num * disc_den, den)
            return RsPair(complex(r), complex((-root * b_den - b_num * disc_den) / den), case, r)
    w = math.sqrt(_ratio(abs(n), disc_den, -2 * k))
    return _rs_float(case, _ratio(b_num, b_den, -k), _ratio(-P, 3 * dp, -2 * k), w, k)


def with_exponent(x, e):
    """x times the power of 2 that gives it frexp's exponent e."""
    shift = e - exponent(x)
    return x * 2**shift if shift >= 0 else x / 2**-shift


signed_mantissa = st.builds(
    lambda n, d, negative: Fraction(-n if negative else n, d),
    st.integers(1, 2**64),
    st.sampled_from([1, 3, 2**20]) | st.integers(1, 2**40),
    st.booleans(),
)


@st.composite
def edge_pq(draw):
    """Exact (p, q) whose exponents sit at the band shortcut's edges: |k| in {99, 100, 101}
    (k = max(ceil(e_p/2), ceil(e_q/3))), 2 e_q - 3 e_p in 195..203, or p or q zero."""
    kind = draw(st.sampled_from(["p decides k", "q decides k", "negligible p", "p = 0", "q = 0"]))
    k = draw(st.sampled_from([99, 100, 101])) * draw(st.sampled_from([1, -1]))
    if kind == "p decides k":
        ep, eq = 2 * k + draw(st.integers(-3, 1)), 3 * k - draw(st.integers(0, 60))
    elif kind == "q decides k":
        ep, eq = 2 * k - draw(st.integers(0, 60)), 3 * k + draw(st.integers(-4, 2))
    else:
        ep = draw(st.integers(-150, 150))
        eq = -(-(draw(st.integers(195, 203)) + 3 * ep) // 2)  # 2 e_q - 3 e_p is t or t + 1
    p, q = with_exponent(draw(signed_mantissa), ep), with_exponent(draw(signed_mantissa), eq)
    if kind == "p = 0":
        p = 0
    elif kind == "q = 0":
        q = 0
    return p, q


def outcome(f, *args):
    """repr of f's result, or of the error it raises."""
    try:
        return repr(f(*args))
    except (ArithmeticError, ValueError) as error:
        return f"{type(error).__name__}: {error}"


def triage_route_rs(p, q):
    """The float compute_rs on the scale route: _triage decides every cubic from both exponents."""
    tag, k = rscubic.decompose._triage(p, q, math.frexp(p)[1], math.frexp(q)[1])
    if tag is not None:
        return RsPair(None, None, tag)
    if k:
        p, q = math.ldexp(p, -2 * k), math.ldexp(q, -3 * k)
    delta = 4 * p**3 + 27 * q**2
    B, C = 3 * q / p, -p / 3
    if delta == 0:
        half = complex(_scaled(-B / 2, k, _R))
        return RsPair(half, half, CaseTag.EQUAL)
    case = CaseTag.REAL_DISTINCT if delta > 0 else CaseTag.CONJUGATE_PAIR
    return _rs_float(case, B, C, math.sqrt(abs(B * B - 4.0 * C)), k)


def pair_outcome(f, arg):
    """repr of f(arg).pair, or of the error f raises."""
    return outcome(lambda: f(arg).pair)


wide_float = st.builds(
    lambda m, e, negative: math.ldexp(-m if negative else m, e),
    st.floats(1.0, 2.0, exclude_max=True),
    st.integers(-1074, 1023),
    st.booleans(),
)


class TestFloatShortcutMatchesTriage:
    """compute_rs settles an in-band float cubic's k = 0 with one magnitude test; _triage decides
    every float cubic from both exponents, and both give the same pair, bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(st.tuples(wide_float | st.just(0.0), wide_float | st.just(0.0)) | edge_pq().map(lambda pq: (float(pq[0]), float(pq[1]))))
    @example((2.0**199, 1.0))  # |p| = 2^199: the shortcut's top, taken by _triage
    @example((-math.nextafter(2.0**199, 0.0), 2.0**290))
    @example((2.0**-199, 2.0**-300))  # |p| = 2^-199: its bottom, in the shortcut
    @example((-math.nextafter(2.0**-199, 0.0), 2.0**-300))
    @example((2.0**150, 2.0**300))  # |q| = 2^300: k = 101
    @example((2.0**150, -math.nextafter(2.0**300, 0.0)))  # k = 100
    @example((2.0, 2.0**100))  # 2 e_q - 3 e_p = 196
    @example((1.0, 2.0**99))  # 197
    @example((2.0, 1.5 * 2.0**101))  # 198
    @example((1.0, -(2.0**100)))  # 199: not negligible
    @example((-2.0, 2.0**102))  # 200: negligible
    @example((1.0, 1.999 * 2.0**101))  # 201
    def test_compute_rs_matches_bitwise(self, pq):
        p, q = pq
        d = DepressedCubic(p, q)
        expected = outcome(triage_route_rs, p, q)
        assert outcome(compute_rs, d) == expected
        assert pair_outcome(solve_depressed, d) == expected
        assert pair_outcome(solve, GeneralCubic(0.0, p, q)) == expected


class TestBandShortcutMatchesScaleRoute:
    """compute_rs and the solve step settle k = 0 from bit lengths and round by plain int / int
    divisions in band; the scale route decides every cubic from both exponents."""

    @settings(max_examples=300, deadline=None)
    @given(edge_pq())
    @example((-(2**199), 2**298))  # e_p = 200, e_q = 299: k = 100, in band
    @example((2**200, 2**299))  # k = 101
    @example((Fraction(1, 2**201), Fraction(1, 2**302)))  # e_p = -200, e_q = -301: k = -100
    @example((1, 2**100))  # 2 e_q - 3 e_p = 199: not negligible
    @example((1, 2**101))  # 201: negligible
    def test_compute_rs_matches_bitwise(self, pq):
        d = DepressedCubic(*pq)
        p, q = d
        expected = repr(scale_route_rs(p.numerator, p.denominator, q.numerator, q.denominator))
        assert repr(compute_rs(d)) == expected
        assert repr(solve_depressed(d).pair) == expected
        assert repr(solve(GeneralCubic(0, p, q)).pair) == expected

    @settings(max_examples=300, deadline=None)
    @given(
        st.tuples(signed_mantissa, st.integers(-600, 600)).map(lambda m: with_exponent(*m)),
        st.tuples(signed_mantissa, st.integers(-600, 600)).map(lambda m: with_exponent(*m)),
    )
    @example(Fraction(1, 2), -4)
    @example(10**150, 10**140)  # k = 500: out of band
    def test_square_test_finds_the_same_exact_r(self, r, s):
        # p = -3rs, q = rs(r + s): the quadratic discriminant is (r - s)^2, a rational square.
        assume(r != s and r != -s)
        d = DepressedCubic(-3 * r * s, r * s * (r + s))
        p, q = d
        expected = scale_route_rs(p.numerator, p.denominator, q.numerator, q.denominator)
        pair = compute_rs(d)
        assert repr(pair) == repr(expected)
        if pair.case is not CaseTag.DEGENERATE_P0:
            assert pair.exact_r == max(r, s)

    @settings(max_examples=300, deadline=None)
    @given(edge_pq(), st.tuples(signed_mantissa, st.integers(-110, 110)).map(lambda m: with_exponent(*m)) | st.just(0))
    @example((-3, 2), 2**99)  # delta = 2^99: a = 3 2^99 has exponent 101
    @example((-3, 2), 2**100)
    @example((-(2**199), 2**298), 1)
    @example((-3, 3), 2**400)  # one real root and a pair, shifted by -2^400: k = 401, and c has no double
    def test_solve_matches_bitwise(self, pq, delta):
        # solve_depressed and solve of the cubic shifted by delta, against the same calls on the
        # scale route: compute_rs by scale_route_rs, the step's k from both exponents.
        p, q = (Fraction(v) for v in pq)
        cubic = GeneralCubic(3 * delta, 3 * delta**2 + p, delta**3 + p * delta + q)
        got = outcome(solve_depressed, DepressedCubic(p, q)), outcome(solve, cubic)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rscubic.decompose, "_compute_rs_exact", scale_route_rs)
            patch.setattr(rscubic.chen, "_BAND_HIGH", 0.0)  # no cubic is in band for the step's shortcut
            assert got == (outcome(solve_depressed, DepressedCubic(p, q)), outcome(solve, cubic))
