"""The solve step: one dominant root from (r, s), the other two deflated.

Roots are judged by forward error against an arbitrary-precision oracle
(mpmath) or against planted exact roots, root by root, on cubics whose
roots span many decades: the cases where lifting all three depressed roots
by -a/3 in doubles lost the small ones.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rscubic import CaseTag, DepressedCubic, GeneralCubic, solve, solve_depressed

mpmath = pytest.importorskip("mpmath")


def oracle(a, b, c):
    """Roots of x^3 + ax^2 + bx + c for float or exact a, b, c, by mpmath at 150 digits."""
    with mpmath.workdps(150):
        a, b, c = (mpmath.mpf(v.numerator) / v.denominator if isinstance(v, Fraction) else mpmath.mpf(v) for v in (a, b, c))
        if c == 0:
            w = mpmath.sqrt(a * a - 4 * b)
            big = (-a - w) / 2 if a >= 0 else (-a + w) / 2
            return [0j, complex(big), complex(b / big) if big else 0j]
        lam = mpmath.ldexp(1, int(mpmath.floor(mpmath.log(2 * max(abs(a), mpmath.sqrt(abs(b)), mpmath.cbrt(abs(c))), 2))))
        roots = mpmath.polyroots([1, a / lam, b / lam**2, c / lam**3], maxsteps=400, extraprec=800)
        return [complex(z * lam) for z in roots]


def separated(roots, gap=1e-2):
    """The roots whose distance to every other root is at least gap times their modulus."""
    return [z for i, z in enumerate(roots) if all(abs(z - w) >= gap * abs(z) for j, w in enumerate(roots) if j != i)]


def assert_forward_error(got, want, rel):
    for z in separated(want):
        err = min(abs(x - z) for x in got)
        assert err <= rel * abs(z), (got, want)


def from_roots(x0, x1, x2):
    return GeneralCubic(-(x0 + x1 + x2), x0 * x1 + x0 * x2 + x1 * x2, -(x0 * x1 * x2))


def from_real_and_pair(x0, re, im):
    m = re * re + im * im
    return GeneralCubic(-(x0 + 2 * re), 2 * re * x0 + m, -(x0 * m))


def test_small_real_root_under_a_huge_pair():
    # A root of about -4.1e73 beside a pair of modulus 2.7e98; the lift read it as -1.5e82.
    den = 203442979431155455783273
    a = Fraction(
        49224720357133513109266565327252557924887179090655426809783263214488723587135459310265040588341597563821590733808485634631,
        den,
    )
    b = Fraction(
        14443510890611727045238917507321558224827454826064893851514430107170939463474151647524171008095375744832391735419868893779274755544074986759356669120199847523147492411113608307253994362636678660888456792239362703725719913,
        den,
    )
    c = Fraction(
        592600072784693656119024053678875513663959872838862107982530446023256661400565494754063102353188557240205508166351894020640609983553471988872235948044547470500930827025079603253782777129897731450223545184601314373416480506040216480242410045180019093360641778019249637610521197834918117608624711,
        den,
    )
    triple = solve(GeneralCubic(a, b, c))
    assert triple.case is CaseTag.REAL_DISTINCT
    want = oracle(a, b, c)
    assert_forward_error(triple.roots, want, 1e-14)
    assert triple.roots[0].real == pytest.approx(-4.1028810603790474e73, rel=1e-14)


def test_exact_double_root_keeps_a_far_smaller_simple_root():
    # (x - 10^20)^2 (x - 3): the shifted float roots lost 3 entirely; the exact triple holds it.
    r, t = 10**20, 3
    triple = solve(GeneralCubic(-(2 * r + t), r * r + 2 * r * t, -r * r * t))
    assert triple.case is CaseTag.EQUAL
    assert triple.roots == (complex(3), complex(1e20), complex(1e20))
    assert [e.rational for e in triple.exact if not e.surd_coef] == [3, r, r]
    assert triple.multiplicity == ((1, 2),)


@pytest.mark.parametrize("kind", [Fraction, float], ids=["exact", "float"])
def test_zero_constant_gives_an_exact_zero_root(kind):
    # x^3 - 55x^2 + 1322x = x (x^2 - 55x + 1322): roots 0 and 27.5 +- i sqrt(2263)/2.
    triple = solve(GeneralCubic(kind(-55), kind(1322), kind(0)))
    assert triple.case is CaseTag.REAL_DISTINCT
    assert triple.roots == (0j, complex(27.5, -math.sqrt(2263) / 2), complex(27.5, math.sqrt(2263) / 2))


@pytest.mark.parametrize("kind", [Fraction, float], ids=["exact", "float"])
def test_zero_constant_three_real_roots(kind):
    # x (x - 1)(x - 3): the quotient x^2 - 4x + 3 gives 1 and 3 exactly.
    triple = solve(GeneralCubic(kind(-4), kind(3), kind(0)))
    assert triple.case is CaseTag.CONJUGATE_PAIR
    assert triple.roots == (0j, complex(1), complex(3))


@pytest.mark.parametrize("b", [-2, -3, -1021])
@pytest.mark.parametrize("kind", [Fraction, float], ids=["exact", "float"])
def test_symmetric_roots_come_out_symmetric(b, kind):
    # x^3 + bx: the deflated quadratic x^2 + b has S = 0, and P / x1 read sqrt(2) one ulp low.
    w = math.sqrt(-b)
    for triple in (solve_depressed(DepressedCubic(kind(b), kind(0))), solve(GeneralCubic(0, kind(b), 0))):
        assert triple.roots == (complex(-w), 0j, complex(w))


def test_exact_zero_constant_keeps_a_near_double_pair():
    # x (x^2 - 2x + 1 + 10^-18): roots 0 and 1 +- 10^-9 i. Rounded, b is 1.0 and S^2 - 4P
    # reads 0; the exact quotient's discriminant, -4e-18, keeps the pair.
    triple = solve(GeneralCubic(-2, 1 + Fraction(1, 10**18), 0))
    assert triple.case is CaseTag.REAL_DISTINCT
    assert triple.roots == (0j, complex(1, -1e-9), complex(1, 1e-9))
    assert triple.multiplicity == ()


@pytest.mark.parametrize(
    "abc",
    [(-55, 1322, 0), (-4, 3, 0), (1, 0, 0), (0, -1, 0), (-2, 1, 0), (3, 3, 1), (0, 3, 0), (-1e-300, 0.0, 0.0)],
)
@pytest.mark.parametrize("kind", [Fraction, float], ids=["exact", "float"])
def test_no_root_has_a_negative_zero(abc, kind):
    triple = solve(GeneralCubic(*(kind(v) for v in abc)))
    for z in triple.roots:
        for part in (z.real, z.imag):
            assert part != 0 or math.copysign(1.0, part) == 1.0, triple.roots


@pytest.mark.parametrize("p, q", [(-3, 1), (-7.0, 6.0), (-13, -12), (Fraction(-3, 4), Fraction(1, 8))])
def test_trig_offsets_follow_the_roots_without_a_sort(p, q):
    triple = solve_depressed(DepressedCubic(p, q))
    # The cosine form, read off r: root k is amplitude * cos(offset k), with no sort.
    r = triple.pair.r
    theta, amplitude = math.atan2(r.imag, r.real), -2.0 * abs(r)
    t = theta / 3
    assert 0 < theta <= math.pi
    for root, offset in zip(triple.roots, (t, t + 4 * math.pi / 3, t + 2 * math.pi / 3)):
        assert amplitude * math.cos(offset) == pytest.approx(root.real, rel=1e-14, abs=1e-14)


def test_exact_cluster_far_from_zero_keeps_every_digit():
    # Rounding a, b, c loses what tells these roots apart; exact p and q keep it.
    for e in (100, 200, -200):
        big = Fraction(10) ** e
        planted = (big, big * (1 + Fraction(1, 10**6)), big * (1 + Fraction(3, 10**6)))
        triple = solve(from_roots(*planted))
        for x, want in zip(triple.roots, planted):
            assert abs(x - float(want)) <= 4e-16 * float(want)


@given(st.floats(-50, 50), st.floats(-50, 50))
def test_solve_and_solve_depressed_run_one_step(p, q):
    for pq in ((p, q), (Fraction(p), Fraction(q))):
        assert solve(GeneralCubic(0, *pq)).roots == solve_depressed(DepressedCubic(*pq)).roots


def magnitude():
    return st.builds(lambda m, e, sign: sign * m * 10.0**e, st.floats(1, 10), st.integers(-30, 30), st.sampled_from([-1, 1]))


def refined(cubic, starts):
    """The roots of the float cubic nearest each start, by Newton's method in mpmath at 60 digits."""
    with mpmath.workdps(60):
        a, b, c = (mpmath.mpf(v) for v in cubic)
        roots = []
        for x in starts:
            x = mpmath.mpc(x)
            for _ in range(20):
                x -= (((x + a) * x + b) * x + c) / ((3 * x + 2 * a) * x + b)
            roots.append(complex(x))
        return roots


@settings(max_examples=300, deadline=None)
@given(st.tuples(magnitude(), magnitude(), magnitude()), st.booleans(), st.booleans())
def test_wide_magnitude_roots_match_mpmath(values, pair, exact):
    # Three real roots, or one real root and a pair re +- i im, over 60 decades;
    # exact cubics are judged against the planted roots, float ones against the
    # roots of their rounded coefficients.
    if exact:
        values = tuple(Fraction(v) for v in values)
    cubic = from_real_and_pair(*values) if pair else from_roots(*values)
    x0, u, v = (complex(x) for x in values)
    want = separated([x0, complex(u, v), complex(u, -v)] if pair else [x0, u, v])
    if not exact:
        want = refined(cubic, want)
    roots = solve(cubic).roots
    for z in want:
        assert min(abs(x - z) for x in roots) <= 1e-10 * abs(z), (roots, want)


@pytest.mark.parametrize("im2", [Fraction(1, 10**18), Fraction(1, 10**10)], ids=["im 1e-9", "im 1e-5"])
def test_exact_near_double_pair_keeps_its_imaginary_part(im2):
    # (x - 1)((x - 2)^2 + im^2): the rounded S^2 - 4P cancels to about eps, so
    # deflation would read im to sqrt(eps) or call the pair a real double root.
    a, b, c = Fraction(-5), 8 + im2, -(4 + im2)
    triple = solve(GeneralCubic(a, b, c))
    assert triple.case is CaseTag.REAL_DISTINCT
    want = oracle(a, b, c)
    for z in want:
        assert min(abs(x - z) for x in triple.roots) <= 4e-16 * abs(z), (triple.roots, want)


def named_roots_agree(triple):
    return all(triple.roots[i + j] == triple.roots[i] for i, count in triple.multiplicity for j in range(count))


def test_float_equal_tag_beside_a_large_root_keeps_its_pair_and_names_no_double():
    # The depressed discriminant cancels to 0, so the tag reads equal; the
    # roots are -3.79e7 and the pair -2.99e-6 +- 3.01e-6i.
    a, b, c = 37914431.98111624, 227.09623455672488, 0.0006828256916087546
    triple = solve(GeneralCubic(a, b, c))
    assert triple.case is CaseTag.EQUAL
    assert triple.multiplicity == ()
    assert_forward_error(triple.roots, oracle(a, b, c), 1e-12)


@pytest.mark.parametrize("r, t", [(1, -2), (-1, 2), (0.25, -0.5), (7, -14), (100, 1), (1024, 1e6)])
def test_float_double_root_is_reported_twice(r, t):
    triple = solve(from_roots(float(r), float(r), float(t)))
    assert triple.case is CaseTag.EQUAL
    assert triple.multiplicity == (((0, 2),) if r < t else ((1, 2),))
    assert named_roots_agree(triple)
    assert sorted(z.real for z in triple.roots) == pytest.approx(sorted([r, r, t]), rel=1e-15)


@settings(max_examples=300, deadline=None)
@given(magnitude(), magnitude(), st.booleans())
def test_multiplicity_names_equal_roots(r, t, exact):
    if exact:
        r, t = Fraction(r), Fraction(t)
    triple = solve(from_roots(r, r, t))
    assert named_roots_agree(triple), (triple.roots, triple.multiplicity)


@settings(max_examples=300, deadline=None)
@given(magnitude(), st.floats(1e-3, 1e3), st.integers(0, 15), st.floats(1, 10))
def test_exact_near_double_pair_beside_its_real_root(re, ratio, j, m):
    # Exact x0 = ratio * re and a pair re +- i im with im = m |re| 10^-j: the closed
    # form keeps im where the rounded S^2 - 4P cannot see it.
    x0, re = Fraction(ratio) * Fraction(re), Fraction(re)
    im = abs(re) * Fraction(m) / 10**j
    roots = solve(from_real_and_pair(x0, re, im)).roots
    for z in (complex(x0), complex(re, im), complex(re, -im)):
        assert min(abs(x - z) for x in roots) <= 1e-10 * abs(z), (roots, x0, re, im)


def rational():
    return st.builds(
        lambda n, d, e, sign: sign * Fraction(n, d) * Fraction(10) ** e,
        st.integers(1, 999),
        st.integers(1, 999),
        st.integers(-37, 37),
        st.sampled_from([-1, 1]),
    )


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["double", "triple", "surd"]), rational(), rational(), st.integers(0, 80), st.booleans())
def test_three_rational_roots_are_rounded_once(family, u, v, j, depressed):
    # (x - r)^2 (x - s), (x - m)^3 and (x - m)((x - m)^2 - w^2) over 80 decades, with s
    # as close as 2^-80 |r| to r, or w as small as 2^-80 |m|: distinct values that round
    # to one double are still no multiple root. Depressed (m = 0, s = -2r) through
    # solve_depressed.
    if family == "double":
        r = u
        s = -2 * r if depressed else r * (1 + Fraction(1, 2**j)) if j else v
        planted = (r, r, s)
        mult = ((0, 3),) if r == s else ((0, 2),) if r < s else ((1, 2),)
    else:
        m = 0 if depressed else u
        if family == "triple":
            planted, mult = (m, m, m), ((0, 3),)
        else:
            w = abs(u) / 2**j if j and not depressed else v
            planted, mult = (m - w, m, m + w), ()
    cubic = from_roots(*planted)
    triple = solve_depressed(DepressedCubic(cubic.b, cubic.c)) if depressed else solve(cubic)
    want = sorted(planted)
    assert [e.rational for e in triple.exact if not e.surd_coef] == want
    assert triple.roots == tuple(complex(float(x)) for x in want)
    assert triple.multiplicity == mult


T = Fraction(1, 10**20)


@pytest.mark.parametrize(
    "abc",
    [
        (-3, 2 + 2 * T - T * T, T * T - 2 * T),  # roots 10^-20, 1, 2 - 10^-20
        (-3, 3, -T),  # (x - 1)^3 + 1 - 10^-20: a real root 3.3e-21 and a pair
        (-3.0, 3.0, -1e-20),
        (-8, Fraction(43, 3), Fraction(-8, 27)),  # 8/3 and 8/3 +- sqrt(7)
    ],
    ids=["q0 exact", "p0 exact", "p0 float", "q0 surd"],
)
def test_degenerate_tags_match_mpmath(abc):
    # Lifting the depressed roots by -a/3 in doubles read the small root as 0, or 1.3e-14 off.
    triple = solve(GeneralCubic(*abc))
    assert triple.case in (CaseTag.DEGENERATE_P0, CaseTag.DEGENERATE_Q0)
    want = oracle(*abc)
    for z in want:
        assert min(abs(x - z) for x in triple.roots) <= 4e-16 * abs(z), (triple.roots, want)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(10, 40000),
    st.floats(1, 4.6),
    st.integers(-30, 30),
    st.sampled_from([-1, 1]),
    st.booleans(),
    st.booleans(),
)
def test_shifted_degenerate_cubics_match_mpmath(n, spread, e, sign, cube, exact):
    # A cluster of radius w about -d, |d| = n 2^e = 10^(1..4.6) w: the progression
    # (x + d)((x + d)^2 - w^2) (q = 0) or the shifted cube (x + d)^3 + w^3 (p = 0).
    # Integers under 2^53 times powers of two: the float cubic is the exact one,
    # and float depress finds p or q exactly 0.
    d, m = sign * n * Fraction(2) ** e, max(1.0, n / 10**spread)
    if cube:
        v = round(m**3) * Fraction(2) ** (3 * e)
        coeffs = (3 * d, 3 * d * d, d**3 + v)
    else:
        w2 = max(2, round(m * m)) * Fraction(4) ** e
        coeffs = (3 * d, 3 * d * d - w2, d * (d * d - w2))
    triple = solve(GeneralCubic(*(Fraction(v) if exact else float(v) for v in coeffs)))
    assert triple.case is (CaseTag.DEGENERATE_P0 if cube else CaseTag.DEGENERATE_Q0)
    with mpmath.workdps(50):
        center = -mpmath.mpf(d.numerator) / d.denominator
        if cube:
            y = -mpmath.cbrt(mpmath.mpf(v.numerator) / v.denominator)
            want = [center + y * mpmath.expjpi(mpmath.mpf(2 * j) / 3) for j in range(3)]
        else:
            w = mpmath.sqrt(mpmath.mpf(w2.numerator) / w2.denominator)
            want = [center - w, center, center + w]
        want = [complex(z) for z in want]
    for z in want:
        assert min(abs(x - z) for x in triple.roots) <= 1e-10 * abs(z), (triple.roots, want)
