import copy
import math
import numbers
import pickle
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from rscubic import (
    CaseTag,
    DepressedCubic,
    GeneralCubic,
    InvalidInputError,
    NestedRadical,
    ParseError,
    denest,
    depress,
    parse_cubic,
    solve,
    solve_depressed,
)

from rscubic.reduction import _fraction

try:
    import numpy
except ImportError:  # an optional test dependency
    numpy = None

finite = st.floats(-100, 100, allow_nan=False, allow_infinity=False)


def test_depress_trivial():
    d, delta = depress(GeneralCubic(0, 0, 0))
    assert (d.p, d.q, delta) == (0, 0, 0)


def test_depress_shifted_example():
    # Oracle: (y+2)^3 - 6(y+2)^2 + 11(y+2) - 6 == y^3 - y at sampled points.
    d, delta = depress(GeneralCubic(-6, 11, -6))
    assert d.p == Fraction(-1)
    assert d.q == Fraction(0)
    assert delta == Fraction(-2)


def test_depress_already_depressed_is_identity():
    d, delta = depress(GeneralCubic(0, -12, 16))
    assert (d.p, d.q, delta) == (-12, 16, 0)


def test_exact_coefficients_stay_exact():
    d, delta = depress(GeneralCubic(Fraction(1, 2), Fraction(-3, 4), 5))
    assert isinstance(d.p, Fraction) and isinstance(d.q, Fraction)
    assert isinstance(delta, Fraction)
    assert d.p == Fraction(-3, 4) - Fraction(1, 12)
    assert d.q == 2 * Fraction(1, 2) ** 3 / 27 - Fraction(1, 2) * Fraction(-3, 4) / 3 + 5


def test_float_coefficients_give_float_pq():
    d, _ = depress(GeneralCubic(0.5, -0.75, 5.0))
    assert isinstance(d.p, float) and isinstance(d.q, float)


@pytest.mark.parametrize(
    "cubic",
    [GeneralCubic(-(1e150 - 1.0), -1e150 - 2.0, 2e150), GeneralCubic(1e108 * math.sqrt(2), 0.0, 1.0)],
    ids=["roots 1, -2, 1e150", "a = 1e108 sqrt(2)"],
)
def test_float_a_cubed_beyond_the_doubles_is_invalid_input(cubic):
    # Every coefficient is a double, but 2a^3/27 in the depressed q is not.
    with pytest.raises(InvalidInputError, match="a\\^3 overflows"):
        depress(cubic)
    with pytest.raises(InvalidInputError, match="a\\^3 overflows"):
        solve(cubic)


def test_float_a_cubed_beyond_the_doubles_with_a_double_q_solves():
    # 2a^3/27 and ab/3 pass the doubles but cancel: q is summed exactly and rounded once. The
    # roots are about -6.667e102, -3.333e102 and -4.5e-206 (their product is -c = -1).
    cubic = GeneralCubic(1e103, 2e206 / 9, 1.0)
    a, b, c = map(Fraction, cubic)
    d, delta = depress(cubic)
    assert repr(d) == repr(DepressedCubic(b - 1e103 * 1e103 / 3, float(2 * a**3 / 27 - a * b / 3 + c)))
    roots = solve(cubic).roots
    assert all(z.imag == 0.0 for z in roots)
    for x, near in zip(sorted(z.real for z in roots), (-6.667e102, -3.333e102, -4.5e-206)):
        assert x == pytest.approx(near, rel=1e-3)
        # The exact cubic changes sign within 4 ulps of each root.
        lo, hi = Fraction(x - 4 * math.ulp(x)), Fraction(x + 4 * math.ulp(x))
        assert (((lo + a) * lo + b) * lo + c) * (((hi + a) * hi + b) * hi + c) < 0


@pytest.mark.parametrize(
    "cubic, value",
    [(GeneralCubic(1e100, 1e300, 0.0), "-inf"), (GeneralCubic(1e100, -1e300, 1e308), "inf")],
    ids=["q = -inf", "q = inf"],
)
def test_float_ab_beyond_the_doubles_is_invalid_input(cubic, value):
    # a^3 has a double but ab/3 in the depressed q does not: q is refused as a non-finite coefficient.
    message = f"^{re.escape(f'non-finite coefficient: {value}')}$"
    with pytest.raises(InvalidInputError, match=message):
        depress(cubic)
    with pytest.raises(InvalidInputError, match=message):
        solve(cubic)


@given(st.floats(allow_nan=False, allow_infinity=False), st.floats(allow_nan=False, allow_infinity=False), finite)
@example(1e200, 0.0, 0.0)  # p = -inf
@example(1e100, 1e300, 0.0)  # q = -inf
@example(5e102, 1e300, 0.0)  # 2a^3 = inf beside ab = inf: q = nan
@example(-0.0, -0.0, 0.0)
@example(1e103, 2e206 / 9, 1.0)  # a^3 overflows, but q cancels to about 2.4e291
def test_float_depress_stores_the_constructors_record(a, b, c):
    # depress stores a finite float p and q as they are: the record DepressedCubic(p, q) builds,
    # and a non-finite p or q gets the constructor's refusal. Where float a^3 overflows, q is the
    # exact sum rounded once, and refused when that has no double.
    p = b - a * a / 3
    try:
        q = 2 * a**3 / 27 - a * b / 3 + c
    except OverflowError:
        fa = Fraction(a)
        try:
            q = float(2 * fa**3 / 27 - fa * Fraction(b) / 3 + Fraction(c))
        except OverflowError:
            with pytest.raises(InvalidInputError, match="a\\^3 overflows"):
                depress(GeneralCubic(a, b, c))
            return
    assert_built_like(lambda a, b, c: depress(GeneralCubic(a, b, c))[0], lambda *_: list(DepressedCubic(p, q)), "pq", a, b, c)


def test_non_monic_is_normalized():
    # GeneralCubic is monic; parse_cubic divides a written x^3 coefficient out.
    assert parse_cubic("2x^3 + 4x^2 - 2x + 6") == GeneralCubic(2, -1, 3)
    root2 = math.sqrt(2)
    assert repr(parse_cubic("2x^3+sqrt(2)x^2-3x+1")) == repr(GeneralCubic(root2 / 2, -1.5, 0.5))
    assert repr(parse_cubic("-0.5x^3 + sqrt(2)")) == repr(GeneralCubic(-0.0, -0.0, root2 / -0.5))


def test_zero_lead_rejected():
    for lead in (2, 0):
        with pytest.raises(TypeError):
            GeneralCubic(1, 2, 3, lead=lead)
    for text in ("0x^3 + 2x^2 + 3x + 1", "0*sqrt(2)x^3 + sqrt(2)x", "sqrt(2)x^3 - 1.4142135623730951x^3 + x"):
        with pytest.raises(ParseError, match="not a cubic"):
            parse_cubic(text)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_rejected(bad):
    with pytest.raises(InvalidInputError):
        GeneralCubic(bad, 0, 0)
    with pytest.raises(InvalidInputError):
        DepressedCubic(0, bad)


def _shifted(depressed_roots, delta):
    """The cubic whose roots are the depressed roots y minus delta, x = y - delta."""
    x0, x1, x2 = (Fraction(y) - delta for y in depressed_roots)
    return GeneralCubic(-(x0 + x1 + x2), x0 * x1 + x0 * x2 + x1 * x2, -x0 * x1 * x2)


def test_lift_examples():
    triple = solve(_shifted([0, 1, -1], Fraction(-2)))
    assert [z.real for z in triple.roots] == [1, 2, 3]
    assert solve(_shifted([1, 2, -3], Fraction(0))).roots == solve_depressed(DepressedCubic(-7, 6)).roots
    triple = solve(_shifted([2, 2, -4], Fraction(1)))
    assert [z.real for z in triple.roots] == [-5, 1, 1]


def test_lift_preserves_case_and_multiplicity():
    depressed = solve_depressed(DepressedCubic(-12, -16))  # roots -2, -2, 4
    triple = solve(_shifted([-2, -2, 4], Fraction(3)))
    assert triple.case is depressed.case is CaseTag.EQUAL
    assert triple.multiplicity == depressed.multiplicity == ((0, 2),)
    assert [z.real for z in triple.roots] == [-5, -5, 1]


@given(finite, finite, finite)
def test_roundtrip_residual(a, b, c):
    cubic = GeneralCubic(a, b, c)
    scale = max(1.0, abs(a), abs(b), abs(c)) ** 2
    triple = solve(cubic)
    for x in triple.roots:
        assert abs(cubic(x)) <= 1e-10 * scale


@given(st.fractions(-50, 50), st.fractions(-50, 50), st.fractions(-50, 50))
@example(Fraction(-50), Fraction(0), Fraction(1, 3039929748476))
def test_roundtrip_residual_exact_inputs(a, b, c):
    cubic = GeneralCubic(a, b, c)
    scale = float(max(1, abs(a), abs(b), abs(c))) ** 2
    triple = solve(cubic)
    for x in triple.roots:
        assert abs(cubic(x)) <= 1e-10 * scale


def test_lift_drops_exact_for_float_shift():
    cubic = GeneralCubic(0.5, 0.25, 0.0)
    triple = solve(cubic)
    # float pipeline: no exactness guarantee, but roots must satisfy the cubic
    for x in triple.roots:
        assert abs(cubic(x)) <= 1e-10


def test_evaluation_is_exact_for_rational_points():
    cubic = GeneralCubic(Fraction(-6), Fraction(11), Fraction(-6))
    assert cubic(Fraction(2)) == 0
    d, _ = depress(cubic)
    assert d(Fraction(1)) == d.p + d.q + 1


def test_str_writes_the_monic_cubic():
    assert str(GeneralCubic(-6, 11, -6)) == "x^3 + (-6)x^2 + (11)x + (-6)"
    assert str(parse_cubic("4x^3 + 2x^2 + 4x + 6")) == "x^3 + (1/2)x^2 + (1)x + (3/2)"


exact_value = st.one_of(st.integers(-(10**6), 10**6), st.fractions(-1000, 1000, max_denominator=10**4))


def _floats_at(values, picks):
    return [float(v) if i in picks else v for i, v in enumerate(values)]


@given(exact_value, exact_value, exact_value, st.sets(st.integers(0, 2), min_size=1))
@example(0, -2, 0, {2})  # the exact channel used to follow which coefficient was a float
@example(0, Fraction(-25, 2), Fraction(65, 4), {1, 2})
@example(Fraction(1, 3), 5, 7, {0})
def test_mixed_cubic_is_its_float_twin(a, b, c, picks):
    cubic = GeneralCubic(*_floats_at((a, b, c), picks))
    twin = GeneralCubic(float(a), float(b), float(c))
    assert repr(cubic) == repr(twin) and not cubic.exact
    assert repr(solve(cubic)) == repr(solve(twin))


@given(exact_value, exact_value, st.sets(st.integers(0, 1), min_size=1))
@example(Fraction(-1, 3), 5, {0})
def test_mixed_depressed_cubic_is_its_float_twin(p, q, picks):
    d = DepressedCubic(*_floats_at((p, q), picks))
    twin = DepressedCubic(float(p), float(q))
    assert repr(d) == repr(twin) and not d.exact
    assert repr(solve_depressed(d)) == repr(solve_depressed(twin))


@given(exact_value, exact_value.map(abs), st.sets(st.integers(0, 1), min_size=1))
@example(0, 2, {1})  # a = 0 used to denest to an exact 0 beside a float b
def test_mixed_radical_is_its_float_twin(a, b, picks):
    radical = NestedRadical(*_floats_at((a, b), picks))
    twin = NestedRadical(float(a), float(b))
    assert repr(radical) == repr(twin)
    assert repr(denest(radical)) == repr(denest(twin))


def test_a_float_coefficient_drops_the_exact_channel():
    assert solve(GeneralCubic(0, -2, 0)).exact is not None
    assert solve(GeneralCubic(0, -2, 0.0)).exact is None
    assert repr(GeneralCubic(0, -2, 0.0)) == repr(GeneralCubic(0.0, -2.0, 0.0))


def test_a_float_triple_root_has_no_exact_channel():
    for triple in (solve(GeneralCubic(0.0, 0.0, 0.0)), solve_depressed(DepressedCubic(0.0, 0.0))):
        assert triple.roots == (0j, 0j, 0j) and triple.multiplicity == ((0, 3),)
        assert triple.exact is None
    triple = solve(GeneralCubic(-3, 3, -1))  # (x - 1)^3
    assert triple.roots == (1 + 0j,) * 3 and [str(e) for e in triple.exact] == ["1"] * 3


def test_a_float_shift_drops_the_exact_channel():
    cubic = _shifted([-2, 0, 2], Fraction(1, 2))  # roots -5/2, -1/2, 3/2
    assert [str(e) for e in solve(cubic).exact] == ["-5/2", "-1/2", "3/2"]
    assert solve(GeneralCubic(float(cubic.a), cubic.b, cubic.c)).exact is None


@pytest.mark.parametrize(
    "build",
    [
        lambda: DepressedCubic(-3 * 10**400, 0.5),
        lambda: GeneralCubic(0, 10**400, 1.5),
        lambda: parse_cubic("0." + "0" * 399 + "1x^3 + sqrt(2)x"),  # the lead rounds to 0.0
        lambda: NestedRadical(10**400, 2.0),
    ],
)
def test_a_float_form_rejects_an_exact_value_without_a_double(build):
    with pytest.raises(InvalidInputError):
        build()


def test_a_float_lead_that_overflows_a_coefficient_is_rejected():
    tiny = "0." + "0" * 299 + "1x^3"  # 1e-300
    with pytest.raises(InvalidInputError, match=re.escape("non-finite coefficient: inf")):
        parse_cubic(f"{tiny} + 1{'0' * 300}x^2 + x + sqrt(2)")
    with pytest.raises(InvalidInputError, match=re.escape("non-finite coefficient: -inf")):
        parse_cubic(f"-{tiny} + x^2 + 1{'0' * 300}x + sqrt(2)")


@pytest.mark.parametrize(
    "text, value",
    [
        ("-x^3 + {inf}x^2 + x", "inf"),  # as summed, not divided by the lead -1
        ("x^3 + {inf}x^2 - {inf}x^2", "nan"),
        ("{huge}x^3 + {inf}x", "inf"),  # before the exact lead fails to round
        ("x^3 + {huge}x^2 + x + {inf}", "inf"),
    ],
)
def test_a_non_finite_float_sum_is_reported_as_summed(text, value):
    # 1.5e308 * sqrt(3) overflows to inf; 10^400 has no double.
    text = text.format(inf="15" + "0" * 307 + "*sqrt(3)", huge="1" + "0" * 400)
    with pytest.raises(InvalidInputError, match=re.escape(f"non-finite coefficient: {value}")):
        parse_cubic(text)


BEYOND ="an exact value beyond the double range cannot be rounded into a float form"


def reference_coerce(value):
    """The isinstance rules that the type-first checks in _coerce must keep."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, numbers.Rational):
        return Fraction(int(value.numerator), int(value.denominator))
    value = float(value)
    if not math.isfinite(value):
        raise InvalidInputError(f"non-finite coefficient: {value!r}")
    return value


@pytest.mark.skipif(numpy is None, reason="needs numpy")
def test_numpy_integers_are_exact():
    big = GeneralCubic(numpy.int64(2**62 + 1), numpy.uint64(2**64 - 1), numpy.int8(-3))
    assert tuple(big) == (2**62 + 1, 2**64 - 1, -3)
    assert all(type(v) is Fraction and type(v.numerator) is int for v in big)
    # A numpy numerator would wrap at 2^63 in the arithmetic that follows.
    assert 4 * GeneralCubic(numpy.int64(2**62), 0, 0).a == 2**64
    assert DepressedCubic(numpy.int32(-3), numpy.int64(1)).exact
    exact = solve(GeneralCubic(*map(numpy.int64, (-6, 11, -6)))).exact
    assert exact is not None and exact == solve(GeneralCubic(-6, 11, -6)).exact


@pytest.mark.parametrize(
    "record, change, rounded",
    [
        (GeneralCubic(1, 2, 3), {"a": 1.5}, (1.5, 2.0, 3.0)),
        (DepressedCubic(Fraction(1, 3), 2), {"q": 0.5}, (1 / 3, 0.5)),
        (NestedRadical(Fraction(1, 3), 2), {"b": 2.5}, (1 / 3, 2.5)),
    ],
)
def test_replace_coerces_the_input_records_again(record, change, rounded):
    replaced = record._replace(**change)
    assert type(replaced) is type(record) and not any(type(v) is Fraction for v in replaced)
    assert tuple(replaced) == rounded and replaced == type(record)(*rounded)
    assert type(record)._make(replaced) == replaced
    with pytest.raises(InvalidInputError):
        record._replace(**{name: math.nan for name in change})


def reference_rounded(*values):
    """Values coerced in order; a float among them rounds them all."""
    values = [reference_coerce(v) for v in values]
    if any(isinstance(v, float) for v in values):
        try:
            values = [float(v) for v in values]
        except OverflowError:
            raise InvalidInputError(BEYOND) from None
    return values


def reference_radical(a, b):
    a, b = reference_rounded(a, b)
    if b < 0:
        raise InvalidInputError("b must be nonnegative (real square root)")
    return [a, b]


class Int(int):
    pass


class Real(float):
    pass


finite_float = st.floats(allow_nan=False, allow_infinity=False)
raw_value = st.one_of(
    [
        st.integers(-(10**20), 10**20),
        st.sampled_from([0, 10**400, -(10**400)]),
        st.booleans(),
        st.integers(-1000, 1000).map(Int),
        st.fractions(max_denominator=10**6),
        st.floats(),
        finite_float.map(Real),
        st.decimals(allow_nan=False),
        finite_float.map(repr),
        st.sampled_from(["inf", "-inf", "nan", "1e999", "12"]),
    ]
    + ([finite_float.map(numpy.float64), st.integers(-(2**62), 2**62).map(numpy.int64)] if numpy is not None else [])
)
def assert_built_like(build, reference, fields, *args):
    """build(*args) stores reference(*args) (same types and reprs), or both raise alike."""
    try:
        expected = reference(*args)
    except InvalidInputError as error:
        with pytest.raises(InvalidInputError, match=re.escape(str(error))):
            build(*args)
        return
    built = build(*args)
    got = [getattr(built, name) for name in fields]
    assert [type(v) for v in got] == [type(v) for v in expected]
    assert repr(got) == repr(expected)


@given(raw_value, raw_value, raw_value)
@example(True, Int(3), Decimal("0.5"))
@example("12", 2, Fraction(1, 3))
@example(1.5, float("-inf"), 2.0)  # two floats, one of them not finite
@example(float("nan"), 0.5, 0.5)
@example(10**400, 1, 0.5)  # an exact value beyond the double range beside a float
def test_coercion_keeps_the_isinstance_rules(a, b, c):
    assert_built_like(GeneralCubic, reference_rounded, "abc", a, b, c)
    assert_built_like(DepressedCubic, reference_rounded, "pq", a, b)
    assert_built_like(NestedRadical, reference_radical, "ab", b, c)


# Either sign up to 10^600, with zero and a shared factor drawn often enough to matter.
wide_int = st.integers(-(10**600), 10**600) | st.integers(-12, 12)


@given(wide_int, wide_int, st.integers(1, 10**300) | st.integers(1, 6))
@example(0, -5, 1)
@example(-6, -4, 1)
@example(7, 0, 1)
@example(0, 0, 1)
@example(10**600, -(10**600), 1)
def test_fraction_constructor_is_fraction(n, d, g):
    # _fraction builds the Fraction that Fraction(n, d) builds, with no slot left out.
    n, d = n * g, d * g
    if d == 0:
        with pytest.raises(ZeroDivisionError) as expected:
            Fraction(n, d)
        with pytest.raises(ZeroDivisionError, match=re.escape(str(expected.value))):
            _fraction(n, d)
        return
    built, expected = _fraction(n, d), Fraction(n, d)
    copies = [pickle.loads(pickle.dumps(built)), copy.copy(built), copy.deepcopy(built)]
    for value in [built] + copies:
        assert type(value) is Fraction
        assert (value.numerator, value.denominator) == (expected.numerator, expected.denominator)
        assert value == expected and hash(value) == hash(expected) and repr(value) == repr(expected)
