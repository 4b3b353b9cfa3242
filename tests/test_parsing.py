import math
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import regex_parser
from rscubic import InvalidInputError, ParseError, parse_coefficient, parse_cubic

SQRT2 = math.sqrt(2.0)


class TestParseCubic:
    def test_basic_equation(self):
        cubic = parse_cubic("x^3-12x+16=0")
        assert (cubic.a, cubic.b, cubic.c) == (0, -12, 16)
        assert cubic.exact

    def test_surd_coefficient(self):
        cubic = parse_cubic("x^3-48x-64*sqrt(2)")
        assert cubic.a == 0
        assert cubic.b == -48
        assert cubic.c == pytest.approx(-64 * SQRT2)

    def test_bare_cube(self):
        cubic = parse_cubic("x^3")
        assert (cubic.a, cubic.b, cubic.c) == (0, 0, 0)

    def test_decimals_parse_exactly(self):
        cubic = parse_cubic("x^3-0.75x+0.125")
        assert cubic.b == Fraction(-3, 4)
        assert cubic.c == Fraction(1, 8)
        assert cubic.exact

    def test_rational_coefficient(self):
        cubic = parse_cubic("x^3 - 3/4x + 1/8")
        assert cubic.b == Fraction(-3, 4) and cubic.c == Fraction(1, 8)

    def test_whitespace_insensitive(self):
        cubic = parse_cubic("  x ^ 3 - 12 x + 16 = 0 ")
        assert (cubic.a, cubic.b, cubic.c) == (0, -12, 16)

    def test_explicit_star(self):
        cubic = parse_cubic("2*x^3 + 4*x")
        assert (cubic.a, cubic.b, cubic.c) == (0, 2, 0)

    def test_leading_coefficient_normalized(self):
        cubic = parse_cubic("2x^3-24x+32")
        assert (cubic.a, cubic.b, cubic.c) == (0, -12, 16)

    def test_negative_lead(self):
        cubic = parse_cubic("-x^3+x")
        assert cubic.b == -1

    def test_perfect_square_sqrt_is_exact(self):
        cubic = parse_cubic("sqrt(4)x^3 + 2x")
        assert cubic.b == Fraction(1)
        assert cubic.exact

    def test_repeated_powers_combine(self):
        cubic = parse_cubic("x^3 + x + x + 1")
        assert cubic.b == 2

    def test_implicit_power_one_and_zero(self):
        cubic = parse_cubic("x^3 + 5x - 7")
        assert cubic.b == 5 and cubic.c == -7

    def test_x2_term(self):
        cubic = parse_cubic("x^3 - 6x^2 + 11x - 6")
        assert (cubic.a, cubic.b, cubic.c) == (-6, 11, -6)


class TestParseErrors:
    def err(self, text):
        with pytest.raises(ParseError) as info:
            parse_cubic(text)
        return info.value

    def test_not_cubic(self):
        self.err("x^2 + 1")

    def test_degree_four(self):
        e = self.err("x^4 + 2x")
        assert "exceeds 3" in str(e)

    def test_empty(self):
        self.err("")

    def test_trailing_garbage(self):
        e = self.err("x^3 + 2y")
        assert e.position == 7

    def test_dangling_sign(self):
        self.err("x^3 +")

    def test_nonzero_rhs(self):
        self.err("x^3 = 5")

    def test_junk_after_rhs(self):
        self.err("x^3 = 0 extra")

    def test_zero_denominator(self):
        self.err("3/0x^3")

    def test_star_without_x(self):
        self.err("x^3 + 2*")

    def test_missing_exponent(self):
        self.err("x^")

    def test_vanishing_cube_term(self):
        e = self.err("x^3 - x^3 + x")
        assert "x^3" in str(e)

    def test_split_digits_do_not_merge(self):
        self.err("x^3 + 1 2")

    def test_sqrt_needs_parens(self):
        self.err("x^3 + sqrt 2")

    def test_sqrt_needs_integer(self):
        self.err("x^3 + sqrt(2.5)")

    def test_position_points_at_offence(self):
        e = self.err("x^3 + @")
        assert e.position == 6
        assert "^" in str(e)  # caret line rendered


class TestParseCoefficient:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("9/2", Fraction(9, 2)),
            ("-0.5", Fraction(-1, 2)),
            ("7", Fraction(7)),
            ("sqrt(9)", Fraction(3)),
            ("+1/3", Fraction(1, 3)),
        ],
    )
    def test_exact_literals(self, text, expected):
        value = parse_coefficient(text)
        assert value == expected
        assert isinstance(value, Fraction)

    def test_surd_literal(self):
        assert parse_coefficient("-64*sqrt(2)") == pytest.approx(-64 * SQRT2)

    @pytest.mark.parametrize("bad", ["", "x", "1/2/3", "2*", "sqrt()", "1..5"])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_coefficient(bad)


# One case per error branch of the parser: (parser, text, position, message).
ERROR_CASES = [
    (parse_cubic, "", 0, "empty input"),
    (parse_cubic, "   ", 3, "empty input"),
    (parse_cubic, "x^3 = 5", 6, "only '= 0' is supported on the right-hand side"),
    (parse_cubic, "x^3 =0.0", 6, "unexpected input after '= 0'"),
    (parse_cubic, "x^3 = 0 extra", 8, "unexpected input after '= 0'"),
    (parse_cubic, "x^3=00", 5, "unexpected input after '= 0'"),
    (parse_cubic, "x^3 + 1 2", 8, "expected '+', '-' or '=' between terms"),
    (parse_cubic, "x^3 + 2y", 7, "expected '+', '-' or '=' between terms"),
    (parse_cubic, "x^3 + sqrt 2", 5, "expected '(' after sqrt"),
    (parse_cubic, "x^3 +  sqrtx", 5, "expected '(' after sqrt"),
    (parse_cubic, "sqrt 2 x^3", 0, "expected '(' after sqrt"),
    (parse_cubic, "x^3 + 2* sqrt 3", 8, "expected '(' after sqrt"),
    (parse_cubic, "x^3 + 2 *  sqrt[3]", 9, "expected '(' after sqrt"),
    (parse_cubic, "x^3 + sqrt( -2)", 12, "expected a nonnegative integer inside sqrt()"),
    (parse_cubic, "x^3 - 2*sqrt()", 13, "expected a nonnegative integer inside sqrt()"),
    (parse_cubic, "x^3 + sqrt(2.5)", 12, "expected ')'"),
    (parse_cubic, "x^3 + 3*sqrt(5 x", 15, "expected ')'"),
    (parse_cubic, "x^3 + 1/ x", 9, "expected an integer denominator after '/'"),
    (parse_cubic, "x^3 + 1/", 8, "expected an integer denominator after '/'"),
    (parse_cubic, "3/0x^3", 2, "zero denominator"),
    (parse_cubic, "x^3 + 3 / 0x", 8, "zero denominator"),
    (parse_cubic, "x^3 + 2x^4", 4, "power 4 exceeds 3 (cubics only)"),
    (parse_cubic, "x^3 -  X ^ 12", 4, "power 12 exceeds 3 (cubics only)"),
    (parse_cubic, "x^", 2, "expected an integer exponent after '^'"),
    (parse_cubic, "x^3 + x^ y", 9, "expected an integer exponent after '^'"),
    (parse_cubic, "x^3 + 2*", 8, "expected 'x' after '*'"),
    (parse_cubic, "x^3 + 2 * y", 10, "expected 'x' after '*'"),
    (parse_cubic, "x^3 + sqrt(2)*sqrt(3)", 14, "expected 'x' after '*'"),
    (parse_cubic, "x^3 +", 5, "expected a coefficient or 'x'"),
    (parse_cubic, "x^3 + @", 6, "expected a coefficient or 'x'"),
    (parse_cubic, "x^3 + *x", 6, "expected a coefficient or 'x'"),
    (parse_cubic, "x^3 + =0", 6, "expected a coefficient or 'x'"),
    (parse_cubic, "x^2 + 1", 0, "not a cubic: the x^3 coefficient is zero"),
    (parse_cubic, "x^3 - x^3 + x", 0, "not a cubic: the x^3 coefficient is zero"),
    (parse_cubic, "= 0", 0, "not a cubic: the x^3 coefficient is zero"),
    (parse_coefficient, "", 0, "expected a number"),
    (parse_coefficient, "x", 0, "expected a number"),
    (parse_coefficient, "-", 1, "expected a number"),
    (parse_coefficient, "  + @", 4, "expected a number"),
    (parse_coefficient, "1/2/3", 3, "unexpected trailing input"),
    (parse_coefficient, "2*", 1, "unexpected trailing input"),
    (parse_coefficient, "1..5", 2, "unexpected trailing input"),
    (parse_coefficient, "1 x", 2, "unexpected trailing input"),
    (parse_coefficient, "  sqrt 5", 2, "expected '(' after sqrt"),
    (parse_coefficient, "- 3*sqrt(x)", 9, "expected a nonnegative integer inside sqrt()"),
    (parse_coefficient, "7/0", 2, "zero denominator"),
]


@pytest.mark.parametrize("parser,text,position,message", ERROR_CASES)
def test_error_position_and_message(parser, text, position, message):
    with pytest.raises(ParseError) as info:
        parser(text)
    assert info.value.position == position
    assert str(info.value).startswith(f"{message} (at position {position})")


@pytest.mark.parametrize(
    "parser,template,position",
    [
        (parse_cubic, "x^3+{}", 4),  # a coefficient
        (parse_cubic, "x^3 + 1/{}x", 6),  # a denominator: the error points at the literal
        (parse_cubic, "x^3+0.{}", 4),  # decimal digits
        (parse_cubic, "x^{}", 2),  # a power
        (parse_cubic, "x^3+sqrt({})", 9),  # a radicand
        (parse_cubic, "x^3+2*sqrt( {})", 12),  # a radicand in a product
        (parse_coefficient, "-{}", 1),
    ],
)
def test_overlong_number_is_a_parse_error(parser, template, position):
    # int() refuses a digit string over sys.get_int_max_str_digits() (4300) with a plain ValueError.
    with pytest.raises(ParseError) as info:
        parser(template.format("1" * 5000))
    assert info.value.position == position
    assert str(info.value).startswith(f"number has too many digits (at position {position})")


@pytest.mark.parametrize(
    "parser,template",
    [
        (parse_cubic, "x^3 + {}*sqrt(2)x"),  # a product with an irrational root
        (parse_cubic, "x^3 + {}x + sqrt(2)x"),  # an exact sum a float term joins
        (parse_cubic, "x^3 + sqrt(2)x + {}x"),  # an exact term joining a float sum
        (parse_cubic, "x^3 + sqrt(2)x + {}"),  # an exact sum rounded with the others
        (parse_coefficient, "{}*sqrt(2)"),
    ],
)
def test_exact_value_beyond_double_range_in_a_float_cubic(parser, template):
    # 10^400 cannot be rounded into the float a sqrt literal makes of its sum: invalid input, not OverflowError.
    with pytest.raises(InvalidInputError, match="beyond the double range"):
        parser(template.format(10**400))


def test_scanner_classes_are_the_regex_classes():
    # The scanner reads whitespace as str.isspace and a digit as str.isdecimal, where the
    # regex parser read \s and \d: the two accept the same code points.
    chars = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\d", chars) == [c for c in chars if c.isdecimal()]
    assert re.findall(r"\s", chars) == [c for c in chars if c.isspace()]


# The grammar's tokens, a stray letter, a digit and a space outside ASCII, and a digit
# run past int()'s 4300 digits.
LONG = "9" * 4301
FRAGMENTS = ["+", "-", "*", "/", "^", ".", "(", ")", "=", "0", "1", "7", "42", "x", "X", "sqrt", " ", "\t", "y", "\u0663", "\u2003", LONG]
# Terms built part by part from whole and broken tokens, so that most errors are reached
# from a well-formed start.
WS = st.sampled_from(["", "", " ", "\u2003", "\t "])
TERM = st.tuples(
    st.sampled_from(["", "+", "-", "- "]),
    WS,
    st.sampled_from(["", "1", "42", "0", "\u0663", "1\u06633", LONG, "1.5", ".5", "5.", ".", "3/4", "7/0", "1/", "2 / 3", "sqrt(4)", "sqrt( 2 )", "sqrt", "sqrt(", "sqrt()", "sqrt(2.5)", "y"]),
    st.sampled_from(["", "", "*sqrt(2)", "* sqrt (9)", "*sqrt", "* sqrt", "*sqrt(", "*sqrt(" + LONG + ")"]),
    WS,
    st.sampled_from(["", "", "*", " * ", "**"]),
    st.sampled_from(["", "x", "X", "x^2", "x ^ 3", "x^", "x^4", "x^\u0663", "x^" + LONG, "x^3.5", "^2"]),
    WS,
).map("".join)
TEXTS = st.one_of(
    st.lists(st.sampled_from(FRAGMENTS), max_size=14).map("".join),
    st.tuples(st.lists(TERM, min_size=1, max_size=4).map("".join), st.sampled_from(["", "= 0", "=0 ", "= 5", "= 0 y", "y"])).map("".join),
)


def _outcome(parser, text):
    """A parser's result with its type and its values' types, or its exception's type, message and position."""
    try:
        value = parser(text)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "position", None)
    return type(value), value, tuple(map(type, value)) if isinstance(value, tuple) else None


@settings(max_examples=600, deadline=None)
@given(TEXTS)
@example("x^3 + 2 * \u2003sqrt (\u0663) x^ 2 - 1.50x = 0")
@example("-\u0663/0x^3 + .5")
@example("x^3 - 7/ 42*sqrt(2)x")
def test_scanner_matches_the_regex_parser(text):
    for scanner, reference in ((parse_cubic, regex_parser.parse_cubic), (parse_coefficient, regex_parser.parse_coefficient)):
        assert _outcome(scanner, text) == _outcome(reference, text)
