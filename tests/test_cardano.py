import math
import random
from itertools import permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from rscubic import (
    CaseTag,
    DepressedCubic,
    NestedRadical,
    RootTriple,
    cardano_solve,
    denest,
    depress,
    match_root_sets,
    parse_cubic,
    solve_depressed,
)
from rscubic.cardano import _finalize

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


def log_uniform_pq(rng):
    p = (-1) ** rng.randrange(2) * 10 ** rng.uniform(-3, 3)
    q = (-1) ** rng.randrange(2) * 10 ** rng.uniform(-3, 3)
    return p, q


class TestWorkedExamples:
    def test_real_distinct(self):
        # (q/2)^2 + (p/3)^3 = 81/4 - 8 = 49/4, sqrt = 7/2, A = 8, B = 1
        triple = cardano_solve(DepressedCubic(-6, -9))
        expected = (complex(3), complex(-1.5, -SQRT3 / 2), complex(-1.5, SQRT3 / 2))
        assert match_root_sets(triple.roots, expected) <= 1e-12

    def test_double_root(self):
        # disc = 64 - 64 = 0, A = B = -8; pairing forces cbrt(A) = -2
        triple = cardano_solve(DepressedCubic(-12, 16))
        assert triple.roots == (complex(-4), complex(2), complex(2))

    @pytest.mark.parametrize("p,q,mult", [(-12, 16, ((1, 2),)), (-12, -16, ((0, 2),)), (0, 0, ((0, 3),))])
    def test_multiplicity_follows_the_case(self, p, q, mult):
        # The double root r of (x-r)^2 (x+2r) sorts first when q = 2r^3 < 0.
        assert cardano_solve(DepressedCubic(p, q)).multiplicity == mult

    def test_pure_cube(self):
        # A = 8, B = 0
        triple = cardano_solve(DepressedCubic(0, -8))
        expected = (complex(2), complex(-1, SQRT3), complex(-1, -SQRT3))
        assert match_root_sets(triple.roots, expected) <= 1e-12


class TestInvariants:
    def test_residuals(self):
        rng = random.Random(73)
        for _ in range(2000):
            p, q = log_uniform_pq(rng)
            d = DepressedCubic(p, q)
            triple = cardano_solve(d)
            scale = max(1.0, abs(p), abs(q)) ** 1.5
            for x in triple.roots:
                assert abs(d(x)) <= 1e-10 * scale


class TestCompareMethods:
    @pytest.mark.parametrize(
        "p,q,tol",
        [
            (-6.0, -9.0, 1e-10),
            (-12.0, 16.0, 1e-10),
            (-48.0, -64.0 * SQRT2, 1e-9),  # casus irreducibilis
        ],
    )
    def test_example_agreement(self, p, q, tol):
        d = DepressedCubic(p, q)
        cardano = cardano_solve(d)
        assert match_root_sets(solve_depressed(d).roots, cardano.roots) <= tol

    def test_report_contents(self):
        d = DepressedCubic(-6, -9)
        rs = solve_depressed(d)
        cardano = cardano_solve(d)
        rs_residuals = tuple(abs(d(x)) for x in rs.roots)
        cardano_residuals = tuple(abs(d(x)) for x in cardano.roots)
        assert rs.case is CaseTag.REAL_DISTINCT
        assert len(rs_residuals) == 3
        assert len(cardano_residuals) == 3
        assert max(rs_residuals + cardano_residuals) <= 1e-12

    def test_bulk_agreement(self):
        rng = random.Random(79)
        for _ in range(2000):
            p, q = log_uniform_pq(rng)
            d = DepressedCubic(p, q)
            rs = solve_depressed(d)
            cardano = cardano_solve(d)
            roots_scale = max(1.0, max(abs(x) for x in rs.roots))
            assert match_root_sets(rs.roots, cardano.roots) <= 1e-8 * roots_scale

    def test_degenerate_inputs_accepted(self):
        for p, q in [(0.0, 0.0), (0.0, 5.0), (-4.0, 0.0), (4.0, 0.0)]:
            d = DepressedCubic(p, q)
            cardano = cardano_solve(d)
            assert match_root_sets(solve_depressed(d).roots, cardano.roots) <= 1e-10


class TestAgainstCaseSolver:
    def test_matches_rs_dispatch_everywhere(self):
        rng = random.Random(83)
        for _ in range(1000):
            p, q = log_uniform_pq(rng)
            d = DepressedCubic(p, q)
            a = solve_depressed(d)
            b = cardano_solve(d)
            scale = max(1.0, max(abs(x) for x in a.roots))
            assert match_root_sets(a.roots, b.roots) <= 1e-9 * scale


def test_exact_discriminant_keeps_small_root():
    # (q/2)^2 and (p/3)^3 nearly cancel here; formed in doubles they left
    # the small root at 0.0031675963.
    d, delta = depress(parse_cubic("x^3+903310x^2-995557x + 3151"))
    roots = [x - float(delta) for x in cardano_solve(d).roots]
    small = min(roots, key=abs)
    assert small.imag == 0
    assert abs(small.real - 0.0031742043560985796) <= 1e-7 * 0.0031742043560985796


@pytest.mark.parametrize(
    "p, q",
    [(-3e-120, 1e-181), (1.0, 1e200)],
    ids=["three tiny real roots", "q beyond the cube of the double range"],
)
def test_out_of_band_cubic_is_solved_on_the_scale_of_its_roots(p, q):
    # Unscaled, the first reported a double root at 1.84e-61 (the roots are
    # -1.748e-60, 3.33e-62 and 1.715e-60) and the second overflowed in (p/3)^3.
    d = DepressedCubic(p, q)
    expected = sorted(solve_depressed(d).roots, key=lambda z: (z.imag, z.real))
    got = sorted(cardano_solve(d).roots, key=lambda z: (z.imag, z.real))
    for x, y in zip(got, expected):
        assert abs(x - y) <= 1e-14 * abs(y)


@pytest.mark.parametrize(
    "d",
    [
        DepressedCubic(10**400, 1),
        DepressedCubic(-3, 10**400),
        denest(NestedRadical(10**400, 10**799)).cubic,  # the mixed cubic: a float p, an exact q = -2 * 10^400
    ],
    ids=["p beyond the double range", "q beyond the double range", "mixed cubic"],
)
def test_p_or_q_without_a_double_is_solved_on_the_scale_of_its_roots(d):
    # No double holds p or q here, so the band test cannot run on their floats.
    roots = cardano_solve(d).roots
    expected = solve_depressed(d).roots
    assert all(math.isfinite(abs(z)) for z in roots)
    assert match_root_sets(roots, expected) <= 1e-12 * max(abs(z) for z in expected)


# match_root_sets and _finalize as they were first written, with a generator and
# a lambda key: the written-out forms must give the same bits on every input.
def match_root_sets_reference(a, b):
    return min(max(abs(x - y) for x, y in zip(a, perm)) for perm in permutations(b))


def finalize_reference(raw, case, p=0.0, q=0.0):
    three_real = (
        case in (CaseTag.EQUAL, CaseTag.CONJUGATE_PAIR)
        or (case is CaseTag.DEGENERATE_Q0 and p < 0)
        or (case is CaseTag.DEGENERATE_P0 and q == 0)
    )
    if three_real:
        values = sorted(x.real for x in raw)
        roots = tuple(complex(v, 0.0) for v in values)
        if case is CaseTag.EQUAL:
            mult = ((0, 2),) if q < 0 else ((1, 2),)
        else:
            mult = ((0, 3),) if case is CaseTag.DEGENERATE_P0 else ()
        return RootTriple(roots, case, multiplicity=mult)
    k = min(range(3), key=lambda i: abs(raw[i].imag))
    z1, z2 = (raw[i] for i in range(3) if i != k)
    re = 0.5 * (z1.real + z2.real)
    im = 0.5 * (abs(z1.imag) + abs(z2.imag))
    roots = (complex(raw[k].real, 0.0), complex(re, -im), complex(re, im))
    return RootTriple(roots, case)


def outcome(f, *args):
    """repr of f's result, which tells -0.0 from 0.0, or the type of what it raised."""
    try:
        return repr(f(*args))
    except Exception as exc:  # abs of a complex past the double range raises OverflowError
        return type(exc)


# A small pool of parts makes tied distances and tied |imag| common.
parts = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, math.inf, -math.inf, math.nan, 1e308, -1e308]),
    st.floats(allow_nan=True, allow_infinity=True),
)
values = st.one_of(st.builds(complex, parts, parts), parts)  # _cardano's first raw root can be a float
triples = st.tuples(values, values, values)
NAN = complex(math.nan, 0.0)


@settings(max_examples=500, deadline=None)
@given(triples, triples)
@example((1 + 1j, 2 - 1j, 3 + 1j), (1 + 1j, 1 + 1j, 1 + 1j))  # every pairing ties
@example((NAN, 0j, 1 + 0j), (0j, NAN, 1 + 0j))
@example((complex(math.inf, 0.0), 0j, 1 + 0j), (complex(math.inf, 0.0), 0j, 1 + 0j))  # inf - inf is NaN
def test_match_root_sets_is_bit_equal_to_the_permutation_form(a, b):
    assert outcome(match_root_sets, a, b) == outcome(match_root_sets_reference, a, b)


@settings(max_examples=1000, deadline=None)
@given(triples, st.sampled_from(list(CaseTag)), parts, parts)
@example((1 + 1j, 2 - 1j, 3 + 1j), CaseTag.REAL_DISTINCT, 0.0, 0.0)  # three tied |imag|
@example((1 + 2j, 2 - 1j, 3 + 1j), CaseTag.REAL_DISTINCT, 0.0, 0.0)  # the last two tie below the first
@example((complex(1, math.nan), 2 - 1j, 3 + 0j), CaseTag.DEGENERATE_Q0, 1.0, 0.0)
@example((complex(1, -0.0), complex(2, 0.0), 3 + 0j), CaseTag.DEGENERATE_P0, 0.0, 1.0)
def test_finalize_is_bit_equal_to_the_sorted_and_keyed_form(raw, case, p, q):
    assert outcome(_finalize, raw, case, p, q) == outcome(finalize_reference, raw, case, p, q)
