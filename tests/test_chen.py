import cmath
import copy
import math
import operator
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rscubic import (
    CardanoIntermediates,
    CaseTag,
    DepressedCubic,
    ExactValue,
    GeneralCubic,
    InvalidCaseError,
    NestedRadical,
    brute_force_roots,
    cardano_solve,
    compute_rs,
    denest,
    depress,
    match_root_sets,
    newton_polish,
    solve,
    solve_depressed,
    solve_moebius,
    unified_roots,
    verify_roots,
)
from rscubic.chen import fraction_cbrt
from rscubic.numerics import cube_roots_all, principal_cube_root

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
SQRT6 = math.sqrt(6.0)


def log_uniform_pq(rng):
    p = (-1) ** rng.randrange(2) * 10 ** rng.uniform(-3, 3)
    q = (-1) ** rng.randrange(2) * 10 ** rng.uniform(-3, 3)
    return p, q


def assert_root_sets_close(a, b, tol):
    assert match_root_sets(a, b) <= tol


def from_pair(r, s):
    """The depressed cubic x^3 - 3rsx + rs(r+s) of the pair (r, s); real parts for a conjugate pair."""
    rs = r * s
    p, q = -3 * rs, rs * (r + s)
    return DepressedCubic(p.real, q.real) if isinstance(rs, complex) else DepressedCubic(p, q)


class TestSolveEqual:
    def test_rational_example(self):
        triple = solve_depressed(from_pair(Fraction(2), Fraction(2)))
        assert triple.roots == (complex(-4), complex(2), complex(2))
        assert triple.multiplicity == ((1, 2),)
        assert [e.as_fraction() for e in triple.exact] == [-4, 2, 2]

    def test_negative_r(self):
        # x^3 - 3x - 2 = (x+1)^2 (x-2): the repeated root must be -1, not +1
        triple = solve_depressed(from_pair(Fraction(-1), Fraction(-1)))
        assert triple.roots == (complex(-1), complex(-1), complex(2))
        assert triple.multiplicity == ((0, 2),)

    def test_positive_one(self):
        # x^3 - 3x + 2 = (x-1)^2 (x+2)
        triple = solve_depressed(from_pair(Fraction(1), Fraction(1)))
        assert triple.roots == (complex(-2), complex(1), complex(1))

    def test_float_input_no_exact(self):
        triple = solve_depressed(from_pair(1.5, 1.5))
        assert triple.case is CaseTag.EQUAL and triple.exact is None
        assert triple.roots == (complex(-3.0), complex(1.5), complex(1.5))


class TestSolveRealDistinct:
    def test_worked_example(self):
        triple = solve_depressed(from_pair(-0.5, -4.0))
        assert triple.roots[0].real == pytest.approx(3.0, abs=1e-12)
        assert triple.roots[1] == pytest.approx(complex(-1.5, -SQRT3 / 2), abs=1e-12)
        assert triple.roots[2] == pytest.approx(complex(-1.5, SQRT3 / 2), abs=1e-12)

    def test_one_eight(self):
        # r=1, s=8 gives p=-24, q=72; the real root is -(1*2)(1+2) = -6
        triple = solve_depressed(from_pair(1.0, 8.0))
        assert triple.roots[0].real == pytest.approx(-6.0, abs=1e-12)
        d = DepressedCubic(-24, 72)
        for x in triple.roots:
            assert abs(d(x)) <= 1e-10

    def test_exactly_one_real_root(self):
        triple = solve_depressed(from_pair(0.25, 7.5))
        assert triple.case is CaseTag.REAL_DISTINCT
        assert triple.roots[0].imag == 0
        assert triple.roots[1].imag != 0
        assert triple.roots[1] == triple.roots[2].conjugate()

    def test_boundary_pair_routes_to_degenerate(self):
        # r=1, s=-1 means q=0: never reaches this op via dispatch
        pair = compute_rs(DepressedCubic(3, 0))
        assert pair.case is CaseTag.DEGENERATE_Q0


class TestSolveConjugate:
    def test_surd_example(self):
        r = cmath.rect(4.0, 3 * math.pi / 4)
        triple = solve_depressed(from_pair(r, r.conjugate()))
        expected = sorted([-4 * SQRT2, 2 * SQRT2 + 2 * SQRT6, 2 * SQRT2 - 2 * SQRT6])
        for root, want in zip(triple.roots, expected):
            assert root.real == pytest.approx(want, abs=1e-12)
            assert root.imag == 0.0

    def test_cosine_example(self):
        r = cmath.rect(0.5, math.pi / 3)
        triple = solve_depressed(from_pair(r, r.conjugate()))
        expected = sorted(math.cos(k * math.pi / 9) for k in (8, 2, 4))
        for root, want in zip(triple.roots, expected):
            assert root.real == pytest.approx(want, abs=1e-12)

    def test_sine_example(self):
        r = cmath.rect(0.5, math.pi / 6)
        triple = solve_depressed(from_pair(r, r.conjugate()))
        expected = sorted(math.sin(k * math.pi / 9) for k in (14, 2, 8))
        for root, want in zip(triple.roots, expected):
            assert root.real == pytest.approx(want, abs=1e-12)

    def test_trig_annotation_reproduces_roots(self):
        r = cmath.rect(4.0, 3 * math.pi / 4)
        triple = solve_depressed(from_pair(r, r.conjugate()))
        trig = triple.trig
        assert trig.amplitude == pytest.approx(-8.0)
        assert trig.theta == pytest.approx(3 * math.pi / 4)
        for root, offset in zip(triple.roots, trig.offsets):
            assert trig.amplitude * math.cos(offset) == pytest.approx(root.real, abs=1e-12)


class TestUnifiedRoots:
    def test_set_matches_case_solver_for_every_branch(self):
        # All nine choices of cube roots u of r and v of s give one root set.
        rng = random.Random(29)
        for _ in range(300):
            p, q = log_uniform_pq(rng)
            d = DepressedCubic(p, q)
            reference = solve_depressed(d)
            pair = compute_rs(d)
            scale = max(1.0, max(abs(x) for x in reference.roots))
            for u in cube_roots_all(pair.r):
                for v in cube_roots_all(pair.s):
                    roots = unified_roots(u, v)
                    assert match_root_sets(roots, reference.roots) <= 1e-10 * scale


class TestSolveMoebius:
    def test_real_distinct_example(self):
        # u = 1/2 gives x = (-1/2 + 4*(1/2)) / (1 - 1/2) = 3
        triple = solve_moebius(complex(-0.5), complex(-4))
        assert any(abs(x - 3) <= 1e-12 for x in triple.roots)

    def test_one_eight(self):
        triple = solve_moebius(complex(1), complex(8))
        assert any(abs(x - (-6)) <= 1e-12 for x in triple.roots)

    def test_conjugate_matches_trig_solver(self):
        r = cmath.rect(4.0, 3 * math.pi / 4)
        triple = solve_moebius(r, r.conjugate())
        reference = solve_depressed(from_pair(r, r.conjugate()))
        assert_root_sets_close(triple.roots, reference.roots, 1e-9)

    def test_equal_pair_rejected(self):
        with pytest.raises(InvalidCaseError):
            solve_moebius(complex(2), complex(2))

    def test_zero_s_rejected(self):
        with pytest.raises(InvalidCaseError):
            solve_moebius(complex(1), complex(0))

    def test_ratio_rounding_to_one_rejected(self):
        # r != s, but r/s rounds to 1: the cube root u = 1 would divide by 1 - u = 0.
        d, _ = depress(GeneralCubic(43951145.871853314, 38670.97222551304, -0.0005494343777076591))
        pair = compute_rs(d)
        assert pair.r != pair.s
        with pytest.raises(InvalidCaseError, match="degenerates"):
            solve_moebius(pair.r, pair.s)


@pytest.mark.parametrize(
    "p,q",
    [(1e-200, 1e-200), (-3e-120, 1e-181), (1e-30, 1.0), (1, 2**100), (1.0, 2.0**100)],
)
def test_every_solver_reports_the_case_of_compute_rs(p, q):
    d = DepressedCubic(p, q)
    pair = compute_rs(d)
    assert cardano_solve(d)[0].case is pair.case
    assert brute_force_roots(d).case is pair.case
    if pair.r is not None and pair.r != pair.s:
        assert solve_moebius(pair.r, pair.s).case is pair.case


class TestSolveDegenerate:
    def test_q_zero_negative_p(self):
        triple = solve_depressed(DepressedCubic(-1, 0))
        assert triple.roots == (complex(-1), complex(0), complex(1))
        assert [e.as_fraction() for e in triple.exact] == [-1, 0, 1]

    def test_q_zero_positive_p(self):
        triple = solve_depressed(DepressedCubic(3, 0))
        assert triple.roots[0] == 0
        assert triple.roots[1] == pytest.approx(complex(0, -SQRT3), abs=1e-15)
        assert triple.roots[2] == pytest.approx(complex(0, SQRT3), abs=1e-15)

    def test_q_zero_surd_annotation(self):
        triple = solve_depressed(DepressedCubic(Fraction(-8), 0))
        assert str(triple.exact[2]) == "2*sqrt(2)"
        assert float(triple.exact[2]) == pytest.approx(math.sqrt(8))

    def test_negligible_p_has_no_exact_cube_root(self):
        # f(-2) = -2e-30 for x^3 + 1e-30 x + 8, so -2 is not an exact root.
        d = DepressedCubic(Fraction(1, 10**30), 8)
        assert solve_depressed(d).exact is None
        triple = solve(GeneralCubic(0, d.p, d.q))
        assert triple.case is CaseTag.DEGENERATE_P0 and triple.exact is None

    def test_p_zero(self):
        triple = solve_depressed(DepressedCubic(0, -8))
        assert triple.roots[0] == complex(2)
        assert triple.exact[0].as_fraction() == 2
        assert triple.roots[1] == pytest.approx(complex(-1, -SQRT3), abs=1e-14)
        assert triple.roots[2] == pytest.approx(complex(-1, SQRT3), abs=1e-14)

    def test_origin(self):
        triple = solve_depressed(DepressedCubic(0, 0))
        assert triple.roots == (0j, 0j, 0j)
        assert triple.multiplicity == ((0, 3),)

    def test_close_roots_of_a_float_cubic_are_not_a_double_root(self):
        # Roots -8.07e-6, -4.24 and 2.92e7: the discriminant is small next to
        # 4p^3 and 27q^2, but it is not 0.
        r0, r1, r2 = -8.07e-6, -4.24, 2.92e7
        triple = solve(GeneralCubic(-(r0 + r1 + r2), r0 * r1 + r0 * r2 + r1 * r2, -(r0 * r1 * r2)))
        assert triple.case is CaseTag.CONJUGATE_PAIR and triple.multiplicity == ()
        assert all(x.imag == 0 for x in triple.roots)


class TestSolvePipeline:
    def test_equal_case_stays_exact(self):
        triple = solve(GeneralCubic(0, -12, 16))
        assert triple.roots == (complex(-4), complex(2), complex(2))
        assert [e.as_fraction() for e in triple.exact] == [-4, 2, 2]

    def test_factored_cubic(self):
        triple = solve(GeneralCubic(-6, 11, -6))
        assert [x.real for x in triple.roots] == pytest.approx([1, 2, 3], abs=1e-12)
        assert [e.as_fraction() for e in triple.exact] == [1, 2, 3]

    def test_real_distinct_example(self):
        triple = solve(GeneralCubic(0, -6, -9))
        assert triple.roots[0].real == pytest.approx(3, abs=1e-12)

    def test_exact_surd_survives_shift(self):
        # (x+1)((x+1)^2 - 2) = x^3 + 3x^2 + x - 1: roots -1, -1 +- sqrt(2)
        triple = solve(GeneralCubic(3, 1, -1))
        assert triple.case is CaseTag.DEGENERATE_Q0
        assert [str(e) for e in triple.exact] == ["-1 - sqrt(2)", "-1", "-1 + sqrt(2)"]
        assert triple.roots[0].real == pytest.approx(-1 - SQRT2, abs=1e-14)
        assert triple.roots[2].real == pytest.approx(-1 + SQRT2, abs=1e-14)

    def test_ordering_convention(self):
        rng = random.Random(31)
        for _ in range(500):
            p, q = log_uniform_pq(rng)
            triple = solve_depressed(DepressedCubic(p, q))
            reals = [x for x in triple.roots if x.imag == 0]
            others = [x for x in triple.roots if x.imag != 0]
            assert triple.roots == tuple(
                sorted(reals, key=lambda z: z.real) + sorted(others, key=lambda z: z.imag)
            )
            if others:
                assert others[0] == others[1].conjugate()

    def test_polish_flag(self):
        cubic = GeneralCubic(0, -6, -9)
        raw = solve(cubic)
        polished = newton_polish(solve(cubic), cubic)
        assert max(abs(cubic(x)) for x in polished.roots) <= max(abs(cubic(x)) for x in raw.roots) + 1e-15

    def test_polish_keeps_triple_shape(self):
        cubic = GeneralCubic(0, -12, 16)
        polished = newton_polish(solve(cubic), cubic)
        assert polished.case is CaseTag.EQUAL
        assert polished.multiplicity == ((1, 2),)

    @pytest.mark.parametrize(
        "planted",
        [(1, 2, 10**6), (-3, 5, 920515), (Fraction(1, 3), 7, -375722)],
    )
    def test_planted_roots_keep_relative_accuracy(self, planted):
        # Three real roots of very different size: B^2 ~ 4|C| in the (r, s)
        # quadratic, where a discriminant recomputed in doubles cancels.
        x0, x1, x2 = planted
        cubic = GeneralCubic(-(x0 + x1 + x2), x0 * x1 + x0 * x2 + x1 * x2, -x0 * x1 * x2)
        triple = solve(cubic)
        for x, want in zip(triple.roots, sorted(planted)):
            assert abs(x - float(want)) <= 1e-8 * abs(float(want))

    def test_pair_rides_through_lift_and_polish(self):
        cubic = GeneralCubic(1, -10, 8)  # roots -4, 1, 2
        d, _ = depress(cubic)
        expected = compute_rs(d)
        assert solve_depressed(d).pair == expected
        assert newton_polish(solve(cubic), cubic).pair == expected
        assert solve_moebius(expected.r, expected.s).pair is None


class TestProperties:
    def test_residual_and_vieta(self):
        rng = random.Random(37)
        for _ in range(2000):
            p, q = log_uniform_pq(rng)
            d = DepressedCubic(p, q)
            triple = solve_depressed(d)
            scale = max(1.0, abs(p), abs(q)) ** 1.5
            x0, x1, x2 = triple.roots
            for x in triple.roots:
                assert abs(d(x)) <= 1e-10 * scale
            assert abs(x0 + x1 + x2) <= 1e-10 * scale
            assert abs(x0 * x1 + x0 * x2 + x1 * x2 - p) <= 1e-10 * scale
            assert abs(x0 * x1 * x2 + q) <= 1e-10 * scale

    def test_conjugate_pairing_of_nonreal_roots(self):
        rng = random.Random(41)
        for _ in range(1000):
            p, q = log_uniform_pq(rng)
            triple = solve_depressed(DepressedCubic(p, q))
            nonreal = [x for x in triple.roots if x.imag != 0]
            assert len(nonreal) in (0, 2)
            if nonreal:
                assert nonreal[0] == nonreal[1].conjugate()

    def test_ratio_cube_property(self):
        # ((x - r)/(x - s))^3 == r/s at every computed root; tolerance is
        # relative to the ratio once it exceeds 1 (eps*|r/s| is the floor
        # for merely computing the right-hand side).
        rng = random.Random(43)
        for _ in range(500):
            p, q = log_uniform_pq(rng)
            pair = compute_rs(DepressedCubic(p, q))
            if pair.case is CaseTag.EQUAL:
                continue
            triple = solve_depressed(DepressedCubic(p, q))
            ratio = pair.r / pair.s
            for x in triple.roots:
                lhs = ((x - pair.r) / (x - pair.s)) ** 3
                assert abs(lhs - ratio) <= 1e-9 * max(1.0, abs(ratio))

    def test_swap_invariance(self):
        rng = random.Random(47)
        for _ in range(300):
            p, q = log_uniform_pq(rng)
            pair = compute_rs(DepressedCubic(p, q))
            if pair.case in (CaseTag.DEGENERATE_P0, CaseTag.DEGENERATE_Q0):
                continue
            u, v = principal_cube_root(pair.r), principal_cube_root(pair.s)
            a = unified_roots(u, v)
            b = unified_roots(v, u)
            scale = max(1.0, max(abs(x) for x in a))
            assert match_root_sets(a, b) <= 1e-10 * scale
            if pair.case is not CaseTag.EQUAL:
                ma = solve_moebius(pair.r, pair.s)
                mb = solve_moebius(pair.s, pair.r)
                assert match_root_sets(ma.roots, mb.roots) <= 1e-10 * scale

    def test_scaling_covariance(self):
        rng = random.Random(53)
        for _ in range(300):
            p, q = log_uniform_pq(rng)
            lam = 10 ** rng.uniform(-2, 2)
            base = solve_depressed(DepressedCubic(p, q))
            scaled = solve_depressed(DepressedCubic(p * lam**2, q * lam**3))
            expected = tuple(lam * x for x in base.roots)
            scale = max(1.0, max(abs(x) for x in expected))
            assert match_root_sets(scaled.roots, expected) <= 1e-10 * scale

    def test_case_structure_agreement(self):
        rng = random.Random(59)
        for _ in range(2000):
            p, q = log_uniform_pq(rng)
            d = DepressedCubic(p, q)
            triple = solve_depressed(d)
            delta = 4 * p**3 + 27 * q**2
            n_real = sum(1 for x in triple.roots if x.imag == 0)
            if triple.case is CaseTag.REAL_DISTINCT:
                assert delta > 0 and n_real == 1
            elif triple.case is CaseTag.CONJUGATE_PAIR:
                assert delta < 0 and n_real == 3


class TestExactValue:
    def test_rational_str(self):
        assert str(ExactValue(Fraction(9, 2))) == "9/2"
        assert str(ExactValue(Fraction(-4))) == "-4"

    def test_surd_str(self):
        assert str(ExactValue(Fraction(0), Fraction(1), 2)) == "sqrt(2)"
        assert str(ExactValue(Fraction(0), Fraction(-3, 2), 5)) == "-3/2*sqrt(5)"
        assert str(ExactValue(Fraction(1), Fraction(-1), 2)) == "1 - sqrt(2)"

    def test_sqrt_of_extracts_square_part(self):
        v = ExactValue.sqrt_of(Fraction(8))
        assert (v.rational, v.surd_coef, v.radicand) == (0, 2, 2)
        assert ExactValue.sqrt_of(Fraction(49, 4)).as_fraction() == Fraction(7, 2)
        v = ExactValue.sqrt_of(Fraction(8, 9))
        assert float(v) == pytest.approx(math.sqrt(8 / 9))

    def test_sqrt_of_large_square_part(self):
        # 10^7 + 19 is prime: its square is found after trial division stops at the cube root.
        assert str(ExactValue.sqrt_of(Fraction(3 * (10**7 + 19) ** 2))) == "10000019*sqrt(3)"

    @given(st.integers(1, 10**5), st.integers(1, 10**8))
    def test_sqrt_of_splits_off_a_square_free_radicand(self, a, b):
        n = a * a * b  # at most 10^18, where the split is exact
        v = ExactValue.sqrt_of(Fraction(n))
        k, m = (v.rational, 1) if v.is_rational else (v.surd_coef, v.radicand)
        assert k * k * m == n
        assert all(m % (d * d) for d in range(2, math.isqrt(m) + 1))

    def test_shift_and_negate(self):
        v = ExactValue.sqrt_of(Fraction(2)).shift(Fraction(-1))
        assert str(v) == "-1 + sqrt(2)"
        assert str(-v) == "1 - sqrt(2)"
        assert float(v) == pytest.approx(SQRT2 - 1)

    def test_normalization_folds_unit_radicand(self):
        v = ExactValue(Fraction(1), Fraction(3), 1)
        assert v.as_fraction() == 4

    def test_make_and_replace_fold_the_surd(self):
        plain = ExactValue(Fraction(4))
        assert ExactValue._make((Fraction(1), Fraction(3), 1)) == plain
        assert ExactValue(Fraction(1), Fraction(3), 2)._replace(radicand=1) == plain
        assert ExactValue(Fraction(4), Fraction(3), 2)._replace(surd_coef=Fraction(0)) == plain
        with pytest.raises(ValueError):
            ExactValue._make((Fraction(1), Fraction(3), -2))


class TestFractionCbrt:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (Fraction(8), Fraction(2)),
            (Fraction(-27, 64), Fraction(-3, 4)),
            (Fraction(0), Fraction(0)),
            (Fraction(10**33), Fraction(10**11)),
        ],
    )
    def test_perfect_cubes(self, value, expected):
        assert fraction_cbrt(value) == expected

    @pytest.mark.parametrize("value", [Fraction(2), Fraction(9), Fraction(8, 3)])
    def test_non_cubes(self, value):
        assert fraction_cbrt(value) is None


# (p, q) of x^3 + px + q for each case tag; the origin is degenerate_p0 too.
CASE_INPUTS = {
    CaseTag.EQUAL: (-12, 16),
    CaseTag.REAL_DISTINCT: (-6, -9),
    CaseTag.CONJUGATE_PAIR: (-3, 1),
    CaseTag.DEGENERATE_P0: (0, 2),
    CaseTag.DEGENERATE_Q0: (-4, 0),
}


def records_of(p, q):
    """A record of every type built for x^3 + px + q: the inputs, what the solvers return, and the records nested in them."""
    d = DepressedCubic(p, q)
    pair = compute_rs(d)
    # x = y - 1 shifts the cubic, so solve lifts the roots by a nonzero delta.
    shifted = GeneralCubic(3, 3 + p, 1 + p + q)
    triples = [solve(shifted), solve_depressed(d), cardano_solve(d)[0], brute_force_roots(d)]
    triples.append(newton_polish(triples[0], shifted))
    if pair.r is not None and pair.r != pair.s:
        triples.append(solve_moebius(pair.r, pair.s))
    nested = [t.pair for t in triples if t.pair is not None] + [t.trig for t in triples if t.trig is not None]
    nested += [e for t in triples for e in t.exact or () if e is not None]
    radical = NestedRadical(q, p * p)
    inputs = [d, shifted, radical]
    return [pair] + triples + nested + inputs + [cardano_solve(d)[1], verify_roots(d, triples[1]), denest(radical)]


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("case", list(CASE_INPUTS), ids=lambda c: c.value)
def test_records_stay_frozen_values(case, exact):
    p, q = CASE_INPUTS[case]
    if not exact:
        p, q = float(p), float(q)
    records = records_of(p, q)
    assert records[0].case is case
    for record in records:
        fields = record._asdict()
        assert list(fields) == list(record._fields)
        rebuilt = type(record)(**fields)
        assert record == rebuilt and hash(record) == hash(rebuilt) and repr(record) == repr(rebuilt)
        assert record._replace() == record
        assert record._asdict() == rebuilt._asdict()
        # A value record equals only a record of its own type, never the plain tuple of its values.
        assert record != tuple(record) and tuple(record) != record and not record == tuple(record)
        for copied in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
            assert type(copied) is type(record) and copied == record and repr(copied) == repr(record)
        for name, value in fields.items():
            with pytest.raises(AttributeError):
                setattr(record, name, value)
        with pytest.raises(AttributeError):
            record.unknown_field = None  # no instance __dict__ either
        for op in (operator.add, operator.mul, operator.lt):
            for left, right in ((record, record), (tuple(record), record), (record, tuple(record))):
                with pytest.raises(TypeError):
                    op(left, right)
        with pytest.raises(TypeError):
            record * 2
        with pytest.raises(TypeError):
            2 * record
    values = (Fraction(1), Fraction(2), 3)
    assert tuple(GeneralCubic(*values)) == tuple(ExactValue(*values))
    assert GeneralCubic(*values) != ExactValue(*values)
    assert DepressedCubic(1, 2) != NestedRadical(1, 2)
    triple = solve_depressed(DepressedCubic(-3, 1))
    assert triple != CardanoIntermediates(*triple)
    # denest's cubic keeps a float p beside an exact q that no double holds; copies keep it as it is.
    mixed = denest(NestedRadical(10**400, 10**800 - 2)).cubic
    assert type(mixed.p) is float and mixed.q == -2 * 10**400
    assert copy.deepcopy(mixed) == mixed and pickle.loads(pickle.dumps(mixed)) == mixed
