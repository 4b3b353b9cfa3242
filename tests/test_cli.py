import ast
import contextlib
import io
import json
import math
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import rscubic.cardano
import rscubic.cli
import rscubic.verify
from rscubic import GeneralCubic, VerificationReport, solve
from rscubic.cli import main

SQRT3 = math.sqrt(3.0)
OVERFLOWING = "x^3+1" + "0" * 400 + "x+1"
# Roots +-sqrt(N/D) whose exact string holds the radicand N*D, about 6000 digits:
# more than int-to-str converts (4300 by default).
TOO_LONG_TO_PRINT = f"{10**2999 + 3}x^3-{10**2999 + 7}x"
# 10^400 beside an irrational sqrt term: the parser must round it into a float cubic.
BEYOND_DOUBLE = "1" + "0" * 400
# The keys every solve record starts with, in order.
SOLVE_KEYS = ["input", "method", "p", "q", "case", "r", "roots"]


@pytest.fixture
def failing_verify(monkeypatch):
    """verify_roots as the CLI binds it from rscubic.verify, with every report failed."""
    verify_roots = rscubic.verify.verify_roots
    monkeypatch.setattr(rscubic.verify, "verify_roots", lambda d, t: verify_roots(d, t)._replace(passed=False))


@pytest.fixture
def infinite_root(monkeypatch):
    """solve as the CLI calls it, with x[0] made infinite for cubics whose c is -9."""

    def fake(cubic):
        triple = solve(cubic)
        return triple._replace(roots=(math.inf,) + triple.roots[1:]) if cubic.c == -9 else triple

    monkeypatch.setattr(rscubic.cli, "solve", fake)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolveFlags:
    def test_depressed_json(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--p=-6", "--q=-9", "--method", "chen", "--format", "json"
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["case"] == "real_distinct"
        roots = sorted(rec["roots"], key=lambda z: (z["im"], z["re"]))
        assert roots[1] == {"re": 3.0, "im": 0.0}
        assert roots[0]["re"] == pytest.approx(-1.5)
        assert roots[2]["im"] == pytest.approx(SQRT3 / 2)
        assert rec["r"]["re"] == pytest.approx(-0.5)
        # The record leaves s out; solve's pair holds it.
        assert solve(GeneralCubic(0, -6, -9)).pair.s.real == pytest.approx(-4.0)

    def test_space_separated_negative_values(self, capsys):
        code, out, _ = run(capsys, "solve", "--p", "-6", "--q", "-9", "--format", "json")
        assert code == 0
        assert json.loads(out)["case"] == "real_distinct"

    def test_expr_starting_with_minus_is_given_with_equals(self, capsys):
        code, out, _ = run(capsys, "solve", "--expr=-9*x^3+1", "--format", "json")
        assert code == 0
        assert json.loads(out)["input"] == "-9*x^3+1"
        # Given apart, argparse reads the equation as an option: a usage error.
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--expr", "-9*x^3+1"])
        assert exc.value.code == 2
        assert "argument --expr: expected one argument" in capsys.readouterr().err

    def test_json_floats_roundtrip(self, capsys):
        _, out, _ = run(capsys, "solve", "--expr", "x^3-48x-64*sqrt(2)", "--format", "json")
        rec = json.loads(out)
        rec2 = json.loads(json.dumps(rec))
        assert rec2 == rec
        assert rec["q"] == -64 * math.sqrt(2.0)

    def test_general_coefficients(self, capsys):
        code, out, _ = run(capsys, "solve", "--expr", "x^3-6x^2+11x-6", "--format", "json")
        assert code == 0
        rec = json.loads(out)
        assert [z["re"] for z in rec["roots"]] == pytest.approx([1, 2, 3])

    def test_rational_flags_hit_exact_pipeline(self, capsys):
        code, out, _ = run(capsys, "solve", "--p=-12", "--q=16")
        assert code == 0
        assert "  x[0] = -4   (exact: -4)\n" in out
        assert "  x[1] = 2   (exact: 2)   [multiplicity 2]\n" in out
        assert out.count("(exact: ") == 3

    def test_trig_format(self, capsys):
        # Three real roots: the text adds the cosine form, amplitude, theta and each root's offset.
        code, out, _ = run(capsys, "solve", "--expr", "x^3-0.75x+0.125")
        assert code == 0
        assert "cosine form: x[i] = -1 * cos(offset[i]), theta = 1.0471975512\n" in out
        assert "  offsets: 0.111111111111*pi, 1.44444444444*pi, 0.777777777778*pi\n" in out

    def test_trig_format_falls_back(self, capsys):
        # One real root and a pair: no cosine form, only the roots.
        code, out, _ = run(capsys, "solve", "--p=1", "--q=1")
        assert code == 0
        assert "roots:" in out and "cos" not in out

    def test_both_method(self, capsys):
        code, out, _ = run(capsys, "solve", "--p=-6", "--q=-9", "--method", "both", "--format", "json")
        assert code == 0
        rec = json.loads(out)
        assert rec["max_matched_distance"] <= 1e-10
        assert len(rec["cardano_roots"]) == 3

    def test_both_method_text(self, capsys):
        code, out, _ = run(capsys, "solve", "--p=-6", "--q=-9", "--method", "both")
        assert code == 0
        assert "roots:\n  x[0] = 3\n" in out
        assert "cardano roots:\n  x[0] = 3\n" in out
        assert "max matched distance = " in out

    @pytest.mark.parametrize("flag, value", [("--method", "cardano"), ("--method", "moebius"),
                                             ("--format", "trig"), ("--format", "exact")])
    def test_dropped_option_values_are_usage_errors(self, capsys, flag, value):
        # The library keeps cardano_solve and solve_moebius; the CLI prints solve's roots.
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--p=-6", "--q=-9", flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: invalid choice: '{value}'" in capsys.readouterr().err

    def test_polish_flag(self, capsys):
        # The solve step refines its own roots, so there is no --polish flag.
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--expr", "x^3-6x-9", "--polish"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --polish" in capsys.readouterr().err

    def test_verify_flag_passes(self, capsys):
        code, out, _ = run(capsys, "solve", "--p=-12", "--q=16", "--verify", "--format", "json")
        assert code == 0
        rec = json.loads(out)
        assert rec["verification"]["pass"] is True
        assert max(rec["verification"]["vieta_errors"]) == 0.0

    # One text renderer: the report comes last after the plain roots, after the cosine
    # form and after the exact notes, which --format trig and exact once printed alone.
    @pytest.mark.parametrize(
        "expr, shown",
        [("x^3+x+1", "roots:"), ("x^3-0.75x+0.125", "cosine form:"), ("x^3-6x^2+11x-6", "(exact: 3)")],
        ids=["text", "trig", "exact"],
    )
    def test_verify_report_in_every_text_format(self, capsys, expr, shown):
        code, out, _ = run(capsys, "solve", "--expr", expr, "--verify")
        assert code == 0
        assert shown in out
        assert out.count("verification: PASS") == 1
        assert out.rstrip().splitlines()[-1].startswith("verification: PASS")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_failed_verify_is_3(self, capsys, failing_verify, fmt):
        # The printed roots go out with the failed report, then the run exits 3.
        code, out, _ = run(capsys, "solve", "--p=-12", "--q=16", "--verify", "--format", fmt)
        assert code == 3
        if fmt == "json":
            assert json.loads(out)["verification"]["pass"] is False
        else:
            assert "x[0] = -4   (exact: -4)" in out
            assert out.rstrip().splitlines()[-1].startswith("verification: FAIL (max residual 0, ")

    def test_precision_flag(self, capsys):
        # Text prints 12 significant digits; no flag sets them (test_bad_precision_is_2).
        _, out, _ = run(capsys, "solve", "--p=-48", "--q=1")
        assert "  x[2] = 6.91776297651\n" in out

    def test_verify_with_q_beyond_1e205(self, capsys):
        # max(1, |p|, |q|)^1.5 overflows at q = 10^210; the bound is tested without forming it.
        code, out, _ = run(capsys, "solve", "--p=0", f"--q={10**210}", "--verify", "--format", "json")
        assert code == 0
        assert json.loads(out)["verification"]["pass"] is True

    def test_negligible_p_case_matches_library(self, capsys):
        # p is below double resolution next to q, so the solve runs on x^3 + q.
        q = 10**40
        code, out, _ = run(capsys, "solve", "--p", "1", "--q", str(q), "--format", "json")
        assert code == 0
        rec = json.loads(out)
        assert rec["case"] == solve(GeneralCubic(0, 1, q)).case.value == "degenerate_p0"
        assert rec["r"] is None and solve(GeneralCubic(0, 1, q)).pair.s is None

    def test_negligible_p_claims_no_exact_root(self, capsys):
        code, out, _ = run(capsys, "solve", "--expr", "x^3 + 1/1000000000000000000000000000000x + 8")
        assert code == 0
        assert "degenerate_p0" in out and "(exact" not in out


    def test_small_root_of_a_wide_cubic(self, capsys):
        # x^3 - (10^59 + 1)x + 3: roots +-3.2e29 and 3e-59; the middle root printed as 6.7e13.
        code, out, _ = run(
            capsys, "solve", "--expr", "x^3 - 100000000000000000000000000000000000000000000000000000000001x + 3",
            "--format", "json",
        )
        assert code == 0
        roots = [z["re"] for z in json.loads(out)["roots"]]
        assert roots[1] == pytest.approx(3e-59, rel=1e-14)
        assert roots[2] == pytest.approx(math.sqrt(1e59), rel=1e-14)

    def test_no_negative_zero_in_json(self, capsys):
        for expr in ("x^3 + x^2", "x^3 - 55x^2 + 1322x", "x^3 - x", "x^3 + 3x"):
            _, out, _ = run(capsys, "solve", "--expr", expr, "--format", "json")
            assert "-0.0" not in out, out


def test_both_verify_decides_the_case_once_per_line(capsys, tmp_path, monkeypatch):
    # The case is decided by compute_rs, the one entry to the r,s stage for exact and
    # float cubics alike; Cardano and the verify report reuse solve's case.
    import rscubic.decompose

    calls = []
    stage = rscubic.decompose.compute_rs

    def counted(*args):
        calls.append(args)
        return stage(*args)

    for module in [m for n, m in sys.modules.items() if n.startswith("rscubic") and m is not rscubic.decompose]:
        if getattr(module, "compute_rs", None) is stage:
            monkeypatch.setattr(module, "compute_rs", counted)
    lines = ["x^3-12x+16", "x^3-6x-9", "x^3-3x+1", "x^3+8", "x^3-4x", "x^3-6x^2+11x-6", "x^3+sqrt(2)x+1"]
    batch = tmp_path / "cubics.txt"
    batch.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "solve", "--batch", str(batch), "--method", "both", "--verify", "--format", "json")
    assert code == 0 and len(out.strip().splitlines()) == len(lines)
    assert len(calls) == len(lines)


def test_each_stage_runs_once_per_line(capsys, tmp_path, monkeypatch):
    # solve looks its stages up in rscubic.chen: depress for a float cubic, its integer
    # entry for an exact one, whose integers it reads once, and compute_rs for both.
    # The CLI adds only Cardano and the verify report.
    import rscubic.chen

    calls = {}

    def count(module, name):
        stage = getattr(module, name)

        def counted(*args):
            calls[name] = calls.get(name, 0) + 1
            return stage(*args)

        monkeypatch.setattr(module, name, counted)

    for name in ("depress", "_depress_exact", "compute_rs", "_solve_cubic"):
        assert not hasattr(rscubic.cli, name)  # only solve runs the stages
        count(rscubic.chen, name)
    count(rscubic.cardano, "_cardano")
    count(rscubic.verify, "verify_roots")
    exact_lines = ["x^3-6x^2+11x-6", "x^3+3x^2-1", "2x^3+x+5"]
    float_lines = ["x^3+sqrt(2)x^2-x+1"]
    batch = tmp_path / "cubics.txt"
    batch.write_text("\n".join(exact_lines + float_lines) + "\n")
    code, out, _ = run(capsys, "solve", "--batch", str(batch), "--method", "both", "--verify", "--format", "json")
    n = len(exact_lines) + len(float_lines)
    assert code == 0 and len(out.strip().splitlines()) == n
    assert calls == {
        "_depress_exact": len(exact_lines),
        "depress": len(float_lines),
        **dict.fromkeys(["compute_rs", "_solve_cubic", "_cardano", "verify_roots"], n),
    }


def test_both_compares_the_printed_root_sets(capsys):
    # max_matched_distance pairs the original-cubic roots of both methods, as printed.
    code, out, _ = run(capsys, "solve", "--expr", "x^3-719919180x^2-205527342x+966976506", "--method", "both", "--format", "json")
    assert code == 0
    rec = json.loads(out)
    roots = [complex(z["re"], z["im"]) for z in rec["roots"]]
    cardano = [complex(z["re"], z["im"]) for z in rec["cardano_roots"]]
    assert rec["max_matched_distance"] == rscubic.cli.match_root_sets(roots, cardano)


class TestExitCodes:
    def test_parse_error_is_2(self, capsys):
        code, _, err = run(capsys, "solve", "--expr", "x^4+1")
        assert code == 2
        assert "exceeds 3" in err

    def test_no_input_is_2(self, capsys):
        code, _, err = run(capsys, "solve")
        assert code == 2
        assert "exactly one" in err

    def test_conflicting_inputs_are_2(self, capsys):
        code, _, _ = run(capsys, "solve", "--expr", "x^3", "--p=1", "--q=1")
        assert code == 2

    def test_half_depressed_pair_is_2(self, capsys):
        code, _, err = run(capsys, "solve", "--p=1")
        assert code == 2

    def test_general_coefficient_flags_are_gone_is_2(self, capsys):
        # x^3+ax^2+bx+c is given as --expr; argparse refuses the old --a/--b/--c spelling
        # (--b=2 reads as an abbreviation of --batch, so only --a and --c are named).
        with pytest.raises(SystemExit) as info:
            main(["solve", "--a=1", "--b=2", "--c=3"])
        assert info.value.code == 2
        assert "unrecognized arguments: --a=1 --c=3" in capsys.readouterr().err

    def test_non_finite_root_is_3(self, capsys, infinite_root):
        code, out, err = run(capsys, "solve", "--p=-6", "--q=-9")
        assert code == 3 and out == ""
        assert err == "error: numeric failure: non-finite intermediate or result\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["--expr", TOO_LONG_TO_PRINT, "--format", "json"],
            [f"--p={'9' * 4000}*sqrt(1{'0' * 4000})", "--q=1"],  # the echo of p, 6000 digits
        ],
        ids=["exact roots", "p echo"],
    )
    def test_exact_value_too_long_to_print_is_3(self, capsys, argv):
        code, out, err = run(capsys, "solve", *argv)
        assert code == 3 and out == ""
        assert err == "error: numeric failure: an exact value has too many digits to print\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["--expr", f"x^3 + {BEYOND_DOUBLE}*sqrt(2)x"],
            ["--expr", f"x^3 + {BEYOND_DOUBLE}x + sqrt(2)x"],
            ["--expr", f"x^3 + sqrt(2)x + {BEYOND_DOUBLE}x"],
            ["--expr", f"x^3 + sqrt(2)x + {BEYOND_DOUBLE}"],
            [f"--p={BEYOND_DOUBLE}*sqrt(2)", "--q=1"],
        ],
        ids=["product", "exact sum first", "exact sum last", "constant", "p flag"],
    )
    def test_exact_value_beyond_double_in_a_float_cubic_is_2(self, capsys, argv):
        # The parser cannot round 10^400 into the float cubic a sqrt term makes: invalid input.
        code, out, err = run(capsys, "solve", *argv)
        assert code == 2 and out == ""
        assert err == "error: an exact value beyond the double range cannot be rounded into a float form\n"

    def test_r_or_s_without_a_double_is_2(self, capsys):
        # x^3 + 2^1850 x + 2^2873: its s = -1.5 * 2^1024 has no double, which is invalid input.
        code, out, err = run(capsys, "solve", f"--p={2**1850}", f"--q={2**2873}", "--format", "json")
        assert (code, out) == (2, "")
        assert err == "error: the pair's s = -1.1068046444225731e+20 * 2^958 has no double\n"

    def test_rational_r_without_a_double_is_2(self, capsys):
        # x^3 - 3 10^800 x + 2 10^1200 = (x - 10^400)^2 (x + 2 10^400): its exact r = 10^400 has no double.
        code, out, err = run(capsys, "solve", f"--p={-3 * 10**800}", f"--q={2 * 10**1200}")
        assert (code, out) == (2, "")
        assert err == "error: the pair's r = 0.8533668389533203 * 2^1329 has no double\n"

    def test_root_without_a_double_is_2(self, capsys):
        # x^3 + 10^1000: its real root, -cbrt(10^1000) or about -2.15e333, has no double.
        code, out, err = run(capsys, "solve", "--p=0", f"--q={10**1000}")
        assert (code, out) == (2, "")
        assert err == "error: a root = -0.619581066161271 * 2^1108 has no double\n"

    def test_overflowing_input_is_3(self, capsys):
        code, _, err = run(capsys, "solve", "--p=" + "9" * 320, "--q=1")
        assert code == 3

    @pytest.mark.parametrize("root", [10**200, 10**110, 2**700], ids=["10^200", "10^110", "2^700"])
    def test_text_residuals_of_a_coefficient_without_a_double(self, capsys, root):
        # (x + root)^3 written out: c (and b, but for 10^110) has no double. Text prints where
        # JSON does, each residual |f(x)| taken exactly at the rounded root and rounded once.
        expr = f"x^3+{3 * root}x^2+{3 * root * root}x+{root**3}"
        assert run(capsys, "solve", "--expr", expr, "--format", "json")[0] == 0
        code, out, err = run(capsys, "solve", "--expr", expr)
        assert code == 0 and err == ""
        cube = abs(int(float(root)) - root) ** 3  # f(x) = (x + root)^3 at x = -float(root)
        residual = f"{float(cube):.3g}" if cube < 2**1023 else "inf"
        assert f"residuals: {residual}, {residual}, {residual}\n" in out

    def test_unparseable_flag_value_is_2(self, capsys):
        # A coefficient flag's ParseError reaches the user as it reads, as --expr's does.
        for argv, message in [
            (["solve", "--p", "abc", "--q", "1"], "expected a number (at position 0)"),
            (["solve", "--p=1/0", "--q=1"], "zero denominator (at position 2)"),
            (["denest", "--a=1/0", "--b=1"], "zero denominator (at position 2)"),
        ]:
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert err.startswith(f"error: {message}\n"), argv

    # Text prints 12 significant digits: no command takes --precision, whatever its value.
    @pytest.mark.parametrize("value", ["-1", "abc", "2147483648", "9" * 20, pytest.param("9" * 5000, id="5000 digits")])
    @pytest.mark.parametrize("argv", [["solve", "--p=-6", "--q=-9"], ["denest", "--a", "2", "--b", "3"]])
    def test_bad_precision_is_2(self, capsys, argv, value):
        with pytest.raises(SystemExit) as info:
            main(argv + ["--precision", value])
        assert info.value.code == 2
        assert f"unrecognized arguments: --precision {value}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--format", "text"]], ids=["format text"])
    def test_batch_refuses_text_flags_is_2(self, capsys, tmp_path, flags):
        # Batch output is JSON lines: a text-only flag given with --batch is an error, not dropped.
        batch = tmp_path / "cubics.txt"
        batch.write_text("x^3-12x+16\n")
        code, out, err = run(capsys, "solve", "--batch", str(batch), *flags)
        assert code == 2 and out == ""
        assert err == "error: --batch writes JSON lines; --format text does not apply\n"

    def test_float_depress_overflow_is_2(self, capsys):
        # a = 10^108 sqrt(2) is a double, but a^3 in the depressed q is not.
        code, out, err = run(capsys, "solve", "--expr", f"x^3+{10**108}*sqrt(2)x^2+1")
        assert (code, out) == (2, "")
        assert err == "error: the depressed q = 2a^3/27 - ab/3 + c has no double: a^3 overflows\n"

    def test_denest_p_beyond_double_range_is_2(self, capsys):
        # a^2 - b = 10^1000 is no rational cube: p = -3 cbrt(10^1000) has no double.
        code, out, err = run(capsys, "denest", "--a", str(10**500), "--b", "0")
        assert (code, out) == (2, "")
        assert err == "error: p = -3 cbrt(a^2 - b) has no double\n"

    def test_denest_a_beyond_double_range_is_0(self, capsys):
        code, out, _ = run(capsys, "denest", "--a", str(10**400), "--b", "2")
        assert code == 0
        assert out.startswith("value = 4.30886938006e+133")
        # The record holds only the value and its exact form, so a is never rounded to a double.
        code, out, _ = run(capsys, "denest", "--a", str(10**400), "--b", "2", "--format", "json")
        assert code == 0
        assert out == '{"value": 4.3088693800637675e+133, "exact": null}\n'


class TestBatch:
    def test_batch_json_lines(self, capsys, tmp_path):
        batch = tmp_path / "cubics.txt"
        batch.write_text("x^3-12x+16\n\n# comment\nx^3-6x-9\n")
        code, out, err = run(capsys, "solve", "--batch", str(batch))
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        first, second = (json.loads(line) for line in lines)
        assert first["case"] == "equal"
        assert second["case"] == "real_distinct"

    def test_batch_file_with_a_utf8_bom_reads_as_without(self, capsys, tmp_path):
        # Editors on Windows save UTF-8 with a byte order mark: it is no part of line 1.
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_bytes(b"x^3 - 6x^2 + 11x - 6\nx^3-12x+16\n")
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        expected = run(capsys, "solve", "--batch", str(plain))
        assert expected[0] == 0 and expected[2] == ""
        assert run(capsys, "solve", "--batch", str(marked)) == expected

    def test_batch_symmetric_roots_are_symmetric(self, capsys, tmp_path):
        # x^3 - 1021x: the deflated quadratic x^2 - 1021 gives +-sqrt(1021) to the bit.
        batch = tmp_path / "cubics.txt"
        batch.write_text("x^3-1021x\n")
        code, out, _ = run(capsys, "solve", "--batch", str(batch))
        assert code == 0
        w = math.sqrt(1021)
        assert json.loads(out)["roots"] == [{"re": -w, "im": 0.0}, {"re": 0.0, "im": 0.0}, {"re": w, "im": 0.0}]

    def test_batch_reports_and_skips_bad_lines(self, capsys, tmp_path):
        batch = tmp_path / "cubics.txt"
        batch.write_text("x^3-12x+16\nnot a cubic!!\nx^3+x\n")
        code, out, err = run(capsys, "solve", "--batch", str(batch))
        assert code == 2
        assert len(out.strip().splitlines()) == 2  # bad line skipped
        assert "line 2" in err

    def test_batch_numeric_failure_is_3(self, capsys, tmp_path):
        # A 10^400 coefficient overflows its double in the record, as with --expr.
        batch = tmp_path / "cubics.txt"
        batch.write_text(f"x^3-6x-9\n{OVERFLOWING}\nx^3+x+1\n")
        code, out, err = run(capsys, "solve", "--batch", str(batch))
        assert code == 3
        assert len(out.strip().splitlines()) == 2
        assert err == "line 2: integer division result too large for a float\n"

    def test_batch_overlong_number_is_2(self, capsys, tmp_path):
        # int() refuses more than 4300 digits: the line is a parse error and the run goes on.
        batch = tmp_path / "cubics.txt"
        batch.write_text(f"x^3-12x+16\nx^3+{'1' * 5000}\nx^3+x+1\n")
        code, out, err = run(capsys, "solve", "--batch", str(batch))
        assert code == 2
        assert [json.loads(line)["input"] for line in out.splitlines()] == ["x^3-12x+16", "x^3+x+1"]
        assert err.startswith("line 2: number has too many digits (at position 4)\n")

    def test_batch_exact_value_too_long_to_print_is_3(self, capsys, tmp_path):
        batch = tmp_path / "cubics.txt"
        batch.write_text(f"x^3-12x+16\n{TOO_LONG_TO_PRINT}\nx^3+x+1\n")
        code, out, err = run(capsys, "solve", "--batch", str(batch))
        assert code == 3
        assert [json.loads(line)["input"] for line in out.splitlines()] == ["x^3-12x+16", "x^3+x+1"]
        assert err == "line 2: an exact value has too many digits to print\n"

    def test_batch_non_finite_root_is_3(self, capsys, tmp_path, infinite_root):
        batch = tmp_path / "cubics.txt"
        batch.write_text("x^3-12x+16\nx^3-6x-9\nx^3+x+1\n")
        code, out, err = run(capsys, "solve", "--batch", str(batch))
        assert code == 3
        assert [json.loads(line)["input"] for line in out.splitlines()] == ["x^3-12x+16", "x^3+x+1"]
        assert err == "line 2: non-finite intermediate or result\n"

    def test_batch_usage_error_outranks_numeric_failure(self, capsys, tmp_path):
        batch = tmp_path / "cubics.txt"
        batch.write_text(f"{OVERFLOWING}\nnot a cubic!!\n")
        code, _, err = run(capsys, "solve", "--batch", str(batch))
        assert code == 2
        assert "line 1" in err and "line 2" in err

    def test_batch_failed_verify_is_3(self, capsys, tmp_path, failing_verify):
        # A line whose report fails is still printed; the run then exits 3.
        batch = tmp_path / "cubics.txt"
        batch.write_text("x^3-12x+16\nx^3-6x-9\n")
        code, out, err = run(capsys, "solve", "--batch", str(batch), "--verify")
        assert code == 3 and err == ""
        recs = [json.loads(line) for line in out.strip().splitlines()]
        assert [rec["verification"]["pass"] for rec in recs] == [False, False]

    def test_batch_preserves_input_order(self, capsys, tmp_path):
        batch = tmp_path / "cubics.txt"
        exprs = [f"x^3+{k}x+1" for k in range(1, 8)]
        batch.write_text("\n".join(exprs) + "\n")
        code, out, _ = run(capsys, "solve", "--batch", str(batch))
        assert code == 0
        echoed = [json.loads(line)["input"] for line in out.strip().splitlines()]
        assert echoed == exprs

    def test_batch_survives_cancelling_discriminant(self, capsys, tmp_path):
        # B^2 ~ 4|C| in the (r, s) quadratic of the first line.
        batch = tmp_path / "cubics.txt"
        batch.write_text("x^3-719919180x^2-205527342x+966976506\nx^3-12x+16\n")
        code, out, _ = run(capsys, "solve", "--batch", str(batch))
        assert code == 0
        first, second = (json.loads(line) for line in out.strip().splitlines())
        assert first["case"] == "conjugate_pair"
        assert second["case"] == "equal"

    def test_missing_batch_file_is_2(self, capsys):
        code, _, err = run(capsys, "solve", "--batch", "/nonexistent/file.txt")
        assert code == 2

    def test_undecodable_batch_file_is_2(self, capsys, tmp_path):
        batch = tmp_path / "cubics.txt"
        batch.write_bytes(b"x^3-12x+16\n\xff\n")
        code, out, err = run(capsys, "solve", "--batch", str(batch))
        assert code == 2 and out == ""
        assert err.startswith("error: cannot read batch file:") and "0xff" in err


@pytest.mark.parametrize(
    "flags, golden",
    [([], "golden_batch.jsonl"), (["--method", "both", "--verify"], "golden_batch_both_verify.jsonl")],
    ids=["chen", "both verify"],
)
def test_batch_output_is_golden(capfdbinary, flags, golden):
    """The batch JSON of 100 committed lines, byte for byte.

    tests/data/golden_batch.txt holds 58 random cubics and 7 of each planted
    kind (three rational roots, a rational root times an irreducible quadratic,
    a double root, p = 0, q = 0 and a sqrt literal), drawn with
    perfbench/corpus.py's batch_plain generator (_batch_item, rng
    "golden-batch:3"). The .jsonl files are the output of the solver before
    the exact path moved to integer numerators and denominators, which must
    not change a byte, projected onto the record's fields: each line was
    json.loads'ed, stripped of cubic, shift, s, residuals, cardano_residuals
    and trig, which the record no longer holds, and json.dumps'ed. The
    --verify file was projected once more the same way when the verification
    object dropped tol (always 1e-10) and scale (max(1, |p|, |q|)^1.5, which
    follows from p and q): each line json.loads'ed, those two keys deleted,
    and json.dumps'ed; no other byte changed.
    """
    data = Path(__file__).parent / "data"
    code = main(["solve", "--batch", str(data / "golden_batch.txt"), *flags, "--format", "json"])
    assert code == 0
    assert capfdbinary.readouterr().out == (data / golden).read_bytes()


def test_text_output_is_golden(capsys):
    """solve --expr's text for each line of golden_batch.txt, with the default flags
    and then with --method both --verify, byte for byte.

    tests/data/golden_text.txt is the output of the solver whose JSON record
    still held the shift, s, the residuals and the cosine form; the text prints
    them from the solve result and the cubic, and must not change a byte. It
    was projected once when the verification report dropped its tolerance:
    ", tol 1e-10" was deleted from each verification: line, and nothing else.
    """
    data = Path(__file__).parent / "data"
    out = []
    for flags in ([], ["--method", "both", "--verify"]):
        for line in (data / "golden_batch.txt").read_text().splitlines():
            assert main(["solve", "--expr", line, *flags]) == 0
            out.append(capsys.readouterr().out)
    assert "".join(out).encode() == (data / "golden_text.txt").read_bytes()


@pytest.mark.parametrize(
    "argv, keys",
    [
        (["solve", "--p=-6", "--q=-9"], SOLVE_KEYS + ["multiplicity", "exact"]),
        (["solve", "--p=-6", "--q=-9", "--verify"], SOLVE_KEYS + ["multiplicity", "exact", "verification"]),
        (["solve", "--p=-6", "--q=-9", "--method", "both"], SOLVE_KEYS + ["cardano_roots", "max_matched_distance"]),
        (
            ["solve", "--p=-6", "--q=-9", "--method", "both", "--verify"],
            SOLVE_KEYS + ["cardano_roots", "max_matched_distance", "verification"],
        ),
        (["denest", "--a", "2", "--b", "5"], ["value", "exact"]),
    ],
    ids=["chen", "chen verify", "both", "both verify", "denest"],
)
def test_json_record_keys(capsys, argv, keys):
    # A record holds only what cannot be derived from its other fields (README, "JSON record").
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert list(json.loads(out)) == keys


class TestDenestCommand:
    def test_exact_output(self, capsys):
        code, out, _ = run(capsys, "denest", "--a", "9/2", "--b", "49/4")
        assert code == 0
        assert "value = 3 (exact)" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "denest", "--a", "2", "--b", "5", "--format", "json")
        assert code == 0
        # a and b are the caller's, and p = -3 cbrt(a^2 - b) = 3, q = -2a = -4 follow from them.
        assert json.loads(out) == {"value": 1.0, "exact": "1"}

    def test_inexact_output(self, capsys):
        code, out, _ = run(capsys, "denest", "--a", "1", "--b", "2")
        assert code == 0
        assert "0.596071637983" in out

    def test_negative_b_is_2(self, capsys):
        code, _, err = run(capsys, "denest", "--a", "1", "--b=-2")
        assert code == 2
        assert "nonnegative" in err

    def test_tiny_a_with_b_zero(self, capsys):
        # 2 cbrt(10^-400): the value is a double although a is not.
        code, out, _ = run(capsys, "denest", "--a", f"1/{10**400}", "--b", "0")
        assert code == 0
        assert out.startswith("value = 9.28317766723e-134\n")

    @pytest.mark.parametrize(
        "c", [Fraction(1, 3**25), Fraction(1, 7**12), Fraction(-1, 3**25)], ids=["3^-25", "7^-12", "-3^-25"]
    )
    def test_tiny_cube_with_b_zero(self, capsys, c):
        # The value 2c is exact; the cubic's double root -c, as near in absolute terms, is not it.
        code, out, _ = run(capsys, "denest", f"--a={c**3}", "--b", "0")
        assert code == 0
        assert out.startswith(f"value = {2 * c} (exact)\n")
        code, out, _ = run(capsys, "denest", f"--a={c**3}", "--b", "0", "--format", "json")
        rec = json.loads(out)
        assert code == 0 and rec["exact"] == str(2 * c)
        assert rec["value"] == pytest.approx(float(2 * c), rel=1e-15)

    @pytest.mark.parametrize(
        "a, value",
        [(f"1/{10**200}*sqrt(2)", "4.83654235024e-67"), (f"{10**200}*sqrt(2)", "1.04200146192e+67")],
        ids=["a^2 underflows", "a^2 overflows"],
    )
    def test_float_a_whose_square_has_no_double(self, capsys, a, value):
        # Formed in doubles, a^2 - b gave half the value (2.41827117512e-67) or an infinite one (exit 3).
        code, out, _ = run(capsys, "denest", "--a", a, "--b", "0")
        assert code == 0
        assert out.startswith(f"value = {value}\n")


def test_cli_imports_no_private_library_name():
    # The CLI renders a library result: solve runs the pipeline, and the only private
    # names the CLI may import are Cardano on solve's case and the exact rounding.
    # Any other private step here (solve's own step) would be a second pipeline.
    tree = ast.parse(Path(rscubic.cli.__file__).read_text(encoding="utf-8"))
    private = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "rscubic")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert sorted(private) == [("cardano", "_cardano"), ("numerics", "_float_of")]


BATCH_FLAGS = [[], ["--method", "both", "--verify"]]


def _is_json_dumps(line: str) -> bool:
    return json.dumps(json.loads(line)) == line


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-(10**400), 10**400), min_size=3, max_size=3),
    st.floats(-1e150, 1e150),
    st.one_of(st.just(0.0), st.floats(-1e150, 1e150)),
)
@example([0, 2, 2**53 + 1], 0.0, 1.0)  # f(i) = 2^53 + 1 + i: |f| is just above a midpoint, so 2^53 + 2
def test_exact_residual_is_the_nearest_double(abc, re, im):
    got = rscubic.cli._exact_residual(GeneralCubic(*abc), complex(re, im))
    f_re, f_im, x, y = 1, 0, Fraction(re), Fraction(im)
    for coef in abc:
        f_re, f_im = f_re * x - f_im * y + coef, f_re * y + f_im * x
    square = f_re * f_re + f_im * f_im  # |f|^2, exactly
    # got is the nearest double to |f|: |f| lies between the midpoints to its neighbours.
    top = Fraction(2**1024 - 2**970)  # where rounding reaches inf
    if got == math.inf:
        assert square >= top * top
        return
    down, up = math.nextafter(got, 0.0), math.nextafter(got, math.inf)
    low, high = (Fraction(got) + Fraction(down)) / 2, top if up == math.inf else (Fraction(got) + Fraction(up)) / 2
    assert low * low <= square <= high * high


@pytest.mark.parametrize("x", [0.0, -0.0, 5e-324, 1e308, math.inf, -math.inf, math.nan])
def test_float_writer_spells_floats_as_json(x):
    assert rscubic.cli._jnum(x) == json.dumps(x)


@pytest.mark.parametrize(
    "errors",
    [tuple(math.inf if i == j else 1e-20 * j for j in range(6)) for i in range(6)] + [(0.0, 0.0, 0.0, math.nan, 2.5e-17, math.inf)],
)
def test_non_finite_verification_is_json_dumps(capsys, monkeypatch, errors):
    # A report's errors are not checked for finiteness: json spells the non-finite ones, wherever they are.
    residuals, vieta_errors = errors[:3], errors[3:]
    monkeypatch.setattr(rscubic.verify, "verify_roots", lambda d, t: VerificationReport(residuals, vieta_errors, False))
    code, out, _ = run(capsys, "solve", "--p=-6", "--q=-9", "--method", "both", "--verify", "--format", "json")
    assert code == 3 and _is_json_dumps(out[:-1])
    verification = out[out.index('"verification"'):]
    assert "Infinity" in verification
    assert ("NaN" in verification) == any(v != v for v in errors)
    rec = json.loads(out)["verification"]
    assert [repr(v) for v in rec["residuals"] + rec["vieta_errors"]] == [repr(v) for v in residuals + vieta_errors]


@pytest.mark.parametrize(
    "roots",
    [
        (1.0, complex(-2.5, -0.0), complex(-2.5, 0.0)),  # a pair whose im is 0.0
        (1.0, complex(-2.5, 0.0), complex(-2.5, -0.0)),  # and -0.0
        (complex(-0.0, -0.0), complex(-0.0, -1.5), complex(-0.0, 1.5)),  # -0.0 parts
        (complex(3.0, 0.0), complex(0.0, -1.5), complex(-0.0, 1.5)),  # re 0.0 beside -0.0
        (complex(3.0, 0.0), complex(-1.25, -1e-300), complex(-1.25, 1e-300)),  # a conjugate pair
    ],
)
def test_root_array_is_json_dumps(roots):
    expected = json.dumps([{"re": complex(z).real, "im": complex(z).imag} for z in roots])
    assert rscubic.cli._jroots(roots) == expected


_FINITE = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -1e308]), st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None)
@given(_FINITE, _FINITE, _FINITE)
def test_conjugate_pair_array_is_json_dumps(x0, re, im):
    # The roots as the solvers write a pair, (re, -im) then (re, im), for any sign of either part.
    test_root_array_is_json_dumps((complex(x0, 0.0), complex(re, -im), complex(re, im)))


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--p=-6", "--q=-9", "--format", "json"],
        ["solve", "--p=-48", "--q=-64*sqrt(2)", "--method", "both", "--verify", "--format", "json"],
        ["denest", "--a", "2", "--b", "5", "--format", "json"],
        ["denest", "--a", "1", "--b", "2", "--format", "json"],
    ],
    ids=["p q", "p q both verify", "denest exact", "denest inexact"],
)
def test_json_line_is_json_dumps(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.endswith("\n") and out.count("\n") == 1
    assert _is_json_dumps(out[:-1])


@pytest.mark.parametrize("golden", ["golden_batch.jsonl", "golden_batch_both_verify.jsonl"])
def test_golden_lines_are_json_dumps(golden):
    lines = (Path(__file__).parent / "data" / golden).read_text().splitlines()
    assert lines and all(_is_json_dumps(line) for line in lines)


@pytest.mark.parametrize("flags, golden", zip(BATCH_FLAGS, ["golden_batch.jsonl", "golden_batch_both_verify.jsonl"]))
def test_single_run_prints_the_batch_line(capsys, flags, golden):
    # One writer serves both: solve --expr L --format json prints L's batch line.
    data = Path(__file__).parent / "data"
    expected = (data / golden).read_text().splitlines(keepends=True)
    lines = (data / "golden_batch.txt").read_text().splitlines()
    assert len(lines) == len(expected)
    for line, want in zip(lines, expected):
        code, out, _ = run(capsys, "solve", "--expr", line, *flags, "--format", "json")
        assert code == 0 and out == want


_SIGN = st.sampled_from(["+", "-"])
# Positive literals of each kind: integer, decimal, rational, a sqrt product (a float cubic).
_POSITIVE = st.one_of(
    st.integers(1, 10**6).map(str),
    st.tuples(st.integers(1, 999), st.integers(0, 999)).map(lambda t: f"{t[0]}.{t[1]:03d}"),
    st.tuples(st.integers(1, 999), st.integers(1, 999)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.tuples(st.integers(1, 99), st.integers(2, 99)).map(lambda t: f"{t[0]}*sqrt({t[1]})"),
)
_LITERAL = st.one_of(st.just("0"), _POSITIVE)
_SMALL = st.integers(-999, 999)


def _from_roots(r0: int, r1: int, r2: int) -> str:
    a, b, c = -(r0 + r1 + r2), r0 * r1 + r0 * r2 + r1 * r2, -r0 * r1 * r2
    return f"x^3{a:+d}x^2{b:+d}x{c:+d}"


@st.composite
def _batches(draw):
    """One line of each case tag, and one of random literals."""
    r = draw(_SMALL)
    s = draw(_SMALL.filter(lambda v: v != r))
    # No root may be the mean of the three: a progression such as -1, 0, 1 has q = 0, degenerate_q0.
    roots = draw(st.lists(_SMALL, min_size=3, max_size=3, unique=True).filter(lambda t: all(3 * v != sum(t) for v in t)))
    signs = [draw(_SIGN) for _ in range(4)]
    return [
        _from_roots(r, r, s),  # equal
        _from_roots(*roots),  # three real roots: conjugate_pair
        f"x^3 + {draw(_POSITIVE)}x {signs[0]} {draw(_POSITIVE)}",  # p > 0, q != 0: real_distinct
        f"x^3 {signs[1]} {draw(_POSITIVE)}",  # degenerate_p0
        f"x^3 {signs[2]} {draw(_POSITIVE)}x",  # degenerate_q0
        f"x^3 {signs[3]} {draw(_LITERAL)}x^2 {draw(_SIGN)} {draw(_LITERAL)}x {draw(_SIGN)} {draw(_LITERAL)}",
    ]


@settings(max_examples=60, deadline=None)
@given(_batches())
def test_batch_lines_are_json_dumps(batch):
    # Every batch line is byte for byte json.dumps of its record, under both flag sets.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cubics.txt"
        path.write_text("\n".join(batch) + "\n")
        for flags in BATCH_FLAGS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                main(["solve", "--batch", str(path), *flags, "--format", "json"])
            lines = out.getvalue().splitlines()
            assert len(lines) == len(batch)
            assert all(_is_json_dumps(line) for line in lines)
            assert {"equal", "conjugate_pair", "real_distinct", "degenerate_p0", "degenerate_q0"} <= {
                json.loads(line)["case"] for line in lines
            }
