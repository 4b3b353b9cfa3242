import ast
import json
import math
import sys
from pathlib import Path

import pytest

import rscubic.cli
from rscubic import GeneralCubic, solve
from rscubic.cli import main

SQRT3 = math.sqrt(3.0)
OVERFLOWING = "x^3+1" + "0" * 400 + "x+1"
# Roots +-sqrt(N/D) whose exact string holds the radicand N*D, about 6000 digits:
# more than int-to-str converts (4300 by default).
TOO_LONG_TO_PRINT = f"{10**2999 + 3}x^3-{10**2999 + 7}x"


@pytest.fixture
def failing_verify(monkeypatch):
    """verify_roots as the CLI calls it, with every report failed."""
    verify_roots = rscubic.cli.verify_roots
    monkeypatch.setattr(rscubic.cli, "verify_roots", lambda d, t: verify_roots(d, t)._replace(passed=False))


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
        assert rec["s"]["re"] == pytest.approx(-4.0)

    def test_space_separated_negative_values(self, capsys):
        code, out, _ = run(capsys, "solve", "--p", "-6", "--q", "-9", "--format", "json")
        assert code == 0
        assert json.loads(out)["case"] == "real_distinct"

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
        _, out4, _ = run(capsys, "solve", "--p=-48", "--q=1", "--precision", "4")
        _, out15, _ = run(capsys, "solve", "--p=-48", "--q=1", "--precision", "15")
        assert len(out15) > len(out4)
        # The largest precision a format spec takes (formatting it reserves about 2 GB of address space).
        args = rscubic.cli.build_parser().parse_args(["solve", "--p=1", "--q=1", "--precision", "2147483647"])
        assert args.precision == 2**31 - 1

    def test_negligible_p_case_matches_library(self, capsys):
        # p is below double resolution next to q, so the solve runs on x^3 + q.
        q = 10**40
        code, out, _ = run(capsys, "solve", "--p", "1", "--q", str(q), "--format", "json")
        assert code == 0
        rec = json.loads(out)
        assert rec["case"] == solve(GeneralCubic(0, 1, q)).case.value == "degenerate_p0"
        assert rec["r"] is None and rec["s"] is None

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
    import rscubic.decompose

    calls, compute_rs = [], rscubic.decompose.compute_rs

    def counted(d):
        calls.append(d)
        return compute_rs(d)

    for module in [m for name, m in sys.modules.items() if name.startswith("rscubic")]:
        if getattr(module, "compute_rs", None) is compute_rs:
            monkeypatch.setattr(module, "compute_rs", counted)
    lines = ["x^3-12x+16", "x^3-6x-9", "x^3-3x+1", "x^3+8", "x^3-4x", "x^3-6x^2+11x-6"]
    batch = tmp_path / "cubics.txt"
    batch.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "solve", "--batch", str(batch), "--method", "both", "--verify", "--format", "json")
    assert code == 0 and len(out.strip().splitlines()) == len(lines)
    assert len(calls) == len(lines)


def test_each_stage_runs_once_per_line(capsys, tmp_path, monkeypatch):
    # solve looks its stages up in rscubic.chen; the CLI adds only Cardano and the verify report.
    import rscubic.chen

    calls = {}

    def count(module, name):
        stage = getattr(module, name)

        def counted(*args):
            calls[name] = calls.get(name, 0) + 1
            return stage(*args)

        monkeypatch.setattr(module, name, counted)

    for name in ("depress", "compute_rs", "_solve_cubic"):
        assert not hasattr(rscubic.cli, name)  # only solve runs the stages
        count(rscubic.chen, name)
    for name in ("_cardano", "verify_roots"):
        count(rscubic.cli, name)
    lines = ["x^3-6x^2+11x-6", "x^3+3x^2-1", "2x^3+x+5"]
    batch = tmp_path / "cubics.txt"
    batch.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "solve", "--batch", str(batch), "--method", "both", "--verify", "--format", "json")
    assert code == 0 and len(out.strip().splitlines()) == len(lines)
    assert calls == dict.fromkeys(["depress", "compute_rs", "_solve_cubic", "_cardano", "verify_roots"], len(lines))


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

    def test_overflowing_input_is_3(self, capsys):
        code, _, err = run(capsys, "solve", "--p=" + "9" * 320, "--q=1")
        assert code == 3

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

    @pytest.mark.parametrize("value", ["-1", "abc", "2147483648", "9" * 20, pytest.param("9" * 5000, id="5000 digits")])
    @pytest.mark.parametrize("argv", [["solve", "--p=-6", "--q=-9"], ["denest", "--a", "2", "--b", "3"]])
    def test_bad_precision_is_2(self, capsys, argv, value):
        with pytest.raises(SystemExit) as info:
            main(argv + ["--precision", value])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "--precision: must be a nonnegative integer" in err and "_precision" not in err

    @pytest.mark.parametrize("flags", [["--format", "text"], ["--precision", "4"]], ids=["format text", "precision"])
    def test_batch_refuses_text_flags_is_2(self, capsys, tmp_path, flags):
        # Batch output is JSON lines: a text-only flag given with --batch is an error, not dropped.
        batch = tmp_path / "cubics.txt"
        batch.write_text("x^3-12x+16\n")
        code, out, err = run(capsys, "solve", "--batch", str(batch), *flags)
        assert code == 2 and out == ""
        assert err == "error: --batch writes JSON lines; --format text and --precision do not apply\n"

    def test_denest_a_beyond_double_range_is_0(self, capsys):
        code, out, _ = run(capsys, "denest", "--a", str(10**400), "--b", "2")
        assert code == 0
        assert out.startswith("value = 4.30886938006e+133")


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
    not change a byte.
    """
    data = Path(__file__).parent / "data"
    code = main(["solve", "--batch", str(data / "golden_batch.txt"), *flags, "--format", "json"])
    assert code == 0
    assert capfdbinary.readouterr().out == (data / golden).read_bytes()


class TestDenestCommand:
    def test_exact_output(self, capsys):
        code, out, _ = run(capsys, "denest", "--a", "9/2", "--b", "49/4")
        assert code == 0
        assert "value = 3 (exact)" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "denest", "--a", "2", "--b", "5", "--format", "json")
        assert code == 0
        rec = json.loads(out)
        assert rec["exact"] == "1"
        assert rec["value"] == pytest.approx(1.0)
        assert (rec["p"], rec["q"]) == (3.0, -4.0)

    def test_inexact_output(self, capsys):
        code, out, _ = run(capsys, "denest", "--a", "1", "--b", "2")
        assert code == 0
        assert "0.596071637983" in out

    def test_negative_b_is_2(self, capsys):
        code, _, err = run(capsys, "denest", "--a", "1", "--b=-2")
        assert code == 2
        assert "nonnegative" in err


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
