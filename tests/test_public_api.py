import ast
import doctest
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import rscubic
from rscubic import CaseTag, GeneralCubic, NestedRadical, denest, solve
from rscubic.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

PUBLIC = {
    "CaseTag",
    "DenestResult",
    "DepressedCubic",
    "ExactValue",
    "GeneralCubic",
    "InvalidInputError",
    "NestedRadical",
    "ParseError",
    "RootTriple",
    "RsPair",
    "VerificationReport",
    "brute_force_roots",
    "cardano_solve",
    "compute_rs",
    "denest",
    "depress",
    "match_root_sets",
    "parse_coefficient",
    "parse_cubic",
    "solve",
    "solve_depressed",
    "solve_moebius",
    "verify_roots",
}


def test_all_is_the_pinned_surface():
    assert len(rscubic.__all__) == len(set(rscubic.__all__)) == 23
    assert set(rscubic.__all__) == PUBLIC


def test_result_records_hold_only_what_they_cannot_derive():
    # The cosine form is read off pair.r, and the exact s off exact_r: neither is a field.
    assert rscubic.RootTriple._fields == ("roots", "case", "multiplicity", "exact", "pair", "depressed", "shift")
    assert rscubic.RsPair._fields == ("r", "s", "case", "exact_r")


def test_every_name_resolves():
    missing = [name for name in rscubic.__all__ if not hasattr(rscubic, name)]
    assert missing == []


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from rscubic import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == PUBLIC


def test_readme_documents_every_export():
    text = README.read_text(encoding="utf-8")
    undocumented = [name for name in rscubic.__all__ if f"`{name}`" not in text]
    assert undocumented == []


def test_readme_public_api_list_is_all():
    # The section's opening sentence gives the count, and its bullets name exactly __all__.
    section = README.read_text(encoding="utf-8").split("\n### Public API\n", 1)[1].lstrip("\n")
    opening, bullets = section.split("\n\n", 2)[:2]
    (count,) = re.findall(r"exactly these (\d+) names", opening)
    listed = re.findall(r"`(\w+)`", bullets)
    assert len(listed) == len(set(listed)) == int(count) == len(rscubic.__all__)
    assert set(listed) == set(rscubic.__all__)


def test_package_docstring_example_passes():
    (test,) = doctest.DocTestFinder(recurse=False).find(rscubic)
    assert test.examples and doctest.DocTestRunner().run(test).failed == 0


def test_readme_library_block_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    namespace = {}
    exec(block, namespace)
    # An expression line's comment is its repr, unless the comment elides part of it.
    for line in block.splitlines():
        code, _, shown = line.partition("  #")
        if shown and "..." not in shown and isinstance(ast.parse(code.strip()).body[0], ast.Expr):
            assert repr(eval(code, namespace)) == shown.strip(), line


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    # Each line of the ## CLI block exits 0; a double-quoted string in its comment is in its output.
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```sh\n(.*?)```", section, re.DOTALL)
    (tmp_path / "cubics.txt").write_text("x^3-12x+16\nx^3-6x-9\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        program, *argv = shlex.split(command)
        assert program == "rscubic" and main(argv) == 0, line
        out = capsys.readouterr().out
        for shown in re.findall(r'"([^"]*)"', comment):
            assert shown in out, line


def _readme_flags(command):
    """The bullet list after "Flags of `command`:" in README, and the command's parser."""
    text = README.read_text(encoding="utf-8").split(f"Flags of `{command}`:", 1)[1].lstrip("\n")
    return text.split("\n\n", 1)[0], build_parser()._subparsers._group_actions[0].choices[command]


def _assert_readme_lists_every_flag(command):
    # Each bullet opens with the flags it describes.
    text, parser = _readme_flags(command)
    listed = {flag for bullet in text.split("\n* ") for flag in re.findall(r"--[a-z]+", bullet.split(" — ", 1)[0])}
    flags = {s for action in parser._actions for s in action.option_strings if s.startswith("--")} - {"--help"}
    assert listed == flags


def _assert_readme_lists_every_choice(command, flags):
    # The `--flag {...}` bullets name exactly the parser's choices.
    text, parser = _readme_flags(command)
    choices = {action.option_strings[0]: action.choices for action in parser._actions if action.choices}
    assert set(choices) == flags
    for flag, values in choices.items():
        (listed,) = re.findall(rf"^\* `{flag} \{{([a-z,]+)\}}`", text, re.MULTILINE)
        assert listed.split(",") == values


def test_readme_lists_every_solve_flag():
    _assert_readme_lists_every_flag("solve")


def test_readme_lists_every_solve_choice():
    _assert_readme_lists_every_choice("solve", {"--method", "--format"})


def test_readme_lists_every_denest_flag():
    _assert_readme_lists_every_flag("denest")
    _assert_readme_lists_every_choice("denest", {"--format"})


def test_runtime_imports_only_the_standard_library():
    outside = []
    for path in sorted(Path(rscubic.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_no_module_imports_a_private_name_from_chen():
    # chen is the r,s solve step alone: what another module needs of it is public.
    private = []
    for path in sorted(Path(rscubic.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module in ("chen", "rscubic.chen"):
                private += [f"{path.name}: {alias.name}" for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_only_decompose_names_the_exact_rs_entry():
    # compute_rs is the one entry to the r,s stage: every other module hands it a DepressedCubic.
    names = []
    for path in sorted(Path(rscubic.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            # a Name's id, an Attribute's attr, an import alias's or a def's name
            if "_compute_rs_exact" in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)):
                names.append(path.name)
    assert names and set(names) == {"decompose.py"}


def test_only_numerics_scales_back_by_2_to_the_k():
    # A value solved on the scale 2^-k can overflow on its way back, so only numerics multiplies
    # by 2^k (_scaled refuses one with no double by name); elsewhere math.ldexp goes onto the
    # scale, by a negated exponent such as -k or -2 * k.
    def negated(node):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            node = node.left
        return isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)

    upward = []
    for path in sorted(Path(rscubic.__file__).resolve().parent.glob("*.py")):
        if path.name == "numerics.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "math.ldexp" and not negated(node.args[1]):
                upward.append(f"{path.name}:{node.lineno}")
    assert upward == []


def test_solve_stages_read_no_case_tag_off_its_class():
    # Reading an Enum member off its class costs about 40 ns, a module global about 6: decompose binds
    # the tags once, and no function body of the r,s stage, the solvers or verify reads CaseTag.X. The
    # CLI's text renderer, outside these modules, reads one tag a cubic.
    reads = []
    for module in (rscubic.decompose, rscubic.chen, rscubic.cardano, rscubic.verify):
        for node in ast.walk(ast.parse(Path(module.__file__).read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for read in (sub for statement in node.body for sub in ast.walk(statement)):
                    if isinstance(read, ast.Attribute) and isinstance(read.value, ast.Name) and read.value.id == "CaseTag":
                        reads.append(f"{module.__name__}.{node.name}:{read.lineno}")
    assert reads == []


def test_decompose_and_chen_leave_overflow_to_numerics():
    # The r,s stage and the solve step hold no range refusal of their own: no handler names OverflowError.
    for module in (rscubic.chen, rscubic.decompose):
        handlers = [
            node.lineno
            for node in ast.walk(ast.parse(Path(module.__file__).read_text(encoding="utf-8")))
            if isinstance(node, ast.ExceptHandler) and node.type is not None and "OverflowError" in ast.unparse(node.type)
        ]
        assert handlers == [], module.__name__


def test_only_denest_calls_the_rational_root_search():
    # _rational_root_near searches the radical's cubic alone (one simple real root, of a's
    # sign): besides its def, the package names it once, in denest.denest.
    found = []
    for path in sorted(Path(rscubic.__file__).resolve().parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if "_rational_root_near" in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)):
                    found.append((path.stem, getattr(top, "name", None), type(node).__name__))
    assert sorted(found) == [("denest", "_rational_root_near", "FunctionDef"), ("denest", "denest", "Name")]


FRACTION_OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
    "__neg__", "__abs__", "__lt__", "__le__", "__gt__", "__ge__",
)


def test_exact_solve_and_denest_run_no_fraction_operator(monkeypatch):
    # Exact values are built from integers, one gcd each (reduction._fraction): no Fraction
    # operator, each a dispatch through Fraction.__new__, runs on any exit of the solve step
    # or in denest. Each input is built before the operators are counted.
    cubics = {
        "equal": GeneralCubic(-5, 7, -3),  # (x - 1)^2 (x - 3)
        "equal, r < 0": GeneralCubic(1, Fraction(-8, 3), Fraction(-80, 27)),  # (x + 4/3)^2 (x - 5/3)
        "real_distinct": GeneralCubic(1, 1, 1),
        "real_distinct, rational pair": GeneralCubic(0, -6, -9),  # (r, s) = (-1/2, -4)
        "conjugate_pair": GeneralCubic(-7, 14, -8),  # (x - 1)(x - 2)(x - 4)
        "out of band": GeneralCubic(0, -7 * 10**300, 6 * 10**450),  # roots 10^150, 2 10^150, -3 10^150
        "p = 0, rational cube root": GeneralCubic(3, 3, -7),  # (x + 1)^3 - 8
        "p = 0, no rational cube root": GeneralCubic(0, 0, Fraction(-2, 5)),
        "negligible p": GeneralCubic(0, 1, 10**200),
        "q = 0, p > 0": GeneralCubic(1, Fraction(4, 3), Fraction(10, 27)),  # (x + 1/3)^3 + (x + 1/3)
        "q = 0, square -p": GeneralCubic(3, -1, -3),  # (x + 1)^3 - 4(x + 1)
        "q = 0, surd -p": GeneralCubic(0, Fraction(-2, 9), 0),
        "triple": GeneralCubic(-6, 12, -8),  # (x - 2)^3
    }
    radicals = [NestedRadical(2, 5), NestedRadical(Fraction(9, 2), Fraction(49, 4)), NestedRadical(1, 3), NestedRadical(0, 4)]
    calls = []
    for name in FRACTION_OPERATORS:
        def counted(*args, _name=name, _operator=getattr(Fraction, name)):
            calls.append(_name)
            return _operator(*args)

        monkeypatch.setattr(Fraction, name, counted)
    triples = {label: solve(cubic) for label, cubic in cubics.items()}
    results = [denest(radical) for radical in radicals]
    monkeypatch.undo()
    assert calls == []
    # Every exit was reached: each exact channel the step reports, and denest's three kinds.
    exact = {label: [None if e is None else str(e) for e in t.exact] if t.exact else None for label, t in triples.items()}
    assert exact["equal"] == ["1", "1", "3"] and exact["equal, r < 0"] == ["-4/3", "-4/3", "5/3"]
    assert exact["p = 0, rational cube root"] == ["1", None, None] and exact["p = 0, no rational cube root"] is None
    assert exact["q = 0, p > 0"] == ["-1/3", None, None] and exact["q = 0, square -p"] == ["-3", "-1", "1"]
    assert exact["q = 0, surd -p"] == ["-1/3*sqrt(2)", "0", "1/3*sqrt(2)"] and exact["triple"] == ["2", "2", "2"]
    cases = {label: t.case for label, t in triples.items()}
    assert cases["real_distinct"] is cases["real_distinct, rational pair"] is CaseTag.REAL_DISTINCT
    assert cases["conjugate_pair"] is cases["out of band"] is CaseTag.CONJUGATE_PAIR
    assert cases["negligible p"] is CaseTag.DEGENERATE_P0
    assert [r.exact for r in results] == [Fraction(1), Fraction(3), None, Fraction(0)]


def _fresh(code: str) -> list[str]:
    """The lines code prints in a fresh interpreter. -S: no site-packages .pth file can
    import a module first and mask what the code finds loaded."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_cold_start_skips_dataclasses_and_inspect():
    assert _fresh("import sys, rscubic.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))") == ["[]"]


def test_import_loads_only_what_solve_runs():
    # cardano, parsing and verify load on the first read of one of their names.
    code = "import sys, rscubic; print(*sorted(m for m in sys.modules if m.startswith('rscubic.')))"
    assert _fresh(code) == ["rscubic.chen rscubic.decompose rscubic.denest rscubic.numerics rscubic.reduction"]


def test_every_public_name_is_listed_and_resolves_in_a_fresh_interpreter():
    code = "import rscubic; print(set(rscubic.__all__) <= set(dir(rscubic)), all(hasattr(rscubic, n) for n in rscubic.__all__))"
    assert _fresh(code) == ["True True"]


@pytest.mark.parametrize(
    "flags, loaded",
    [([], ""), (["--format", "json"], "json"), (["--method", "both", "--verify", "--format", "json"], "rscubic.cardano rscubic.verify json")],
    ids=["text", "json", "both, verify, json"],
)
def test_cli_run_loads_only_what_its_options_use(flags, loaded):
    argv = ["solve", "--p", "-12", "--q", "16", *flags]
    code = (
        f"import sys; from rscubic.cli import main; code = main({argv!r}); "
        "print(code, *[m for m in ('rscubic.cardano', 'rscubic.verify', 'json') if m in sys.modules])"
    )
    *output, last = _fresh(code)
    assert last == f"0 {loaded}".strip()
    assert ("  x[0] = -4   (exact: -4)" in output) == (not flags)


def test_denest_stays_the_function():
    # The package imports denest eagerly: a submodule loaded after it would rebind rscubic.denest.
    code = (
        "import rscubic, rscubic.cli; rscubic.cli.main(['denest', '--a', '2', '--b', '5', '--format', 'json']); "
        "import rscubic.denest; print(rscubic.denest(rscubic.NestedRadical(2, 5)).exact)"
    )
    assert _fresh(code) == ['{"value": 1.0, "exact": "1"}', "1"]


def test_every_module_parses_as_python_3_10():
    # pyproject's requires-python = ">=3.10": no 3.11 syntax (except*, and the like) in the package.
    for path in sorted(Path(rscubic.__file__).resolve().parent.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_parser_imports_no_regex():
    # The batch path reads each term with a scanner of str methods: no regex module, so no
    # pattern (nor its Python-version-dependent syntax) can come back to it.
    tree = ast.parse(Path(rscubic.__file__).resolve().parent.joinpath("parsing.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 0}
    assert not imported & {"re", "regex"}, imported
