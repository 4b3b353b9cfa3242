import ast
import sys
from pathlib import Path

import rscubic

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = {
    "CardanoIntermediates",
    "CaseTag",
    "DenestResult",
    "DepressedCubic",
    "ExactValue",
    "GeneralCubic",
    "InvalidCaseError",
    "InvalidInputError",
    "NestedRadical",
    "ParseError",
    "RootTriple",
    "RsPair",
    "TrigForm",
    "VerificationReport",
    "brute_force_roots",
    "cardano_solve",
    "compute_rs",
    "denest",
    "depress",
    "lift_roots",
    "match_root_sets",
    "newton_polish",
    "parse_coefficient",
    "parse_cubic",
    "solve",
    "solve_depressed",
    "solve_moebius",
    "unified_roots",
    "verify_roots",
}


def test_all_is_the_pinned_surface():
    assert len(rscubic.__all__) == len(set(rscubic.__all__)) == 29
    assert set(rscubic.__all__) == PUBLIC


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
