import rscubic

PUBLIC = {
    "OMEGA",
    "OMEGA2",
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
    "classify",
    "compute_rs",
    "cube_roots_all",
    "denest",
    "depress",
    "discriminant",
    "lift_roots",
    "match_root_sets",
    "newton_polish",
    "parse_coefficient",
    "parse_cubic",
    "principal_arg",
    "principal_cube_root",
    "radical_to_cubic",
    "real_cube_root",
    "rs_quadratic",
    "solve",
    "solve_depressed",
    "solve_moebius",
    "unified_roots",
    "verify_roots",
}


def test_all_is_the_pinned_surface():
    assert len(rscubic.__all__) == len(set(rscubic.__all__)) == 39
    assert set(rscubic.__all__) == PUBLIC


def test_every_name_resolves():
    missing = [name for name in rscubic.__all__ if not hasattr(rscubic, name)]
    assert missing == []


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from rscubic import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == PUBLIC
