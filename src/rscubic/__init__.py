"""Real-coefficient cubic solver built on the factorization
x^3 - 3rsx + rs(r+s) = s/(s-r)(x-r)^3 + r/(r-s)(x-s)^3.

Typical use:

    >>> from rscubic import GeneralCubic, solve
    >>> solve(GeneralCubic(0, -12, 16)).roots
    ((-4+0j), (2+0j), (2+0j))
"""

from .cardano import CardanoIntermediates, cardano_solve, match_root_sets
from .chen import (
    ExactValue,
    InvalidCaseError,
    RootTriple,
    TrigForm,
    newton_polish,
    solve,
    solve_depressed,
    solve_moebius,
    unified_roots,
)
from .decompose import CaseTag, RsPair, classify, compute_rs, discriminant, rs_quadratic
from .denest import DenestResult, NestedRadical, denest, radical_to_cubic
from .numerics import (
    OMEGA,
    OMEGA2,
    cube_roots_all,
    principal_arg,
    principal_cube_root,
    real_cube_root,
)
from .parsing import ParseError, parse_coefficient, parse_cubic
from .reduction import (
    DepressedCubic,
    GeneralCubic,
    InvalidInputError,
    depress,
    lift_roots,
)
from .verify import VerificationReport, brute_force_roots, verify_roots

__version__ = "0.1.0"

__all__ = [
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
]
