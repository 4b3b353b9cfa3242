"""Real-coefficient cubic solver built on the factorization
x^3 - 3rsx + rs(r+s) = s/(s-r)(x-r)^3 + r/(r-s)(x-s)^3.

Typical use:

    >>> from rscubic import GeneralCubic, solve
    >>> solve(GeneralCubic(0, -12, 16)).roots
    ((-4+0j), (2+0j), (2+0j))
"""

from .cardano import cardano_solve, match_root_sets, solve_moebius
from .chen import ExactValue, RootTriple, solve, solve_depressed
from .decompose import CaseTag, RsPair, compute_rs
from .denest import DenestResult, NestedRadical, denest
from .parsing import ParseError, parse_coefficient, parse_cubic
from .reduction import DepressedCubic, GeneralCubic, InvalidInputError, depress
from .verify import VerificationReport, brute_force_roots, verify_roots

__version__ = "0.1.0"

__all__ = [
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
]
