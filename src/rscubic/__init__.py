"""Real-coefficient cubic solver built on the factorization
x^3 - 3rsx + rs(r+s) = s/(s-r)(x-r)^3 + r/(r-s)(x-s)^3.

Typical use:

    >>> from rscubic import GeneralCubic, solve
    >>> solve(GeneralCubic(0, -12, 16)).roots
    ((-4+0j), (2+0j), (2+0j))
"""

from .chen import ExactValue, RootTriple, solve, solve_depressed
from .decompose import CaseTag, RsPair, compute_rs

# denest stays eager: it names both a function and a submodule, and the import system binds
# a submodule loaded after the package to the package attribute of its name.
from .denest import DenestResult, NestedRadical, denest
from .reduction import DepressedCubic, GeneralCubic, InvalidInputError, depress

__version__ = "0.1.0"

# The names of the submodules solve does not run load them on first use (PEP 562), so that
# a cold start compiles only what its call needs; each name is then cached as a global. The
# submodules' own names resolve too, so that rscubic.verify needs no import of its own.
_LAZY = {
    "cardano": "cardano",
    "parsing": "parsing",
    "verify": "verify",
    "cardano_solve": "cardano",
    "match_root_sets": "cardano",
    "solve_moebius": "cardano",
    "ParseError": "parsing",
    "parse_coefficient": "parsing",
    "parse_cubic": "parsing",
    "VerificationReport": "verify",
    "brute_force_roots": "verify",
    "verify_roots": "verify",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f"{__name__}.{_LAZY[name]}")
    value = globals()[name] = module if name == _LAZY[name] else getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


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
