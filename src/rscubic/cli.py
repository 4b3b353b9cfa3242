"""Command-line front end.

Two subcommands:

* ``solve``  -- solve one cubic (``--expr`` or ``--p/--q``) or a batch file
  of expressions, with ``--method {chen,both}`` (``both`` adds Cardano's
  roots beside the r,s roots) and ``--format {text,json}``;
* ``denest`` -- evaluate and denest cbrt(a+sqrt(b)) + cbrt(a-sqrt(b)).

Exit codes: 0 success, 2 parse/usage error, 3 numeric failure (non-finite
result or a failed ``--verify``). A batch run skips a failing line and
exits with the lowest nonzero code it met.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

from .cardano import _cardano, match_root_sets
from .chen import RootTriple, solve
from .denest import NestedRadical, denest
from .numerics import _float_of
from .parsing import ParseError, parse_coefficient, parse_cubic
from .reduction import GeneralCubic, InvalidInputError
from .verify import verify_roots


class NumericFailure(RuntimeError):
    """A non-finite value escaped the computation."""


_encode = json.JSONEncoder(check_circular=False).encode  # json.dumps's bytes, less its set-up per call
# Exit code and message prefix of each failure, for single and batch runs alike.
_FAILURES = {
    ParseError: (2, ""),
    InvalidInputError: (2, ""),
    NumericFailure: (3, "numeric failure: "),
    OverflowError: (3, "numeric failure: "),
}


def _failure(exc: Exception) -> tuple[int, str]:
    return next(v for kind, v in _FAILURES.items() if isinstance(exc, kind))


def _precision(text: str) -> int:
    """A --precision value: 0 to 2**31 - 1, the most a format spec takes, else a usage error (exit 2)."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    # Ten significant digits at most, so int() never meets its 4300-digit limit.
    if len(text.lstrip("0")) > 10 or int(text) > 2**31 - 1:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer up to {2**31 - 1}")
    return int(text)


def _str(value) -> str:
    """str(value); an integer past int-to-str's digit limit (4300 by default) is a numeric failure."""
    try:
        return str(value)
    except ValueError:
        raise NumericFailure("an exact value has too many digits to print") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rscubic",
        description="Solve real cubic equations via the r,s decomposition "
        "x^3 - 3rsx + rs(r+s) = 0, with a Cardano baseline and exact output.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve a cubic equation")
    solve.add_argument("--expr", help='equation text, e.g. "x^3-12x+16=0"')
    # Coefficient flags are parsed by the command, so a ParseError keeps its text.
    solve.add_argument("--p", help="p of x^3+px+q (accepts 9/2, 1.5, 64*sqrt(2))")
    solve.add_argument("--q", help="q of x^3+px+q")
    solve.add_argument("--batch", metavar="FILE", help="file with one equation per line; emits JSON lines")
    solve.add_argument("--method", choices=["chen", "both"], default="chen")
    solve.add_argument("--format", choices=["text", "json"], help="output format (default text; --batch: json)")
    solve.add_argument("--precision", type=_precision, help="significant digits in text output (default 12)")
    solve.add_argument("--verify", action="store_true", help="append a verification report; exit 3 on failure")

    den = sub.add_parser("denest", help="denest cbrt(a+sqrt(b)) + cbrt(a-sqrt(b))")
    den.add_argument("--a", required=True)
    den.add_argument("--b", required=True)
    den.add_argument("--format", choices=["text", "json"], default="text")
    den.add_argument("--precision", type=_precision, default=12)
    return parser


def _cjson(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _check_finite(values) -> None:
    for z in values:
        z = complex(z)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise NumericFailure("non-finite intermediate or result")


def _solve_record(triple: RootTriple, echo: str, args) -> dict:
    """The JSON record of one solve result, holding only what cannot be derived
    from its fields: p, q, case, r and the roots; under chen the multiplicities
    and exact values; under both, Cardano's roots of the same depressed cubic and
    case, lifted as they are, x = y - shift, in doubles, and the matched distance
    of the two root sets; --verify checks the printed roots on the depressed cubic.
    """
    d, pair, case = triple.depressed, triple.pair, triple.case
    shift = _float_of(triple.shift)
    roots = checked = triple.roots
    if args.method == "both":
        cardano_roots = tuple(x - shift for x in _cardano(d, case)[0].roots)
        checked += cardano_roots
    _check_finite(checked)

    rec = {
        "input": echo,
        "method": args.method,
        "p": _float_of(d.p),
        "q": _float_of(d.q),
        "case": case.value,
        "r": _cjson(pair.r) if pair.r is not None else None,
        "roots": [_cjson(x) for x in roots],
    }
    if args.method == "both":
        rec["cardano_roots"] = [_cjson(x) for x in cardano_roots]
        rec["max_matched_distance"] = match_root_sets(roots, cardano_roots)
    else:
        rec["multiplicity"] = [list(m) for m in triple.multiplicity]
        rec["exact"] = (
            [_str(e) if e is not None else None for e in triple.exact] if triple.exact is not None else None
        )
    if args.verify:
        # The printed roots, moved onto the depressed cubic: y = x + delta.
        report = verify_roots(d, RootTriple(tuple(x + shift for x in roots), case))
        rec["verification"] = {
            "pass": report.passed,
            "residuals": list(report.residuals),
            "vieta_errors": list(report.vieta_errors),
            "tol": report.tol,
            "scale": report.scale,
        }
    return rec


def _fmt(value: float, precision: int) -> str:
    return f"{value:.{precision}g}"


def _fmt_complex(z: dict, precision: int) -> str:
    re, im = z["re"], z["im"]
    if im == 0:
        return _fmt(re, precision)
    sign = "+" if im >= 0 else "-"
    return f"{_fmt(re, precision)} {sign} {_fmt(abs(im), precision)}i"


def _render_text(rec: dict, triple: RootTriple, cubic: GeneralCubic, precision: int) -> str:
    """The record as text: the roots with their exact values and multiplicities,
    the cosine form when chen has one, Cardano's roots under --method both, the
    residuals and, last, the --verify report. The shift, s, the cosine form and
    the residuals |f(x)| of the roots, which the record leaves out, are read off
    the solve result and the cubic."""
    lines = [f"input: {rec['input']}"]
    lines.append(f"method: {rec['method']}   case: {rec['case']}")
    delta = _float_of(triple.shift)
    shift = _fmt(delta, precision)
    lines.append(f"depressed: p = {_fmt(rec['p'], precision)}, q = {_fmt(rec['q'], precision)}"
                 f"   (shift delta = {shift})")
    if rec["r"] is not None:
        lines.append(f"r = {_fmt_complex(rec['r'], precision)}, s = {_fmt_complex(_cjson(triple.pair.s), precision)}")
    exact = rec.get("exact") or (None, None, None)
    mult = dict(rec.get("multiplicity") or ())
    lines.append("roots:")
    for i, z in enumerate(rec["roots"]):
        note = f"   (exact: {exact[i]})" if exact[i] is not None else ""
        if i in mult:
            note += f"   [multiplicity {mult[i]}]"
        lines.append(f"  x[{i}] = {_fmt_complex(z, precision)}{note}")
    trig = triple.trig
    if trig is not None and rec["method"] == "chen":
        shift_part = f" - ({shift})" if delta != 0 else ""
        lines.append(
            f"cosine form: x[i] = {_fmt(trig.amplitude, precision)} * cos(offset[i]){shift_part}, "
            f"theta = {_fmt(trig.theta, precision)}"
        )
        lines.append("  offsets: " + ", ".join(f"{_fmt(off / math.pi, precision)}*pi" for off in trig.offsets))
    if "cardano_roots" in rec:
        lines.append("cardano roots:")
        for i, z in enumerate(rec["cardano_roots"]):
            lines.append(f"  x[{i}] = {_fmt_complex(z, precision)}")
        lines.append(f"max matched distance = {_fmt(rec['max_matched_distance'], 3)}")
    # GeneralCubic.__call__'s complex Horner form on the coefficients rounded to doubles.
    lines.append("residuals: " + ", ".join(_fmt(abs(cubic(x)), 3) for x in triple.roots))
    if "verification" in rec:
        v = rec["verification"]
        lines.append(
            f"verification: {'PASS' if v['pass'] else 'FAIL'} "
            f"(max residual {_fmt(max(v['residuals']), 3)}, "
            f"max vieta error {_fmt(max(v['vieta_errors']), 3)}, tol {v['tol']:g})"
        )
    return "\n".join(lines)


def cmd_solve(args) -> int:
    modes = [args.expr is not None, args.p is not None or args.q is not None, args.batch is not None]
    if sum(modes) != 1:
        print("error: give exactly one of --expr, --p/--q, or --batch", file=sys.stderr)
        return 2

    if args.batch is not None:
        if args.format == "text" or args.precision is not None:
            print("error: --batch writes JSON lines; --format text and --precision do not apply", file=sys.stderr)
            return 2
        return _run_batch(args)

    if args.expr is not None:
        cubic = parse_cubic(args.expr)
        echo = args.expr
    elif args.p is None or args.q is None:
        print("error: --p and --q must be given together", file=sys.stderr)
        return 2
    else:
        p, q = parse_coefficient(args.p), parse_coefficient(args.q)
        cubic = GeneralCubic(0, p, q)
        echo = f"x^3 + ({_str(p)})x + ({_str(q)})"

    triple = solve(cubic)
    rec = _solve_record(triple, echo, args)
    if args.format == "json":
        print(_encode(rec))
    else:
        print(_render_text(rec, triple, cubic, 12 if args.precision is None else args.precision))
    if args.verify and not rec["verification"]["pass"]:
        return 3
    return 0


def _run_batch(args) -> int:
    try:
        with open(args.batch, encoding="utf-8") as fh:
            batch_lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read batch file: {exc}", file=sys.stderr)
        return 2
    codes = set()
    for lineno, line in enumerate(batch_lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rec = _solve_record(solve(parse_cubic(line)), line, args)
        except tuple(_FAILURES) as exc:
            print(f"line {lineno}: {exc}", file=sys.stderr)
            codes.add(_failure(exc)[0])
            continue
        print(_encode(rec))
        if args.verify and not rec["verification"]["pass"]:
            codes.add(3)
    # A usage error (2) outranks a numeric failure (3).
    return min(codes, default=0)


def cmd_denest(args) -> int:
    radical = NestedRadical(parse_coefficient(args.a), parse_coefficient(args.b))
    result = denest(radical)
    _check_finite([complex(result.value)])
    if args.format == "json":
        rec = {
            "a": float(radical.a),
            "b": float(radical.b),
            "value": result.value,
            "exact": str(result.exact) if result.exact is not None else None,
            "p": float(result.cubic.p),
            "q": float(result.cubic.q),
        }
        print(_encode(rec))
        return 0
    if result.exact is not None:
        print(f"value = {result.exact} (exact)")
    else:
        print(f"value = {_fmt(result.value, args.precision)}")
    print(f"satisfies: {result.cubic} = 0")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return cmd_solve(args)
        return cmd_denest(args)
    except tuple(_FAILURES) as exc:
        code, prefix = _failure(exc)
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
