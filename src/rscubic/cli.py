"""Command-line front end.

Two subcommands:

* ``solve``  -- solve one cubic (``--expr``, ``--p/--q``, or ``--a/--b/--c``)
  or a batch file of expressions, with ``--method {chen,cardano,moebius,both}``
  and ``--format {text,json,trig,exact}``;
* ``denest`` -- evaluate and denest cbrt(a+sqrt(b)) + cbrt(a-sqrt(b)).

Exit codes: 0 success, 2 parse/usage error, 3 numeric failure (non-finite
result, method not applicable, or a failed ``--verify``). A batch run skips
a failing line and exits with the lowest nonzero code it met.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

from .cardano import _cardano, match_root_sets
from .chen import InvalidCaseError, RootTriple, _solve_cubic, solve_moebius
from .decompose import compute_rs
from .denest import NestedRadical, denest
from .numerics import _float_of
from .parsing import ParseError, parse_coefficient, parse_cubic
from .reduction import GeneralCubic, InvalidInputError, depress
from .verify import verify_roots


class NumericFailure(RuntimeError):
    """A non-finite value escaped the computation."""


# Exit code and message prefix of each failure, for single and batch runs alike.
_FAILURES = {
    ParseError: (2, ""),
    InvalidInputError: (2, ""),
    InvalidCaseError: (3, ""),
    NumericFailure: (3, "numeric failure: "),
    OverflowError: (3, "numeric failure: "),
}


def _failure(exc: Exception) -> tuple[int, str]:
    return next(v for kind, v in _FAILURES.items() if isinstance(exc, kind))


def _precision(text: str) -> int:
    """A --precision value: a nonnegative digit count, else a usage error (exit 2)."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rscubic",
        description="Solve real cubic equations via the r,s decomposition "
        "x^3 - 3rsx + rs(r+s) = 0, with a Cardano baseline and exact output.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve a cubic equation")
    solve.add_argument("--expr", help='equation text, e.g. "x^3-12x+16=0"')
    solve.add_argument("--p", type=parse_coefficient, help="p of x^3+px+q (accepts 9/2, 1.5, 64*sqrt(2))")
    solve.add_argument("--q", type=parse_coefficient, help="q of x^3+px+q")
    solve.add_argument("--a", type=parse_coefficient, help="a of x^3+ax^2+bx+c")
    solve.add_argument("--b", type=parse_coefficient, help="b of x^3+ax^2+bx+c")
    solve.add_argument("--c", type=parse_coefficient, help="c of x^3+ax^2+bx+c")
    solve.add_argument("--lead", type=parse_coefficient, default=None, help="leading coefficient (default 1)")
    solve.add_argument("--batch", metavar="FILE", help="file with one equation per line; emits JSON lines")
    solve.add_argument("--method", choices=["chen", "cardano", "moebius", "both"], default="chen")
    solve.add_argument("--format", choices=["text", "json", "trig", "exact"], default="text")
    solve.add_argument("--precision", type=_precision, default=12, help="significant digits in text output")
    solve.add_argument("--verify", action="store_true", help="append a verification report; exit 3 on failure")

    den = sub.add_parser("denest", help="denest cbrt(a+sqrt(b)) + cbrt(a-sqrt(b))")
    den.add_argument("--a", type=parse_coefficient, required=True)
    den.add_argument("--b", type=parse_coefficient, required=True)
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


def _solve_record(cubic: GeneralCubic, echo: str, args) -> dict:
    """One pass per cubic: depress, decompose once, solve, then record.

    The pair gives the case and the (r, s) reported for every method. The
    r,s roots are solve's, from the library's one step; Cardano replaces
    them, and so does Moebius when the pair has an r (a degenerate case
    keeps the step's roots). The baselines' depressed roots are lifted as
    they are, x = y - shift, in doubles.
    """
    d, delta = depress(cubic)
    pair = compute_rs(d)
    shift = _float_of(delta)
    if args.method == "cardano":
        triple = _cardano(d, pair.case)[0]
        roots = tuple(x - shift for x in triple.roots)
    elif args.method == "moebius" and pair.r is not None:
        triple = solve_moebius(pair.r, pair.s)
        roots = tuple(x - shift for x in triple.roots)
    else:
        triple = _solve_cubic(cubic.a, cubic.b, cubic.c, d, delta, pair)
        roots = triple.roots
    checked = roots
    if args.method == "both":
        cardano_roots = tuple(x - shift for x in _cardano(d, pair.case)[0].roots)
        checked += cardano_roots
    _check_finite(checked)

    # Each coefficient is rounded once; the residuals use GeneralCubic.__call__'s
    # complex Horner form, so their bits are the same.
    a, b, c = _float_of(cubic.a), _float_of(cubic.b), _float_of(cubic.c)

    def residuals(roots) -> list:
        return [abs(((x + a) * x + b) * x + c) for x in roots]

    rec = {
        "input": echo,
        "method": args.method,
        "cubic": {"a": a, "b": b, "c": c},
        "p": _float_of(d.p),
        "q": _float_of(d.q),
        "shift": shift,
        "case": pair.case.value,
        "r": _cjson(pair.r) if pair.r is not None else None,
        "s": _cjson(pair.s) if pair.s is not None else None,
        "roots": [_cjson(x) for x in roots],
    }
    if args.method == "both":
        rec["cardano_roots"] = [_cjson(x) for x in cardano_roots]
        rec["max_matched_distance"] = match_root_sets(roots, cardano_roots)
        rec["residuals"] = residuals(roots)
        rec["cardano_residuals"] = residuals(cardano_roots)
    else:
        rec["residuals"] = residuals(roots)
        rec["multiplicity"] = [list(m) for m in triple.multiplicity]
        rec["exact"] = (
            [str(e) if e is not None else None for e in triple.exact] if triple.exact is not None else None
        )
        rec["trig"] = (
            {
                "amplitude": triple.trig.amplitude,
                "theta": triple.trig.theta,
                "offsets": list(triple.trig.offsets),
            }
            if triple.trig is not None
            else None
        )
    if args.verify:
        # The printed roots, moved onto the depressed cubic: y = x + delta.
        report = verify_roots(d, RootTriple(tuple(x + shift for x in roots), pair.case))
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


def _render_text(rec: dict, precision: int) -> str:
    lines = [f"input: {rec['input']}"]
    lines.append(f"method: {rec['method']}   case: {rec['case']}")
    lines.append(f"depressed: p = {_fmt(rec['p'], precision)}, q = {_fmt(rec['q'], precision)}"
                 f"   (shift delta = {_fmt(rec['shift'], precision)})")
    if rec["r"] is not None:
        lines.append(f"r = {_fmt_complex(rec['r'], precision)}, s = {_fmt_complex(rec['s'], precision)}")
    if rec["method"] == "both":
        lines.append("r,s-method roots:")
        for i, z in enumerate(rec["roots"]):
            lines.append(f"  x[{i}] = {_fmt_complex(z, precision)}")
        lines.append("cardano roots:")
        for i, z in enumerate(rec["cardano_roots"]):
            lines.append(f"  x[{i}] = {_fmt_complex(z, precision)}")
        lines.append(f"max matched distance = {_fmt(rec['max_matched_distance'], 3)}")
    else:
        exact = rec.get("exact")
        mult = dict()
        for i, c in rec.get("multiplicity") or []:
            mult[i] = c
        lines.append("roots:")
        for i, z in enumerate(rec["roots"]):
            note = ""
            if exact and exact[i] is not None:
                note += f"   (exact: {exact[i]})"
            if i in mult:
                note += f"   [multiplicity {mult[i]}]"
            lines.append(f"  x[{i}] = {_fmt_complex(z, precision)}{note}")
    lines.append("residuals: " + ", ".join(_fmt(r, 3) for r in rec["residuals"]))
    return "\n".join(lines)


def _render_trig(rec: dict, precision: int) -> str:
    lines = [f"input: {rec['input']}"]
    trig = rec.get("trig")
    if trig is None:
        lines.append(f"no trigonometric form (case: {rec['case']}); decimal roots:")
        for i, z in enumerate(rec["roots"]):
            lines.append(f"  x[{i}] = {_fmt_complex(z, precision)}")
        return "\n".join(lines)
    amp, theta = trig["amplitude"], trig["theta"]
    delta = rec["shift"]
    shift_part = f" - ({_fmt(delta, precision)})" if delta != 0 else ""
    lines.append(
        f"three real roots: x = {_fmt(amp, precision)} * cos(theta/3 + 2k*pi/3){shift_part}, "
        f"theta = {_fmt(theta, precision)}"
    )
    for i, (off, z) in enumerate(zip(trig["offsets"], rec["roots"])):
        lines.append(
            f"  x[{i}] = {_fmt(amp, precision)} * cos({_fmt(off, precision)}){shift_part}"
            f"  [offset = {_fmt(off / math.pi, precision)}*pi]"
            f"  = {_fmt_complex(z, precision)}"
        )
    return "\n".join(lines)


def _render_exact(rec: dict, precision: int) -> str:
    lines = [f"input: {rec['input']}", f"case: {rec['case']}"]
    exact = rec.get("exact")
    for i, z in enumerate(rec["roots"]):
        if exact and exact[i] is not None:
            lines.append(f"  x[{i}] = {exact[i]}   (exact)")
        else:
            lines.append(f"  x[{i}] = {_fmt_complex(z, precision)}   (exact: none)")
    return "\n".join(lines)


def _render(rec: dict, fmt: str, precision: int) -> str:
    """The record as one JSON line, or as text that ends with the --verify report in every text format."""
    if fmt == "json":
        return json.dumps(rec)
    if fmt == "trig" and rec["method"] != "both":
        text = _render_trig(rec, precision)
    elif fmt == "exact" and rec["method"] != "both":
        text = _render_exact(rec, precision)
    else:
        text = _render_text(rec, precision)
    if "verification" in rec:
        v = rec["verification"]
        text += (
            f"\nverification: {'PASS' if v['pass'] else 'FAIL'} "
            f"(max residual {_fmt(max(v['residuals']), 3)}, "
            f"max vieta error {_fmt(max(v['vieta_errors']), 3)}, tol {v['tol']:g})"
        )
    return text


def cmd_solve(args) -> int:
    modes = [
        args.expr is not None,
        args.p is not None or args.q is not None,
        any(v is not None for v in (args.a, args.b, args.c, args.lead)),
        args.batch is not None,
    ]
    if sum(modes) != 1:
        print(
            "error: give exactly one of --expr, --p/--q, --a/--b/--c, or --batch",
            file=sys.stderr,
        )
        return 2

    if args.batch is not None:
        return _run_batch(args)

    if args.expr is not None:
        cubic = parse_cubic(args.expr)
        echo = args.expr
    elif args.p is not None or args.q is not None:
        if args.p is None or args.q is None:
            print("error: --p and --q must be given together", file=sys.stderr)
            return 2
        cubic = GeneralCubic(0, args.p, args.q)
        echo = f"x^3 + ({args.p})x + ({args.q})"
    else:
        missing = [n for n, v in (("--a", args.a), ("--b", args.b), ("--c", args.c)) if v is None]
        if missing:
            print(f"error: missing {', '.join(missing)}", file=sys.stderr)
            return 2
        cubic = GeneralCubic(args.a, args.b, args.c, lead=args.lead if args.lead is not None else 1)
        echo = str(cubic)

    rec = _solve_record(cubic, echo, args)
    print(_render(rec, args.format, args.precision))
    if args.verify and not rec["verification"]["pass"]:
        return 3
    return 0


def _run_batch(args) -> int:
    try:
        with open(args.batch, encoding="utf-8") as fh:
            batch_lines = fh.read().splitlines()
    except OSError as exc:
        print(f"error: cannot read batch file: {exc}", file=sys.stderr)
        return 2
    codes = set()
    for lineno, line in enumerate(batch_lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            cubic = parse_cubic(line)
            rec = _solve_record(cubic, line, args)
        except tuple(_FAILURES) as exc:
            print(f"line {lineno}: {exc}", file=sys.stderr)
            codes.add(_failure(exc)[0])
            continue
        print(json.dumps(rec))
        if args.verify and not rec["verification"]["pass"]:
            codes.add(3)
    # A usage error (2) outranks a numeric failure (3).
    return min(codes, default=0)


def cmd_denest(args) -> int:
    radical = NestedRadical(args.a, args.b)
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
            "note": result.note,
        }
        print(json.dumps(rec))
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
