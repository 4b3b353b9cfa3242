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
import cmath
import math
import sys
from fractions import Fraction
from typing import Optional

from .chen import RootTriple, solve
from .decompose import CaseTag
from .denest import NestedRadical, denest
from .numerics import _float_of
from .parsing import ParseError, parse_coefficient, parse_cubic
from .reduction import GeneralCubic, InvalidInputError


class NumericFailure(RuntimeError):
    """A non-finite value escaped the computation."""


_repr = float.__repr__
_TWO_PI_3 = 2.0 * math.pi / 3.0  # as chen defines it: the cosine form's offsets are the solve step's bits
# Exit code and message prefix of each failure, for single and batch runs alike.
_FAILURES = {
    ParseError: (2, ""),
    InvalidInputError: (2, ""),
    NumericFailure: (3, "numeric failure: "),
    OverflowError: (3, "numeric failure: "),
}


def _bind(args) -> None:
    """Import, with plain imports once per run and never per line, what its options use:
    Cardano under --method both, verify under --verify, json's string writer for JSON
    output (a batch writes JSON). Each run reads the names off their source modules, so
    a test replaces a CLI dependency there (rscubic.cardano, rscubic.verify)."""
    global _cardano, match_root_sets, verify_roots, _jstr
    solving = args.command == "solve"
    if solving and args.method == "both":
        from .cardano import _cardano, match_root_sets
    if solving and args.verify:
        from .verify import verify_roots
    if args.format == "json" or solving and args.batch is not None:
        from json.encoder import encode_basestring_ascii as _jstr


def _failure(exc: Exception) -> tuple[int, str]:
    return next(v for kind, v in _FAILURES.items() if isinstance(exc, kind))


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
    solve.add_argument("--verify", action="store_true", help="append a verification report; exit 3 on failure")

    den = sub.add_parser("denest", help="denest cbrt(a+sqrt(b)) + cbrt(a-sqrt(b))")
    den.add_argument("--a", required=True)
    den.add_argument("--b", required=True)
    den.add_argument("--format", choices=["text", "json"], default="text")
    return parser


def _check_finite(values) -> None:
    if not all(map(cmath.isfinite, values)):
        raise NumericFailure("non-finite intermediate or result")


def _jnum(x: float) -> str:
    """x as json.dumps writes a float: float.__repr__, or NaN, Infinity and -Infinity."""
    if x - x == 0.0:
        return _repr(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def _jroots(roots) -> str:
    """The JSON array of three finite roots, as float.__repr__ spells each part."""
    x0, x1, x2 = roots
    return f'[{{"re": {x0.real!r}, "im": {x0.imag!r}}}, {{"re": {x1.real!r}, "im": {x1.imag!r}}}, {{"re": {x2.real!r}, "im": {x2.imag!r}}}]'


def _solve_values(triple: RootTriple, args) -> tuple:
    """What a solve result is printed with beside its own fields, for the JSON line
    and the text alike: p, q and the shift as doubles; under both, Cardano's roots of
    the same depressed cubic and case, lifted as they are, x = y - shift, in doubles,
    and the matched distance of the two root sets; under chen, the strings of the
    exact values; under --verify, the report on the printed roots, moved onto the
    depressed cubic (y = x + shift). Failures raise in that order, but for the
    check that every printed root is finite, which comes before p and q."""
    roots, case, _, exact_values, _, d, shift = triple
    shift = _float_of(shift)
    cardano = distance = exact = report = None
    x0, x1, x2 = roots
    nonfinite = (x0 - x0) + (x1 - x1) + (x2 - x2)  # 0j only when every root is finite
    if args.method == "both":
        y0, y1, y2 = _cardano(d, case).roots
        cardano = y0, y1, y2 = (y0 - shift, y1 - shift, y2 - shift)
        nonfinite += (y0 - y0) + (y1 - y1) + (y2 - y2)
    if nonfinite:
        _check_finite(roots + (cardano or ()))
    p, q = _float_of(d.p), _float_of(d.q)
    if cardano is not None:
        distance = match_root_sets(roots, cardano)
    elif exact_values is not None:
        exact = [_str(e) if e is not None else None for e in exact_values]
    if args.verify:
        report = verify_roots(d, RootTriple((x0 + shift, x1 + shift, x2 + shift), case))
    return p, q, shift, cardano, distance, exact, report


def _solve_json(triple: RootTriple, echo: str, args, values: tuple) -> str:
    """The JSON line of one solve result, byte for byte json.dumps of the record
    README's "JSON record" documents: input, method, p, q, case, r and the roots;
    then the multiplicities and exact values under chen, or Cardano's roots and the
    matched distance under both; then the --verify report."""
    p, q, _, cardano, distance, exact, report = values
    r = triple.pair.r
    rj = "null" if r is None else f'{{"re": {_jnum(r.real)}, "im": {_jnum(r.imag)}}}'
    # p, q and the roots are finite (_solve_values), so float.__repr__ is json's spelling.
    line = (
        f'{{"input": {_jstr(echo)}, "method": "{args.method}", "p": {p!r}, "q": {q!r}, "case": "{triple.case.value}", '
        f'"r": {rj}, "roots": {_jroots(triple.roots)}'
    )
    if cardano is not None:
        line += f', "cardano_roots": {_jroots(cardano)}, "max_matched_distance": {_jnum(distance)}'
    else:
        mult = ", ".join([f"[{i}, {n}]" for i, n in triple.multiplicity])
        ej = "null" if exact is None else "[" + ", ".join([_jstr(e) if e is not None else "null" for e in exact]) + "]"
        line += f', "multiplicity": [{mult}], "exact": {ej}'
    if report is not None:
        (r0, r1, r2), (v0, v1, v2), passed = report
        if (r0 - r0) + (r1 - r1) + (r2 - r2) + (v0 - v0) + (v1 - v1) + (v2 - v2) == 0.0:  # nan unless all are finite
            errors = f'[{r0!r}, {r1!r}, {r2!r}], "vieta_errors": [{v0!r}, {v1!r}, {v2!r}]'
        else:
            errors = f'[{", ".join(map(_jnum, report.residuals))}], "vieta_errors": [{", ".join(map(_jnum, report.vieta_errors))}]'
        line += f', "verification": {{"pass": {"true" if passed else "false"}, "residuals": {errors}}}'
    return line + "}\n"


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _fmt_complex(z: complex) -> str:
    re, im = z.real, z.imag
    if im == 0:
        return _fmt(re)
    sign = "+" if im >= 0 else "-"
    return f"{_fmt(re)} {sign} {_fmt(abs(im))}i"


def _exact_residual(cubic: GeneralCubic, z: complex) -> float:
    """|f(z)| at z's two doubles, computed exactly and rounded once (inf beyond the double range)."""
    x, y, re, im = Fraction(z.real), Fraction(z.imag), 1, 0
    for coef in cubic:  # Horner's form in rationals: a double is one too
        re, im = re * x - im * y + Fraction(coef), re * y + im * x
    n, m = (re * re + im * im).as_integer_ratio()
    j = max(0, 116 - n.bit_length() + m.bit_length()) // 2  # sqrt(n 4^j / m) to 57 bits or more
    root = math.isqrt((n << 2 * j) // m)
    try:  # with a sticky last bit, the int / int division is the one rounding
        return (2 * root + (root * root * m != n << 2 * j)) / (2 << j)
    except OverflowError:
        return math.inf


def _render_text(triple: RootTriple, echo: str, args, values: tuple, cubic: GeneralCubic) -> str:
    """The result as text: the roots with their exact values and multiplicities,
    the cosine form when chen has one, Cardano's roots under --method both, the
    residuals |f(x)| of the roots and, last, the --verify report."""
    p, q, delta, cardano, distance, exact, report = values
    pair = triple.pair
    lines = [f"input: {echo}"]
    lines.append(f"method: {args.method}   case: {triple.case.value}")
    shift = _fmt(delta)
    lines.append(f"depressed: p = {_fmt(p)}, q = {_fmt(q)}   (shift delta = {shift})")
    if pair.r is not None:
        lines.append(f"r = {_fmt_complex(pair.r)}, s = {_fmt_complex(pair.s)}")
    exact = exact or (None, None, None)
    mult = dict(triple.multiplicity) if cardano is None else {}
    lines.append("roots:")
    for i, z in enumerate(triple.roots):
        note = f"   (exact: {exact[i]})" if exact[i] is not None else ""
        if i in mult:
            note += f"   [multiplicity {mult[i]}]"
        lines.append(f"  x[{i}] = {_fmt_complex(z)}{note}")
    r = pair.r
    if triple.case is CaseTag.CONJUGATE_PAIR and r is not None and args.method == "chen":
        theta, amplitude = math.atan2(r.imag, r.real), -2.0 * abs(r)  # the solve step's own expressions
        t = theta / 3.0
        shift_part = f" - ({shift})" if delta != 0 else ""
        lines.append(f"cosine form: x[i] = {_fmt(amplitude)} * cos(offset[i]){shift_part}, theta = {_fmt(theta)}")
        offsets = (t, t + 2.0 * _TWO_PI_3, t + _TWO_PI_3)
        lines.append("  offsets: " + ", ".join(f"{_fmt(off / math.pi)}*pi" for off in offsets))
    if cardano is not None:
        lines.append("cardano roots:")
        for i, z in enumerate(cardano):
            lines.append(f"  x[{i}] = {_fmt_complex(z)}")
        lines.append(f"max matched distance = {distance:.3g}")
    # GeneralCubic.__call__'s complex Horner form on the coefficients rounded to doubles,
    # or f(x) computed exactly where that overflows, as for a coefficient with no double.
    try:
        residuals = [abs(cubic(x)) for x in triple.roots]
    except OverflowError:
        residuals = [_exact_residual(cubic, x) for x in triple.roots]
    lines.append("residuals: " + ", ".join(f"{v:.3g}" for v in residuals))
    if report is not None:
        lines.append(
            f"verification: {'PASS' if report.passed else 'FAIL'} "
            f"(max residual {max(report.residuals):.3g}, max vieta error {max(report.vieta_errors):.3g})"
        )
    return "\n".join(lines)


def cmd_solve(args) -> int:
    modes = [args.expr is not None, args.p is not None or args.q is not None, args.batch is not None]
    if sum(modes) != 1:
        print("error: give exactly one of --expr, --p/--q, or --batch", file=sys.stderr)
        return 2

    if args.batch is not None:
        if args.format == "text":
            print("error: --batch writes JSON lines; --format text does not apply", file=sys.stderr)
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
    values = _solve_values(triple, args)
    if args.format == "json":
        sys.stdout.write(_solve_json(triple, echo, args, values))
    else:
        print(_render_text(triple, echo, args, values, cubic))
    return 3 if args.verify and not values[-1].passed else 0


def _run_batch(args) -> int:
    try:
        with open(args.batch, encoding="utf-8") as fh:
            batch_lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read batch file: {exc}", file=sys.stderr)
        return 2
    codes = set()
    write = sys.stdout.write
    for lineno, line in enumerate(batch_lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            triple = solve(parse_cubic(line))
            values = _solve_values(triple, args)
        except tuple(_FAILURES) as exc:
            print(f"line {lineno}: {exc}", file=sys.stderr)
            codes.add(_failure(exc)[0])
            continue
        write(_solve_json(triple, line, args, values))
        if args.verify and not values[-1].passed:
            codes.add(3)
    # A usage error (2) outranks a numeric failure (3).
    return min(codes, default=0)


def cmd_denest(args) -> int:
    radical = NestedRadical(parse_coefficient(args.a), parse_coefficient(args.b))
    result = denest(radical)
    _check_finite([complex(result.value)])
    if args.format == "json":
        exact = "null" if result.exact is None else _jstr(str(result.exact))
        sys.stdout.write(f'{{"value": {_jnum(result.value)}, "exact": {exact}}}\n')
        return 0
    if result.exact is not None:
        print(f"value = {result.exact} (exact)")
    else:
        print(f"value = {_fmt(result.value)}")
    print(f"satisfies: {result.cubic} = 0")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _bind(args)
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
