"""Footprint of a checkout: code lines per module, and digests of what the program outputs.

Run it in a checkout, and again in another, to see that a change took lines out of
``src/rscubic`` and left the output as it was:

    python tools/footprint.py --seeds 7 41 --streams 0 1 2 3

It prints

* each ``src/rscubic`` module's code lines, counted with tokenize: blank, comment and
  docstring lines (a string that is a statement of its own) are left out;
* per batch workload and method, ``solve --batch --format json`` under ``--method chen``
  and under ``--method both --verify`` over the corpus streams of the given seeds: the
  records written, the lines refused, and a SHA-256 of stdout, stderr (batch file name
  masked) and the exit code of each run;
* per library workload, the records and a SHA-256 of the ``repr`` of each library
  ``solve`` or ``denest`` result, or the exception's type and message.

The inputs are perfbench's seeded corpora (``perfbench/corpus.py``, imported read-only).
``load`` and ``batch_file`` are ``tools/opcount.py``'s too, so the corpus interface is
known here alone.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
METHODS = {"chen": ["--method", "chen"], "both --verify": ["--method", "both", "--verify"]}
SKIPPED = {tokenize.NL, tokenize.COMMENT, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def code_lines(path: Path) -> int:
    """The lines of path that hold a token of a statement other than a lone string."""
    lines, statement = set(), []
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
                if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                    lines.update(n for t in statement for n in range(t.start[0], t.end[0] + 1))
                statement = []
            elif tok.type not in SKIPPED:
                statement.append(tok)
    return len(lines)


def load():
    """(corpus, rscubic, cli.main) of this checkout, perfbench's corpus imported read-only."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # perfbench/ stays as it is
    from perfbench import corpus

    sys.dont_write_bytecode = saved
    import rscubic
    from rscubic.cli import main as cli_main

    return corpus, rscubic, cli_main


def batch_file(path: Path, lines) -> list[str]:
    """Writes lines to path as a batch file; the cli.main arguments that solve it as JSON."""
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return ["solve", "--batch", str(path), "--format", "json"]


def batch_digest(corpus, main, workload: str, seeds, streams, flags, work: Path) -> tuple[int, int, str]:
    """(records, refused lines, SHA-256) of the batch runs over the given seeds and streams."""
    digest, records, refused = hashlib.sha256(), 0, 0
    for seed in seeds:
        for stream in streams:
            path = work / f"{workload}-{seed}-{stream}.txt"
            argv = batch_file(path, (item.args for item in corpus.generate(workload, seed, stream=stream))) + flags
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            stdout, stderr = out.getvalue(), err.getvalue().replace(str(path), "<batch>")
            records, refused = records + stdout.count("\n"), refused + stderr.count("\n")
            digest.update(f"{seed} {stream} {code}\n{stdout}\0{stderr}\0".encode())
    return records, refused, digest.hexdigest()


def library_digest(corpus, rscubic, workload: str, seeds, streams) -> tuple[int, str]:
    """(records, SHA-256) of the library results over the given seeds and streams."""
    digest, records = hashlib.sha256(), 0
    for seed in seeds:
        for stream in streams:
            for item in corpus.generate(workload, seed, stream=stream):
                try:
                    if item.kind == "solve":
                        result = repr(rscubic.solve(rscubic.GeneralCubic(*item.args)))
                    else:
                        result = repr(rscubic.denest(rscubic.NestedRadical(*item.args)))
                except Exception as exc:  # a refusal is an output too
                    result = f"{type(exc).__name__}: {exc}"
                digest.update(result.encode() + b"\n")
                records += 1
    return records, digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[7])
    parser.add_argument("--streams", type=int, nargs="+", default=[0])
    args = parser.parse_args()

    corpus, rscubic, cli_main = load()
    modules = sorted((ROOT / "src" / "rscubic").glob("*.py"))
    counts = {path.name: code_lines(path) for path in modules}
    print("code lines (tokenize; no blank, comment or docstring lines)")
    for name, n in counts.items():
        print(f"  {name:<16}{n:>6}")
    print(f"  {'total':<16}{sum(counts.values()):>6}")

    where = f"seeds {' '.join(map(str, args.seeds))}, streams {' '.join(map(str, args.streams))}"
    print(f"outputs ({where})")
    with tempfile.TemporaryDirectory() as work:
        for workload in ("batch_plain", "batch_both_verify"):
            for method, flags in METHODS.items():
                records, refused, sha = batch_digest(corpus, cli_main, workload, args.seeds, args.streams, flags, Path(work))
                print(f"  {workload:<18}{method:<14}{records:>7} records {refused:>5} refused  {sha}")
    for workload in ("lib_float_wide", "lib_exact"):
        records, sha = library_digest(corpus, rscubic, workload, args.seeds, args.streams)
        print(f"  {workload:<18}{'library':<14}{records:>7} records {'':>13}{sha}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
