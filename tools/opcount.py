"""Interpreter work per op: bytecode instructions, Python calls and C calls, per workload.

Run it in a checkout, and again in another, to see what a change does to the work
each op asks of the interpreter, without timing noise:

    python tools/opcount.py --seed 7 --stream 1 --ops 200

Per workload of perfbench's corpora (``perfbench/corpus.py``, imported read-only by
``footprint.load``, whose ``batch_file`` writes the batch files too), it
takes the first ``--ops`` items of the given stream and seed (all of them by default;
a library workload's untimed probes are left out, as perfbench leaves them out of its
timings) and runs them twice after one warm pass:

* under ``sys.settrace`` with ``f_trace_opcodes``, counting the bytecode instructions;
* under ``sys.setprofile``, counting the Python calls (``call`` events, which include
  a generator's resumptions) and the C calls (``c_call`` events).

Library ops are ``solve(GeneralCubic(*args))`` and ``denest(NestedRadical(*args))``,
as perfbench times them; a library workload with both kinds also gets a line per kind.
A batch workload writes its lines to files of at most 300 lines (perfbench's chunk)
and runs ``rscubic.cli.main(["solve", "--batch", FILE, "--format", "json", ...])`` on
each, in process, with the workload's flags; an op is one line, and each call's
argument parsing and set-up is shared among its lines. The harness's own frames are
not counted. The counts depend on the Python version, not on the machine.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
import tempfile
from pathlib import Path

from footprint import batch_file, load

WORKLOADS = ("batch_plain", "batch_both_verify", "lib_float_wide", "lib_exact")
FLAGS = {"batch_plain": [], "batch_both_verify": ["--method", "both", "--verify"]}
BATCH_CHUNK = 300


def run_library(rscubic, ops) -> None:
    """Each (kind, args) of ops as perfbench times it; a refusal is an output too."""
    solve, denest, cubic, radical = rscubic.solve, rscubic.denest, rscubic.GeneralCubic, rscubic.NestedRadical
    for kind, args in ops:
        try:
            if kind == "solve":
                solve(cubic(*args))
            else:
                denest(radical(*args))
        except Exception:
            pass


def run_batch(main, argvs) -> None:
    """cli.main on each batch file; output goes to an in-memory sink."""
    for argv in argvs:
        try:
            main(argv)
        except Exception:
            pass


HARNESS = {run_library.__code__, run_batch.__code__}


def opcodes(run, *args) -> int:
    """Bytecode instructions run(*args) executes outside the harness's frames."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def start(frame, event, arg):
        if frame.f_code in HARNESS:
            return None
        frame.f_trace_opcodes = True
        return local

    sys.settrace(start)
    try:
        run(*args)
    finally:
        sys.settrace(None)
    return count


def calls(run, *args) -> tuple[int, int]:
    """(Python calls, C calls) that run(*args) makes outside the harness's frames."""
    python = c = 0
    own = HARNESS | {calls.__code__}

    def profile(frame, event, arg):
        nonlocal python, c
        if frame.f_code in own:
            return
        if event == "call":
            python += 1
        elif event == "c_call":
            c += 1

    sys.setprofile(profile)
    try:
        run(*args)
    finally:
        sys.setprofile(None)
    return python, c


def measure(run, *args) -> tuple[int, int, int]:
    """(opcodes, Python calls, C calls) of run(*args), after one warm pass."""
    run(*args)
    return (opcodes(run, *args), *calls(run, *args))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--stream", type=int, default=1)
    parser.add_argument("--ops", type=int, default=None, help="items a workload (default: the whole stream)")
    args = parser.parse_args()
    corpus, rscubic, cli_main = load()
    print(f"per op, seed {args.seed}, stream {args.stream}, Python {sys.version.split()[0]}")
    print(f"  {'workload':<22}{'ops':>6}{'opcodes':>11}{'py_calls':>10}{'c_calls':>10}")
    rows = []
    with tempfile.TemporaryDirectory() as work:
        for workload in WORKLOADS:
            items = corpus.generate(workload, args.seed, stream=args.stream)
            if workload in FLAGS:
                lines = [item.args for item in items][: args.ops]
                argvs = [
                    batch_file(Path(work) / f"{workload}-{k}.txt", lines[k : k + BATCH_CHUNK]) + FLAGS[workload]
                    for k in range(0, len(lines), BATCH_CHUNK)
                ]
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    rows.append((workload, len(lines), measure(run_batch, cli_main, argvs)))
                continue
            ops = [(item.kind, item.args) for item in items if not item.probe][: args.ops]
            rows.append((workload, len(ops), measure(run_library, rscubic, ops)))
            kinds = sorted({kind for kind, _ in ops})
            if len(kinds) > 1:
                for kind in kinds:
                    some = [op for op in ops if op[0] == kind]
                    rows.append((f"{workload}.{kind}", len(some), measure(run_library, rscubic, some)))
    for name, n, counts in rows:
        print(f"  {name:<22}{n:>6}" + "".join(f"{value / n:>{width}.2f}" for value, width in zip(counts, (11, 10, 10))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
