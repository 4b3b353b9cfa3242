"""Runs one workload against rscubic in a fresh process (no mpmath loaded).

Usage: python3 perfbench/worker.py SPEC.json OUT.json

The spec names the workload, seed and corpus size, how long to measure and
whether to trace. The worker imports rscubic from ``src/`` and runs the
checked corpus (stream 0 of the seed, see corpus.py) once, which is also
the warm-up, and records each output for the mpmath check. It then times
fresh streams 1, 2, ... of the same seed, in a closed loop with one
caller, until the time is up. No timed input repeats, so a cache keyed on
inputs cannot pass for a speed-up. Timed outputs are checked for schema
and finiteness only:

* library ops are timed call by call, a stream at a time;
* batch ops run ``rscubic.cli.main`` in-process, one call per batch file
  of BATCH_CHUNK lines, with stdout sent to a sink that timestamps each
  line; an op's latency is the gap to the previous line (or to the call
  of ``main`` for the first line), less the harness's work in between.

Times are scaled to a reference machine speed. On shared machines the
speed of a core swings by half within milliseconds (as when another
process shares the physical core), so a short fixed
stdlib-only probe (``probe``) runs right before the first op of each chunk
and right after every op, outside the op's time. An op's latency is
scaled by the mean speed of the probes on either side of it. The probe
never calls rscubic, so a change to the program cannot move it. Code
slows by different amounts when its core is shared, and the probe's mix
is chosen to slow like the program: with small Fractions only, scaled
times of every workload read 5-14% lower when the core is shared than
when it is not; with two 100-digit Fractions mixed in, within 4%.

* ops_per_s is the timed ops, less the run's share of failed ops, over
  the sum of their scaled latencies. Garbage collection and anything
  else the program does inside a call is in those latencies.
* latency_us_p50 and latency_us_p99 are percentiles of the scaled
  latencies of the steady ops: those whose two probes agree within the
  workload's share in STEADY. When they disagree, the speed changed during
  the op, and its scaled latency can be off by up to the ratio of the two
  speeds; on ops whose p99 is under twice their median that is enough to
  fill the 1% tail. lib_exact keeps every op instead: its p99 is seven
  times its median, and its slow ops run long enough to straddle a speed
  change often, so dropping those would under-sample its tail.

With tracing, half the time runs untraced and half traced, which gives the
tracing overhead; per-layer metrics come from the traced half only.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path

import corpus

ROOT = Path(__file__).resolve().parent.parent
SPAN_CAP = 400_000
BATCH_CHUNK = 300  # lines per batch file, one call of the CLI each
# Latency samples kept, in a ring allocated up front so that the memory it
# takes is the same however fast the program runs.
SAMPLE_CAP = 1 << 19
_SMALL = [Fraction(i, i + 7) for i in range(1, 9)]
_BIG = [Fraction(3**200 + i, 7**150 + i) for i in range(1, 3)]
# Time of the probe at the reference speed: about its time on a 2-vCPU
# cloud sandbox whose core is not shared.
PROBE_REF_NS = 49_000
# Per workload, how far the probes around an op may differ for it to count
# in the latency percentiles (None: every op counts). lib_float_wide's ops
# take half a probe's time, so a speed change lands in their 1% tail unless
# the probes agree closely: its p99 falls as the share tightens, down to
# 0.015, and at 0.02 it still moved by 15% between runs.
STEADY = {"batch_plain": 0.05, "batch_both_verify": 0.05, "lib_float_wide": 0.01, "lib_exact": None}
_RAISED = object()


def probe() -> int:
    """Time in ns of fixed Fraction, dict and str work from the standard library.

    The garbage collector is off meanwhile, so that the program's heap
    cannot slow it down.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        total, names = Fraction(0), {}
        for i, x in enumerate(_SMALL):
            total += x * x
            names[i] = str(i)
        for x in _BIG:
            total += x * x
        return time.perf_counter_ns() - t0
    finally:
        if enabled:
            gc.enable()


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def _split(items) -> tuple[list, list]:
    """(timed items, untimed probe items), in the order run.py matches outputs to items."""
    return [it for it in items if not it.probe], [it for it in items if it.probe]


class Lib:
    """Library ops: ``solve(GeneralCubic(a, b, c))`` and ``denest(NestedRadical(a, b))``."""

    def __init__(self, rscubic, workload, seed, size):
        self.rscubic = rscubic
        self.workload, self.seed, self.size = workload, seed, size
        self.stream = 1
        self.steady = STEADY[workload]

    def call(self, kind, args):
        rs = self.rscubic
        if kind == "solve":
            return rs.solve(rs.GeneralCubic(*args))
        return rs.denest(rs.NestedRadical(*args))

    @staticmethod
    def render(result) -> dict:
        if hasattr(result, "roots"):
            exact = None if result.exact is None else [None if e is None else str(e) for e in result.exact]
            roots = [{"re": z.real, "im": z.imag} for z in result.roots]
            return {"roots": roots, "case": result.case.value, "exact": exact}
        exact = None if result.exact is None else str(result.exact)
        return {"value": result.value, "exact": exact, "note": result.note}

    def _render_each(self, items) -> list:
        outputs = []
        for it in items:
            try:
                outputs.append(self.render(self.call(it.kind, it.args)))
            except Exception as exc:  # a failed op is a measured outcome
                outputs.append({"error": f"{type(exc).__name__}: {exc}"[:300]})
        return outputs

    def check(self) -> dict:
        """The check pass over stream 0: every timed op, then every untimed probe item, once."""
        ops, probe_items = _split(corpus.generate(self.workload, self.seed, self.size))
        return {"outputs": self._render_each(ops) + self._render_each(probe_items)}

    def load(self) -> list:
        """The next fresh stream, as one chunk."""
        self.stream += 1
        return [[(it.kind, it.args) for it in corpus.generate(self.workload, self.seed, self.size, self.stream - 1)]]

    def run_chunk(self, ops, mark, hide, gaps, probes) -> list:
        """Run one chunk, timing each op and probing after it; returns the results."""
        call, clock = self.call, time.perf_counter_ns
        results = []
        probes.append(probe())
        for kind, args in ops:
            if mark:
                mark()
            t0 = clock()
            try:
                res = call(kind, args)
            except Exception:
                res = _RAISED
            gaps.append(clock() - t0)
            probes.append(probe())
            results.append(res)
        return results

    def score(self, ops, results) -> tuple[int, int, int]:
        """(attempted, failed, malformed) of a timed chunk."""
        failed = malformed = 0
        for (kind, _), res in zip(ops, results):
            if res is _RAISED:
                failed += 1
                continue
            try:
                out = self.render(res)
                values = [v for z in out["roots"] for v in (z["re"], z["im"])] if kind == "solve" else [out["value"]]
            except (AttributeError, TypeError, ValueError):
                malformed += 1
                continue
            if kind == "solve" and len(out["roots"]) != 3:
                malformed += 1
            elif not _finite(values):
                failed += 1
        return len(ops), failed, malformed


class _Sink:
    """stdout stand-in: splits writes into lines and hands each to ``on_line``."""

    def __init__(self, on_line):
        self.on_line = on_line
        self._parts = []

    def write(self, s: str) -> int:
        if "\n" not in s:
            self._parts.append(s)
            return len(s)
        now = time.perf_counter_ns()
        self._parts.append(s)
        *lines, rest = "".join(self._parts).split("\n")
        self._parts = [rest] if rest else []
        for line in lines:
            self.on_line(line, now)
        return len(s)

    def flush(self) -> None:
        pass


class Batch:
    """Batch ops: ``rscubic solve --batch FILE --format json ...``, one call per batch file."""

    def __init__(self, workload, seed, size, work_dir: Path):
        import rscubic.cli

        self.cli = rscubic.cli
        self.workload, self.seed, self.size = workload, seed, size
        self.flags = ["--format", "json"] + (["--method", "both", "--verify"] if workload == "batch_both_verify" else [])
        self.work_dir = work_dir
        self.files = []
        self.stream = 1
        self.steady = STEADY[workload]

    def _main(self, argv, on_line) -> None:
        """One call with stdout going to ``on_line``; an aborted call just stops emitting lines."""
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = _Sink(on_line), _Sink(lambda line, now: None)
        try:
            self.cli.main(argv)
        except Exception:  # the batch aborted: its remaining lines count as missing
            pass
        finally:
            sys.stdout, sys.stderr = saved

    def _write(self, stream: int) -> list:
        """The batch files of a stream, as (argv, stripped input lines); the previous stream's go."""
        for path in self.files:
            path.unlink(missing_ok=True)
        self.files = []
        items = corpus.generate(self.workload, self.seed, self.size, stream)
        chunks = []
        for k in range(0, len(items), BATCH_CHUNK):
            path = self.work_dir / f"batch-{stream}-{k // BATCH_CHUNK}.txt"
            lines = [it.args for it in items[k : k + BATCH_CHUNK]]
            path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
            self.files.append(path)
            chunks.append((["solve", "--batch", str(path)] + self.flags, [line.strip() for line in lines]))
        return chunks

    def load(self) -> list:
        """The batch files of the next fresh stream."""
        self.stream += 1
        return self._write(self.stream - 1)

    def check(self) -> dict:
        """The check pass: each batch file of stream 0 once."""
        lines = []
        for argv, _ in self._write(0):
            self._main(argv, lambda line, now: lines.append(line))
        return {"lines": lines}

    def run_chunk(self, chunk, mark, hide, gaps, probes) -> list:
        """Run one batch file, timing each line and probing after it; returns the lines.

        The sink's work after a line's timestamp, the probe included, runs
        inside ``cli.main``; ``hide`` takes it off the traced self time.
        """
        argv, _ = chunk
        lines = []
        prev = 0

        def on_line(line, now):
            nonlocal prev
            lines.append(line)
            gaps.append(now - prev)
            probes.append(probe())
            if mark:
                mark()
            prev = time.perf_counter_ns()
            if hide:
                hide(prev - now)

        if mark:
            mark()
        probes.append(probe())
        prev = time.perf_counter_ns()
        self._main(argv, on_line)
        return lines

    def score(self, chunk, lines) -> tuple[int, int, int]:
        """(attempted, failed, malformed) of a timed batch file.

        Lines are matched to inputs by their echo; an input without a line
        (skipped with an error, or after an abort) failed.
        """
        _, inputs = chunk
        verify = "--verify" in self.flags
        keys = ("roots", "cardano_roots") if verify else ("roots",)
        failed = malformed = k = 0
        for line in lines:
            try:
                rec = json.loads(line)
                j = inputs.index(rec["input"], k)
                roots = [rec[key] for key in keys]
                shape = all(len(zs) == 3 for zs in roots) and (not verify or isinstance(rec["verification"]["pass"], bool))
                finite = _finite(v for zs in roots for z in zs for v in (z["re"], z["im"]))
            except (ValueError, KeyError, TypeError):
                malformed += 1
                continue
            failed += j - k
            k = j + 1
            if not shape:
                malformed += 1
            elif not finite:
                failed += 1
        return len(inputs), failed + len(inputs) - k, malformed


def _percentile(values: list, q: float) -> float:
    """Nearest-rank percentile of sorted values."""
    return values[min(len(values) - 1, max(0, math.ceil(q * len(values)) - 1))] if values else 0.0


def timed(runner, seconds, mark=None, stop=None, hide=None) -> dict:
    """Chunks of fresh streams until ``seconds`` have passed (or ``stop`` says so).

    See the module docstring for how the probed times become ops_per_s and
    the latency percentiles. When no op ran at steady speed, the
    percentiles are taken over every op.
    """
    counts = {"attempted": 0, "failed": 0, "malformed": 0}
    samples, is_steady, n = array("d", bytes(8 * SAMPLE_CAP)), bytearray(SAMPLE_CAP), 0
    total_us, steady_ops = 0.0, 0
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    chunks = []
    while time.perf_counter_ns() < deadline and not (stop and stop()):
        if not chunks:
            chunks = runner.load()
        chunk = chunks.pop(0)
        gaps, probes = [], []
        outcome = runner.run_chunk(chunk, mark, hide, gaps, probes)
        for name, value in zip(("attempted", "failed", "malformed"), runner.score(chunk, outcome)):
            counts[name] += value
        for gap, before, after in zip(gaps, probes, probes[1:]):
            us = gap * 2 * PROBE_REF_NS / (before + after) / 1e3
            steady = runner.steady is None or abs(after - before) <= runner.steady * max(before, after)
            samples[n % SAMPLE_CAP], is_steady[n % SAMPLE_CAP] = us, steady
            n += 1
            total_us += us
            steady_ops += steady
    kept = range(min(n, SAMPLE_CAP))
    per_op = sorted(samples[i] for i in kept if is_steady[i]) or sorted(samples[i] for i in kept)
    completed = 1 - (counts["failed"] + counts["malformed"]) / max(1, counts["attempted"])
    counts["ops_per_s"] = completed * n / (total_us / 1e6) if total_us else 0.0
    counts["latency_us_p50"] = _percentile(per_op, 0.50)
    counts["latency_us_p99"] = _percentile(per_op, 0.99)
    counts["latency_samples"] = len(per_op)
    counts["steady_share"] = steady_ops / max(1, n)
    return counts


def main(spec_path: str, out_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import rscubic

    workload, seed, size = spec["workload"], spec["seed"], spec["size"]
    if workload.startswith("batch"):
        runner = Batch(workload, seed, size, Path(spec["work_dir"]))
    else:
        runner = Lib(rscubic, workload, seed, size)
    report = {"check": runner.check()}

    seconds = spec["seconds"]
    if not spec["trace"]:
        report["timed"] = timed(runner, seconds)
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        from spans import Tracer

        untraced = timed(runner, seconds / 2)
        tracer = Tracer(SPAN_CAP)
        tracer.install(rscubic)
        traced = timed(runner, seconds / 2, tracer.mark, tracer.full, tracer.hide)
        layers = tracer.metrics(traced["attempted"])
        layers["trace.overhead_frac"] = 1 - traced["ops_per_s"] / untraced["ops_per_s"]
        tracer.dump(Path(spec["spans_path"]))
        report["timed"] = traced
        report["untraced"] = untraced
        report["layers"] = layers
    Path(out_path).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], sys.argv[2]))
