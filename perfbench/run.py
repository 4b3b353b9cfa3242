"""rscubic benchmark: run one workload on one seed and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see corpus.py for how each corpus is mixed and why):

    batch_plain        rscubic solve --batch FILE --format json
    batch_both_verify  the same with --method both --verify
    lib_float_wide     library solve on float cubics, roots over 1e-8 .. 1e8
    lib_exact          library solve on exact inputs, plus denest calls

A run builds the seeded corpus, loads or computes its mpmath reference
(outside every timed region, cached under .perfbench_cache/), times the
workload's set-up in fresh interpreters, runs the workload in a worker
process (worker.py), which runs the checked corpus once and then times
fresh inputs of the same seed for S seconds in a closed loop with one
caller, checks every output of the checked corpus (check.py), and prints
one JSON line as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

End-to-end metrics (--trace 0); the worker's times are scaled to a
reference machine speed (see worker.py), set-up times to a yardstick
interpreter (see _YARDSTICK):

    setup_s         median over fresh interpreters of the entry point
                    solving x^3 - 12x + 16 (the CLI, or import + solve),
                    each timed against a yardstick interpreter
    ops_per_s       completed ops per second: timed ops, less the failed
                    share, over the sum of their latencies
    latency_us_p50, latency_us_p99   percentiles of the per-call latencies
                    (for the CLI, the gaps between output lines) of the
                    calls timed at a steady speed
    ok_frac         share of checked ops that did not fail (1 - error_frac)
    right_frac      share of checked ops not answered wrongly (1 - wrong_frac)
    digits_mean     mean correct digits of the judged roots
    peak_rss_mb     peak RSS of the worker process

The failure and wrong-answer shares are printed as complements because a
bound is a share of the metric's median, which must never be 0. With
--trace 1 a separate traced run prints the per-layer metrics (spans.py;
their times are not scaled) and error_frac, wrong_frac, digits_p01 and
verify.pass_on_wrong_frac.

``attempted`` and ``failed`` count the timed ops; a timed op fails when it
raises, emits no line or emits a non-finite root. ``correct`` is false
when a timed output is malformed (not the result's shape, or a batch line
echoing no input of its file), when an exact value or the case tag of an
exact input of the checked corpus is wrong, or when the set-up run prints
wrong roots. Forward-error misses are measured (right_frac, digits_mean),
not gated, because the float path has known accuracy defects; so are
failures of the untimed probes.

It needs Python 3.10+ and mpmath; the program is imported from src/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import corpus
import reference

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
CACHE = ROOT / ".perfbench_cache"
SETUP_SPAWNS = 15
# Fresh interpreters time differently from in-process work and swing by
# half from one second to the next on shared machines, so each spawn of
# the entry point is timed against the mean of a yardstick spawned just
# before and just after it: an interpreter importing the standard-library
# modules rscubic imports, and nothing of rscubic. setup_s is the median of
# those ratios times YARDSTICK_S, about the yardstick's own time on a
# 2-vCPU cloud sandbox.
_YARDSTICK = ["-c", "import argparse, cmath, dataclasses, enum, fractions, itertools, json, math, re, typing"]
YARDSTICK_S = 0.1

# Fresh-interpreter entry points whose wall time is setup_s, with the text
# each must print.
_SETUP = {
    "cli": (["-m", "rscubic.cli", "solve", "--p", "-12", "--q", "16"], "x[0] = -4   (exact: -4)"),
    "lib": (
        ["-c", "import rscubic; print(rscubic.solve(rscubic.GeneralCubic(0, -12, 16)).roots)"],
        "((-4+0j), (2+0j), (2+0j))",
    ),
}

# Units of every metric, as BENCHMARK.json declares them.
_UNITS = {
    m["name"]: m["unit"]
    for kind in ("end_to_end", "per_layer")
    for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def _spawn(argv) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=60)
    return time.perf_counter() - t0, proc


def measure_setup(workload: str, spawns: int) -> tuple[float, bool]:
    """setup_s (see _YARDSTICK) of a fresh interpreter solving x^3 - 12x + 16,
    and whether every spawn printed the right roots."""
    argv, expect = _SETUP["cli" if workload.startswith("batch") else "lib"]
    _spawn(argv)  # the first spawns only warm the file cache
    before, _ = _spawn(_YARDSTICK)
    ratios, right = [], True
    for _ in range(spawns):
        elapsed, proc = _spawn(argv)
        after, _ = _spawn(_YARDSTICK)
        right = right and proc.returncode == 0 and expect in proc.stdout
        ratios.append(elapsed / ((before + after) / 2))
        before = after
    return YARDSTICK_S * statistics.median(ratios), right


def run_worker(workload: str, seed: int, size, seconds: float, trace: bool) -> dict:
    work_dir = CACHE / f"run-{workload}-{os.getpid()}"
    work_dir.mkdir()
    spec_path, out_path = work_dir / "spec.json", work_dir / "out.json"
    spec = {
        "workload": workload, "seed": seed, "size": size, "seconds": seconds, "trace": trace,
        "work_dir": str(work_dir), "spans_path": str(CACHE / f"spans-{workload}.tsv"),
    }
    spec_path.write_text(json.dumps(spec))
    try:
        subprocess.run(
            [sys.executable, str(PERF / "worker.py"), str(spec_path), str(out_path)],
            cwd=ROOT, env=_env(), check=True, timeout=2 * seconds + 150,
        )
        return json.loads(out_path.read_text())
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _batch_outputs(items, lines) -> list:
    """Match emitted JSON lines to corpus lines by their echoed input; None for a missing line."""
    outputs, k = [], 0
    records = []
    for line in lines:
        try:
            records.append(json.loads(line))
        except ValueError:
            records.append({"error": "not JSON", "input": None})
    for it in items:
        if k < len(records) and records[k].get("input") == it.args.strip():
            outputs.append(records[k])
            k += 1
        else:
            outputs.append(None)
    return outputs


def run(workload: str, seed: int, seconds: float, trace: bool, size=None, spawns: int = SETUP_SPAWNS) -> dict:
    """One benchmark run; returns the result object that main prints."""
    CACHE.mkdir(exist_ok=True)
    items = corpus.generate(workload, seed, size)
    items = [it for it in items if not it.probe] + [it for it in items if it.probe]
    refs = reference.load(workload, seed, items, CACHE)
    setup_s, setup_right = (None, True) if trace else measure_setup(workload, spawns)
    report = run_worker(workload, seed, size, seconds, trace)

    if workload.startswith("batch"):
        outputs = _batch_outputs(items, report["check"]["lines"])
    else:
        outputs = report["check"]["outputs"]
    scores = check.score_all(items, refs, outputs)
    accuracy = check.summarize(scores)
    timed = report["timed"]
    attempted, failed, malformed = timed["attempted"], timed["failed"], timed["malformed"]
    if trace:
        attempted += report["untraced"]["attempted"]
        failed += report["untraced"]["failed"]
        malformed += report["untraced"]["malformed"]
    print(
        f"{workload} seed {seed}: {attempted} ops timed, {timed['latency_samples']} latency samples,"
        f" {timed['steady_share']:.0%} of ops at steady speed",
        file=sys.stderr,
    )
    exactness_ok = not any(s.wrong_exact or s.wrong_case for it, s in zip(items, scores) if not it.probe)

    if trace:
        values = dict(report["layers"])
        for name in ("error_frac", "wrong_frac", "digits_p01", "verify.pass_on_wrong_frac"):
            values[name] = accuracy[name]
    else:
        values = {
            "setup_s": setup_s,
            "ops_per_s": timed["ops_per_s"],
            "latency_us_p50": timed["latency_us_p50"],
            "latency_us_p99": timed["latency_us_p99"],
            "ok_frac": accuracy["ok_frac"],
            "right_frac": accuracy["right_frac"],
            "digits_mean": accuracy["digits_mean"],
            "peak_rss_mb": report["peak_rss_mb"],
        }
    return {
        "correct": malformed == 0 and exactness_ok and setup_right,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": _UNITS[name]} for name, value in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rscubic benchmark (one workload, one seed)")
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rscubic" / "__init__.py").is_file():
        print(f"error: no rscubic sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
