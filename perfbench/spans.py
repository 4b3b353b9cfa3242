"""Span tracing of rscubic's layers, installed from outside the package.

``Tracer.install`` replaces every public function of each rscubic module
in the namespace of every module that imported it (``rscubic.cli.parse_cubic``,
``rscubic.chen.compute_rs``, ``rscubic.decompose.classify``, ...) with a
wrapper that records one span: function, start, end, parent span and a
small tag about the call. The time spent computing a tag, after the span
ends, is taken off the parent's self time, and so is harness work the
caller reports through ``hide``, so only the program's own work lands in
a layer. Spans stay in memory and are written out when the run ends. A
layer is a module of ``src/rscubic``; its self time is the time of its
spans minus the time of their child spans, and a call into a layer is a
span whose parent belongs to another layer (or to no span).
"""

from __future__ import annotations

import bisect
import functools
import importlib
import time
import types
from array import array
from pathlib import Path

LAYERS = ("parsing", "reduction", "decompose", "chen", "cardano", "verify", "denest", "numerics", "cli")
CASES = ("equal", "real_distinct", "conjugate_pair", "degenerate_p0", "degenerate_q0")
# Single functions whose call counts tell whether a stage runs once per op.
STAGES = ("decompose.compute_rs", "chen.solve_depressed", "cardano.cardano_solve")

RAISED = -1  # tag of a span that ended in an exception


def _input_exact(args, result) -> int:
    """Tag of a decompose call: 2 when its DepressedCubic is exact, else 1."""
    return 2 if args and getattr(args[0], "exact", False) else 1


def _rs_tag(args, result) -> int:
    """compute_rs: input exactness, exact r/s returned, and the case tag."""
    case = CASES.index(result.case.value)
    return _input_exact(args, result) + 2 * (result.exact_r is not None) + 4 * case


def _exact_result(args, result) -> int:
    return 2 if result.exact is not None else 1


def _denest_tag(args, result) -> int:
    return 1 + (result.exact is not None) + 2 * (result.note == "search exhausted")


_TAGGERS = {
    "decompose.compute_rs": _rs_tag,
    "decompose.classify": _input_exact,
    "decompose.discriminant": _input_exact,
    "decompose.rs_quadratic": _input_exact,
    "chen.solve_depressed": _exact_result,
    "denest.denest": _denest_tag,
}


class Tracer:
    """Span recorder; ``mark`` starts a new op, ``full`` says the span cap is hit."""

    def __init__(self, cap: int):
        self.cap = cap
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.tag = array("b")
        self.marks = array("i")
        self.hidden: dict[int, int] = {}  # span -> ns of tagging and harness work inside it
        self._stack = [-1]

    def install(self, package) -> None:
        wrappers = {}
        modules = [package] + [importlib.import_module(f"{package.__name__}.{m}") for m in LAYERS]
        for module in modules:
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                layer = obj.__module__.rpartition(".")[2]
                if layer not in LAYERS:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, layer)
                setattr(module, name, wrappers[obj])

    def _wrap(self, fn, layer: str):
        fid = len(self.names)
        name = f"{layer}.{fn.__name__}"
        self.names.append(name)
        self.layer_of.append(LAYERS.index(layer))
        fids, parents, starts, ends, tags, stack = self.fid, self.parent, self.start, self.end, self.tag, self._stack
        hidden = self.hidden
        tagger = _TAGGERS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            tags.append(0)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[i] = clock()
                tags[i] = RAISED
                stack.pop()
                raise
            ends[i] = clock()
            stack.pop()
            if tagger is not None:
                tags[i] = tagger(args, result)
                p = stack[-1]
                if p >= 0:
                    hidden[p] = hidden.get(p, 0) + clock() - ends[i]
            return result

        return wrapper

    def mark(self) -> None:
        self.marks.append(len(self.fid))

    def hide(self, ns: int) -> None:
        """Take ``ns`` of harness work done inside the open span off its self time."""
        p = self._stack[-1]
        if p >= 0:
            self.hidden[p] = self.hidden.get(p, 0) + ns

    def full(self) -> bool:
        return len(self.fid) >= self.cap

    def dump(self, path: Path) -> None:
        """Write the spans as TSV: index, parent, function, start_ns, end_ns, tag."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tparent\tfunction\tstart_ns\tend_ns\ttag\n")
            for i, (f, p, s, e, t) in enumerate(zip(self.fid, self.parent, self.start, self.end, self.tag)):
                fh.write(f"{i}\t{p}\t{self.names[f]}\t{s}\t{e}\t{t}\n")

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-layer metrics over ``ops`` operations (see BENCHMARK.json)."""
        n = len(self.fid)
        layer = [self.layer_of[f] for f in self.fid]
        child = [0] * n
        for i, ns in self.hidden.items():
            child[i] += ns
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        nl = len(LAYERS)
        calls, raised, self_ns = [0] * nl, [0] * nl, [0] * nl
        case_ns, case_ops = [0] * len(CASES), [0] * len(CASES)
        dec_ns = {1: 0, 2: 0}
        by_name = {name: [0, 0, 0] for name in ("decompose.compute_rs", "chen.solve_depressed", "denest.denest")}
        stage_calls = dict.fromkeys(STAGES, 0)
        chen_i, dec_i = LAYERS.index("chen"), LAYERS.index("decompose")
        op_chen, op_case, op_k = 0, None, -1

        def close_op():
            if op_case is not None:
                case_ns[op_case] += op_chen
                case_ops[op_case] += 1

        for i in range(n):
            k = bisect.bisect_right(self.marks, i) - 1
            if k != op_k:
                close_op()
                op_chen, op_case, op_k = 0, None, k
            lay, tag, name = layer[i], self.tag[i], self.names[self.fid[i]]
            p = self.parent[i]
            own = self.end[i] - self.start[i] - child[i]
            self_ns[lay] += own
            if p < 0 or layer[p] != lay:
                calls[lay] += 1
                raised[lay] += tag == RAISED
            if lay == chen_i:
                op_chen += own
            elif lay == dec_i and tag > 0:
                dec_ns[2 if (tag - 1) & 1 else 1] += own
            if name in stage_calls:
                stage_calls[name] += 1
            if name in by_name and tag > 0:
                counts = by_name[name]
                counts[0] += 1
                if name == "decompose.compute_rs":
                    counts[1] += bool((tag - 1) & 2)
                    if op_case is None:
                        op_case = (tag - 1) >> 2
                else:
                    counts[1] += bool((tag - 1) & 1)
                    counts[2] += bool((tag - 1) & 2)
        close_op()

        ops = max(ops, 1)
        out = {}
        for j, lay in enumerate(LAYERS):
            out[f"{lay}.calls_per_op"] = calls[j] / ops
            out[f"{lay}.self_us_per_op"] = self_ns[j] / ops / 1e3
            out[f"{lay}.raised_per_op"] = raised[j] / ops
        for j, case in enumerate(CASES):
            out[f"chen.self_us.{case}"] = case_ns[j] / case_ops[j] / 1e3 if case_ops[j] else 0.0
        out["decompose.self_us.exact"] = dec_ns[2] / ops / 1e3
        out["decompose.self_us.float"] = dec_ns[1] / ops / 1e3

        def frac(name, slot):
            total = by_name[name][0]
            return by_name[name][slot] / total if total else 0.0

        out["decompose.exact_rs_frac"] = frac("decompose.compute_rs", 1)
        out["chen.exact_result_frac"] = frac("chen.solve_depressed", 1)
        out["denest.exact_found_frac"] = frac("denest.denest", 1)
        out["denest.exhausted_frac"] = frac("denest.denest", 2)
        for name in STAGES:
            out[f"{name}.calls_per_op"] = stage_calls[name] / ops
        return out
