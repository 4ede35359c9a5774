"""Span recorder for the traced run, wrapped around friendlyfec from outside.

`SpanRecorder.install` replaces every public function of the package's
modules, and every public method (plus a hand-written `__init__`) of the
classes they define, with a wrapper that records one span per call: name,
start, end and parent span. The program's source is not edited; callers
inside the package see the wrappers because they look functions up through
module attributes and instances at call time. `uninstall` puts the
originals back.

Computed kernel counts are taken from the arrays `bp_forward` returns. The
time spent computing them is kept off the span clock, so it shows in the
tracing overhead but not in any layer's time.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import time
from collections import defaultdict

import numpy as np

import reference

MODULES = ("gf2", "codes", "modem", "channel", "bp", "attack", "montecarlo")

# layers whose call count, total time and self time are reported
TIMED_SPANS = (
    "channel.FrameRng.frame",
    "channel.transmit",
    "bp.bp_forward.early_stop",
    "bp.bp_forward.taped",
    "bp.bp_forward.untaped",
    "bp.bp_backward",
    "bp.TannerGraph.syndrome_ok",
    "bp.TannerGraph.init",
    "attack.search_attack",
    "attack.normalize_power",
    "attack.apply_attack",
    "attack.cluster_attacks",
    "attack.select_best",
    "montecarlo.sweep",
    "montecarlo.run_point",
    "montecarlo.transfer_check",
    "gf2.encode",
    "codes.CodeSpec.message_from_codeword",
    "modem.modulate",
    "modem.demodulate_llr",
    "modem.demodulate_adjoint",
)

# (name, unit) of every per-layer metric, in report order
PER_LAYER = tuple(
    [(f"{span}.{kind}", unit) for span in TIMED_SPANS
     for kind, unit in (("calls", "count"), ("ms", "ms"), ("self_ms", "ms"))]
    + [("bp.lanes", "count"),
       ("bp.edge_updates", "count"),
       ("bp.edge_updates_per_s", "1/s"),
       ("bp.tape_mb", "MB"),
       ("bp.early_stop.useful_ratio", "ratio"),
       ("attack.accept_ratio", "ratio"),
       ("trace.overhead_pct", "%")])


class SpanRecorder:
    """Keeps spans in memory as [name, parent, start_ns, end_ns] rows."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._hidden_ns = 0          # tracer bookkeeping, kept off the span clock
        self._restore: list[tuple] = []
        self.kernel = defaultdict(int)
        self.tape_bytes_max = 0

    def _now(self) -> int:
        return time.perf_counter_ns() - self._hidden_ns

    def _wrap(self, fn, name, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            sid = len(self.spans)
            parent = self._open[-1] if self._open else -1
            row = [span_name, parent, self._now(), 0]
            self.spans.append(row)
            self._open.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                row[3] = self._now()
                self._open.pop()
            if observe is not None:
                start = time.perf_counter_ns()
                observe(args, kwargs, result)
                self._hidden_ns += time.perf_counter_ns() - start
            return result

        return traced

    def install(self, package) -> None:
        """Wrap the public functions and methods of the package's modules."""
        for short in MODULES:
            module = getattr(package, short)
            source = inspect.getfile(module)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    self._patch(module, attr, self._wrap_function(obj, f"{short}.{attr}"))
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        hand_init = (meth == "__init__" and inspect.isfunction(fn)
                                     and fn.__code__.co_filename == source)
                        if inspect.isfunction(fn) and (not meth.startswith("_") or hand_init):
                            label = f"{short}.{attr}.{meth.strip('_')}"
                            self._patch(obj, meth, self._wrap(fn, label))

    def _wrap_function(self, fn, label):
        if label != "bp.bp_forward":
            return self._wrap(fn, label)
        signature = inspect.signature(fn)

        def variant(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            if bound.arguments["early_stop"]:
                return "bp.bp_forward.early_stop"
            return "bp.bp_forward.taped" if bound.arguments["record_tape"] else "bp.bp_forward.untaped"

        def observe(args, kwargs, out):
            bound = signature.bind(*args, **kwargs)
            graph = bound.arguments["graph"]
            soft = out.soft if out.soft.ndim == 3 else out.soft[:, None, :]
            lanes = soft.shape[1]
            self.kernel["lanes"] += lanes
            self.kernel["edge_updates"] += lanes * out.iterations * graph.n_edges
            if out.tape is not None:
                tape = out.tape
                size = tape.input_llr.nbytes + sum(
                    a.nbytes for a in tape.v2c_pre + tape.c2v_pre + tape.soft)
                self.tape_bytes_max = max(self.tape_bytes_max, size)
            if bound.arguments.get("early_stop"):
                ok = reference.syndrome_ok(soft < 0, graph.H)          # (iterations, lanes)
                first = np.where(ok.any(axis=0), ok.argmax(axis=0) + 1, out.iterations)
                self.kernel["lane_iters_needed"] += int(first.sum())
                self.kernel["lane_iters_computed"] += lanes * out.iterations

        return self._wrap(fn, variant, observe)

    def _patch(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total ms and self ms (total minus direct children)."""
        child_ns = defaultdict(int)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: dict(calls=0, ms=0.0, self_ms=0.0))
        for sid, (name, _, start, end) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["ms"] += (end - start) / 1e6
            entry["self_ms"] += (end - start - child_ns[sid]) / 1e6
        return out

    def per_layer(self, rounds: int, accept_ratio: float, overhead_pct: float) -> dict[str, float]:
        """Every per-layer metric, as a mean over `rounds` identical traced rounds."""
        times = self.layer_times()
        metrics = {}
        for span in TIMED_SPANS:
            entry = times.get(span, dict(calls=0, ms=0.0, self_ms=0.0))
            for kind in ("calls", "ms", "self_ms"):
                metrics[f"{span}.{kind}"] = entry[kind] / rounds
        forward_self_s = sum(times[s]["self_ms"] for s in times if s.startswith("bp.bp_forward.")) / 1e3
        k = self.kernel
        metrics["bp.lanes"] = k["lanes"] / rounds
        metrics["bp.edge_updates"] = k["edge_updates"] / rounds
        metrics["bp.edge_updates_per_s"] = k["edge_updates"] / forward_self_s if forward_self_s else 0.0
        metrics["bp.tape_mb"] = self.tape_bytes_max / 2**20
        computed = k["lane_iters_computed"]
        metrics["bp.early_stop.useful_ratio"] = k["lane_iters_needed"] / computed if computed else 0.0
        metrics["attack.accept_ratio"] = accept_ratio
        metrics["trace.overhead_pct"] = overhead_pct
        return metrics

    def write(self, path, meta: dict) -> None:
        """Write the spans, one [id, parent, name, start_ns, end_ns] row each, with `meta`."""
        rows = [[sid, parent, name, start, end]
                for sid, (name, parent, start, end) in enumerate(self.spans)]
        with gzip.open(path, "wt") as fh:
            json.dump(dict(meta, spans=rows), fh)
