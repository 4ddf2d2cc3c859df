"""Span tracing around calls into volforce's public functions.

The tracer wraps module-level functions and methods of the package from
outside (nothing under ``src/`` knows it exists) and records one span per
call: name, start, end, parent span and the group (one training step,
one request, one set-up or one evaluation pass) the span belongs to.
Backward closures of tensors returned by the convolution ops are wrapped
too, so their time shows as its own span inside ``tensor.backward``.

Spans are kept in memory and written once, at the end of a traced run.
"""

from __future__ import annotations

import functools
import json
import math
import os
import statistics
from collections import defaultdict
from time import perf_counter

from volforce import architectures, metrics, ops, phantom, recurrent, reps, training
from volforce import tensor as T

# (module or class, attribute, span name): the layer boundaries that get a span.
BOUNDARIES = (
    (ops, "batch_norm", "ops.batch_norm"),
    (recurrent.RecurrentBatchNorm, "__call__", "recurrent.RecurrentBatchNorm"),
    (recurrent, "unroll", "recurrent.unroll"),
    # architectures imported ``unroll`` by name; patch that binding as well
    (architectures, "unroll", "recurrent.unroll"),
    (T, "backward", "tensor.backward"),
    (architectures.Network, "forward", "architectures.Network.forward"),
    (architectures, "build", "architectures.build"),
    (architectures, "load_checkpoint", "architectures.load_checkpoint"),
    (training.Adam, "step", "training.Adam.step"),
    (training.Ema, "update", "training.Ema.update"),
    (training, "predict", "training.predict"),
    (reps.WindowedData, "gather", "reps.WindowedData.gather"),
    (reps, "windowed_splits", "reps.windowed_splits"),
    (phantom, "load_dataset", "phantom.load_dataset"),
    (metrics, "evaluate", "metrics.evaluate"),
    (metrics, "wilcoxon_signed_rank", "metrics.wilcoxon_signed_rank"),
)


class Tracer:
    """In-memory span recorder; spans are lists [name, start, end, parent, group]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.group = ""
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.group])
        sid = len(self.spans) - 1
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = perf_counter()
        self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counters[self.group][name] += value

    def timed(self, name: str, fn):
        """``fn`` wrapped so that each call records a span called ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)

        return wrapper

    def dump(self, path: str, header: dict) -> None:
        spans = [{"id": i, "name": s[0], "start": s[1], "end": s[2],
                  "parent": s[3], "group": s[4]} for i, s in enumerate(self.spans)]
        counters = {g: dict(c) for g, c in self.counters.items()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(header, spans=spans, counters=counters), fh)


# -- instrumentation ------------------------------------------------------------------


def conv_cost(x, K, out, backward: bool) -> tuple[float, float]:
    """(FLOPs, bytes) of one conv_spatial pass, computed from shapes.

    Forward: one multiply-add per (output element, kernel offset, input
    channel); bytes read x and K and write the output.  Backward: the dK
    and dx GEMMs each cost as much as the forward, for whichever operand
    needs a gradient, reading the incoming gradient and writing dK / dx.
    """
    macs = out.size * math.prod(K.shape[:-1])
    item = out.data.itemsize
    if not backward:
        return 2.0 * macs, float(item * (x.size + K.size + out.size))
    flops = 2.0 * macs * (K.requires_grad + x.requires_grad)
    nbytes = item * (out.size + K.requires_grad * (x.size + K.size)
                     + x.requires_grad * (K.size + x.size))
    return flops, float(nbytes)


def _created_nodes(out, inputs):
    """Graph nodes reachable from ``out`` without passing through ``inputs``."""
    stop = {id(t) for t in inputs}
    seen, stack, nodes = set(), [out], []
    while stack:
        node = stack.pop()
        if id(node) in seen or id(node) in stop:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node._parents)
    return nodes


def graph_nodes(root) -> int:
    """Exact number of distinct tensors reachable from ``root`` through parents."""
    return len(_created_nodes(root, ()))


class instrument:
    """Context manager: route the layer boundaries through ``tracer``, restore on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.saved: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr, replacement) -> None:
        self.saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def __enter__(self):
        tr = self.tracer
        for owner, attr, name in BOUNDARIES:
            self._patch(owner, attr, tr.timed(name, getattr(owner, attr)))
        conv_spatial = tr.timed("ops.conv_spatial", ops.conv_spatial)
        conv_st = tr.timed("ops.conv_st", ops.conv_st)

        def traced_conv_spatial(x, K, stride=1):
            out = conv_spatial(x, K, stride)
            flops, nbytes = conv_cost(x, K, out, backward=False)
            tr.count("ops.conv_spatial.flops", flops)
            tr.count("ops.conv_spatial.bytes", nbytes)
            if out._backward is not None:
                inner = tr.timed("ops.conv_spatial.bwd", out._backward)
                bflops, bbytes = conv_cost(x, K, out, backward=True)

                def backward_fn(g):
                    inner(g)
                    tr.count("ops.conv_spatial.flops", bflops)
                    tr.count("ops.conv_spatial.bytes", bbytes)

                out._backward = backward_fn
            return out

        def traced_conv_st(x, K, stride=1):
            out = conv_st(x, K, stride)
            # every backward closure the composition created, inner convs included
            for node in _created_nodes(out, (x, K)):
                if node._backward is not None:
                    node._backward = tr.timed("ops.conv_st.bwd", node._backward)
            return out

        write = tr.timed("phantom.write_dataset_streamed", phantom.write_dataset_streamed)

        def traced_write(path, *args, **kwargs):
            sizes = write(path, *args, **kwargs)
            tr.count("phantom.write_dataset_streamed.bytes", os.path.getsize(path))
            return sizes

        self._patch(ops, "conv_spatial", traced_conv_spatial)
        self._patch(ops, "conv_st", traced_conv_st)
        self._patch(phantom, "write_dataset_streamed", traced_write)
        return tr

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()
        return False


# -- reduction to per-layer metrics -----------------------------------------------------


# metric name -> (unit, span name, statistic, scale); statistic is "calls",
# "total" (inclusive time) or "self" (time minus child spans)
STEP_METRICS = {
    "ops.conv_spatial.calls": ("calls/step", "ops.conv_spatial", "calls", 1),
    "ops.conv_spatial.fwd_ms": ("ms/step", "ops.conv_spatial", "total", 1e3),
    "ops.conv_spatial.bwd_ms": ("ms/step", "ops.conv_spatial.bwd", "total", 1e3),
    "ops.conv_st.calls": ("calls/step", "ops.conv_st", "calls", 1),
    "ops.conv_st.self_fwd_ms": ("ms/step", "ops.conv_st", "self", 1e3),
    "ops.conv_st.bwd_ms": ("ms/step", "ops.conv_st.bwd", "total", 1e3),
    "ops.conv_st.self_bwd_ms": ("ms/step", "ops.conv_st.bwd", "self", 1e3),
    "ops.batch_norm.calls": ("calls/step", "ops.batch_norm", "calls", 1),
    "ops.batch_norm.ms": ("ms/step", "ops.batch_norm", "total", 1e3),
    "recurrent.RecurrentBatchNorm.calls": ("calls/step", "recurrent.RecurrentBatchNorm",
                                           "calls", 1),
    "recurrent.RecurrentBatchNorm.ms": ("ms/step", "recurrent.RecurrentBatchNorm",
                                        "total", 1e3),
    "recurrent.unroll.self_ms": ("ms/step", "recurrent.unroll", "self", 1e3),
    "tensor.backward.ms": ("ms/step", "tensor.backward", "total", 1e3),
    "tensor.backward.self_ms": ("ms/step", "tensor.backward", "self", 1e3),
    "architectures.Network.forward.ms": ("ms/step", "architectures.Network.forward",
                                         "total", 1e3),
    "training.Adam.step.ms": ("ms/step", "training.Adam.step", "total", 1e3),
    "training.Ema.update.ms": ("ms/step", "training.Ema.update", "total", 1e3),
    "reps.WindowedData.gather.ms": ("ms/step", "reps.WindowedData.gather", "total", 1e3),
}
STEP_COUNTERS = {
    "ops.conv_spatial.flops": "flop/step",
    "ops.conv_spatial.bytes": "B/step",
    "tensor.graph_nodes": "nodes/step",
}
SETUP_METRICS = {
    "architectures.build.s": ("s", "architectures.build", "total", 1),
    "architectures.load_checkpoint.ms": ("ms", "architectures.load_checkpoint", "total", 1e3),
    "reps.windowed_splits.s": ("s", "reps.windowed_splits", "total", 1),
    "phantom.write_dataset_streamed.s": ("s", "phantom.write_dataset_streamed", "total", 1),
    "phantom.load_dataset.s": ("s", "phantom.load_dataset", "total", 1),
}
SETUP_COUNTERS = {"phantom.write_dataset_streamed.bytes": "B"}
PASS_METRICS = {
    "training.predict.s": ("s", "training.predict", "total", 1),
    "metrics.evaluate.ms": ("ms", "metrics.evaluate", "total", 1e3),
    "metrics.wilcoxon_signed_rank.ms": ("ms", "metrics.wilcoxon_signed_rank", "total", 1e3),
}
SUMMARY_UNITS = {
    "trace.step_ms.p50": "ms",
    "trace.overhead_pct": "%",
    "trace.coverage_pct": "%",
}


def per_layer_units() -> dict[str, str]:
    units = {name: spec[0] for table in (STEP_METRICS, SETUP_METRICS, PASS_METRICS)
             for name, spec in table.items()}
    units.update(STEP_COUNTERS)
    units.update(SETUP_COUNTERS)
    units.update(SUMMARY_UNITS)
    return units


def _group_stats(tracer: Tracer) -> dict[str, dict[str, dict[str, float]]]:
    """group -> span name -> {"calls", "total", "self"} in seconds."""
    child_time = defaultdict(float)
    for name, start, end, parent, group in tracer.spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict = defaultdict(lambda: defaultdict(lambda: {"calls": 0, "total": 0.0,
                                                           "self": 0.0}))
    for sid, (name, start, end, parent, group) in enumerate(tracer.spans):
        entry = stats[group][name]
        entry["calls"] += 1
        entry["total"] += end - start
        entry["self"] += end - start - child_time[sid]
    return stats


def _reduce(stats, counters, groups, table, counter_units, combine) -> dict[str, float]:
    out = {}
    for metric, (_, span, stat, scale) in table.items():
        values = [stats[g][span][stat] * scale if span in stats[g] else 0.0 for g in groups]
        out[metric] = combine(values) if values else 0.0
    for metric in counter_units:
        values = [counters[g][metric] if g in counters else 0.0 for g in groups]
        out[metric] = combine(values) if values else 0.0
    return out


def per_layer_metrics(tracer: Tracer, untraced_step_s: list[float]) -> dict[str, float]:
    """Per-step means over measured steps, medians over set-ups, means over passes."""
    stats = _group_stats(tracer)
    steps = [g for g in stats if g.startswith("step-")]
    setups = [g for g in stats if g.startswith("setup-")]
    passes = [g for g in stats if g.startswith("pass-")]
    values = _reduce(stats, tracer.counters, steps, STEP_METRICS, STEP_COUNTERS,
                     statistics.fmean)
    values.update(_reduce(stats, tracer.counters, setups, SETUP_METRICS, SETUP_COUNTERS,
                          statistics.median))
    values.update(_reduce(stats, tracer.counters, passes, PASS_METRICS, {},
                          statistics.fmean))
    step_s = [stats[g]["step"]["total"] for g in steps]
    root_self = [stats[g]["step"]["self"] for g in steps]
    traced_p50 = statistics.median(step_s)
    values["trace.step_ms.p50"] = traced_p50 * 1e3
    values["trace.overhead_pct"] = (traced_p50 / statistics.median(untraced_step_s) - 1) * 100
    values["trace.coverage_pct"] = 100 * statistics.fmean(
        1 - r / s for r, s in zip(root_self, step_s))
    return values
