"""The benchmark's workloads: set-up, closed-loop measurement and output checks.

Every workload runs at desk scale on synthetic phantom data: 16x16
lateral, 128 raw depth voxels resampled to 16, the ``4d-st``
representation, history 6, horizon 0.  One client drives the package
through its public functions in a closed loop: each training step or
request starts only after the previous one has finished.
"""

from __future__ import annotations

import itertools
import math
import os
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from volforce import architectures as A
from volforce import metrics, ops, phantom, reps, training
from volforce import tensor as T
from volforce.phantom import SimConfig, TrajectoryConfig
from volforce.recurrent import RecurrentBatchNorm
from volforce.tensor import Tensor

import tracing

# name -> (kind, architecture, parameter of the layer checked against the oracle)
WORKLOADS = {
    "train-convgru3d": ("train", "convgru-resnet3d", "cell.u_z"),
    "train-resnet4d": ("train", "resnet4d", "block1.conv1.weight"),
    "infer-stream": ("infer", "convgru-resnet3d", "cell.u_z"),
}
REPRESENTATION, HISTORY, HORIZON, D_OUT = "4d-st", 6, 0, 16
# 4 experiments split 3 train / 1 test; 69 samples each give 192 train
# windows (24 batches of 8) and 64 test windows (one batch of 64).
N_EXPERIMENTS, SAMPLES_PER_EXPERIMENT = 4, 69
TRAIN_BATCH, EVAL_BATCH, CALIBRATION_BATCH = 8, 64, 4
LEARNING_RATE = 2.5e-4
SETUP_REPEATS = 5
# p95 needs at least ten requests beyond it
MIN_REQUESTS = 200
MIN_PASSES = 3
REQUEST_SHARE = 0.5  # of the run's seconds; the rest goes to evaluation passes
# a traced run replays this share of the untraced run's ops (at least one)
REPLAY_SHARE = 0.25
# conv_nd_reference sums in float64; the float32 fast path must agree within
# this share of the largest reference magnitude
ORACLE_RTOL = 1e-4
# spatial extent of the cropped oracle instance (the workload's is 16)
ORACLE_EXTENT = 4

END_TO_END_UNITS = {
    "step_ms.p50": "ms",
    "samples_per_s": "samples/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass
class Prepared:
    splits: dict
    net: A.Network
    ema: dict | None
    seconds: float


@dataclass
class Loop:
    """Output bytes (or the error) and wall time of every op."""

    outputs: list = field(default_factory=list)
    seconds: list = field(default_factory=list)
    failed: int = 0


@dataclass
class Outcome:
    metrics: dict[str, float]
    units: dict[str, str]
    attempted: int
    failed: int
    lines: list[str]
    checks: dict[str, bool]
    tracer: tracing.Tracer | None = None


def set_up(kind: str, arch: str, seed: int, workdir: str) -> Prepared:
    """Phantom dataset to disk and back, windows and network, plus a checkpoint
    round-trip for inference.  Everything is drawn from ``seed``."""
    start = perf_counter()
    cfg = SimConfig(trajectory=TrajectoryConfig(n_samples=SAMPLES_PER_EXPERIMENT, seed=seed))
    path = os.path.join(workdir, "phantom.oct4d")
    phantom.write_dataset_streamed(path, N_EXPERIMENTS, cfg)
    dataset = phantom.load_dataset(path)
    splits = reps.windowed_splits(dataset, REPRESENTATION, HISTORY, HORIZON, D_OUT)
    config = A.config_from_arch(arch, REPRESENTATION, history=HISTORY, horizon=HORIZON)
    net = A.build(config, seed=seed)
    labels = splits["train"].all_labels()
    net.label_norm[:] = (labels.mean(), labels.std() or 1.0)
    ema = None
    if kind == "infer":
        calibrate_norms(net, splits["train"])
        ckpt = os.path.join(workdir, "model.ckpt")
        A.save_checkpoint(ckpt, net, training.Ema(net.named_params()).arrays())
        net, ema = A.load_checkpoint(ckpt)
    return Prepared(splits, net, ema, perf_counter() - start)


def calibrate_norms(net: A.Network, data) -> None:
    """Set every batch-norm layer's running statistics to those of one
    training batch, so that an untrained network's eval-mode outputs
    differ between windows (their correlation with the labels is defined)."""
    layers, stack, seen = [], [net], set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, (ops.BatchNorm, RecurrentBatchNorm)):
            layers.append(obj)
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif hasattr(obj, "__dict__") and not isinstance(obj, (Tensor, type)):
            stack.extend(vars(obj).values())
    saved = [bn.momentum for bn in layers]
    for bn in layers:
        bn.momentum = 1.0
    x, _ = data.gather(range(CALIBRATION_BATCH))
    with T.no_grad():
        net.forward(x, training=True)
    for bn, momentum in zip(layers, saved):
        bn.momentum = momentum


def closed_loop(op, seconds: float, min_ops: int, n_ops: int | None, tracer,
                label: str) -> Loop:
    """Run ``op(i)`` back to back until ``seconds`` have passed and ``min_ops``
    ops ran, or exactly ``n_ops`` ops when given (a replay).

    ``op`` returns (output values, tensor to count the graph from or
    None); the values' bytes are kept.  An exception or a non-finite
    value counts as a failure.  With a tracer every op is one span
    group.  There is no untimed warm-up; op times are reported as
    medians, which one slower first op barely moves.
    """
    loop = Loop()
    begin = perf_counter()
    for i in itertools.count():
        if n_ops is not None and i == n_ops:
            break
        if n_ops is None and i >= min_ops and perf_counter() - begin >= seconds:
            break
        if tracer is not None:
            tracer.group = f"{label}-{i}"
            sid = tracer.open(label)
        t0 = perf_counter()
        try:
            values, out = op(i)
            record = np.asarray(values).tobytes()
            ok = bool(np.isfinite(values).all())
        except Exception as exc:  # a failed op is counted, and the run goes on
            record, out, ok = repr(exc), None, False
        loop.seconds.append(perf_counter() - t0)
        if tracer is not None:
            tracer.close(sid)
            if out is not None:
                tracer.count("tensor.graph_nodes", tracing.graph_nodes(out))
            tracer.group = ""
        out = None  # keep no graph alive into the next op
        loop.failed += not ok
        loop.outputs.append(record)
    return loop


def train_loop(prep: Prepared, seed: int, seconds: float, n_ops=None, tracer=None) -> Loop:
    """Training steps as ``training.train`` takes them: MSE on standardized
    labels, backward, Adam, EMA."""
    net, data = prep.net, prep.splits["train"]
    named = list(net.named_params())
    params = [p for _, p in named]
    adam = training.Adam(named, LEARNING_RATE)
    ema = training.Ema(named)
    order = np.random.default_rng(seed).permutation(len(data))
    mu, sd = float(net.label_norm[0]), float(net.label_norm[1])

    def step(i):
        start = (i * TRAIN_BATCH) % len(order)
        x, y = data.gather(order[start:start + TRAIN_BATCH])
        pred = net.forward(x, training=True)
        loss = training.mse_loss(pred, Tensor((y - mu) / sd))
        T.zero_grads(params)
        T.backward(loss)
        adam.step()
        ema.update(named)
        return np.append(pred.data, loss.data), loss

    return closed_loop(step, seconds, 1, n_ops, tracer, "step")


def infer_loops(prep: Prepared, seconds: float, min_requests: int, n_ops=(None, None),
                tracer=None) -> tuple[Loop, Loop]:
    """Single-window requests at batch 1 with EMA weights under ``no_grad``,
    then evaluation passes: ``predict`` at batch 64 over the test split,
    ``evaluate`` and a Wilcoxon test against the train-mean predictor."""
    net, test, ema = prep.net, prep.splits["test"], prep.ema
    mu, sd = float(net.label_norm[0]), float(net.label_norm[1])

    def request(i):
        x, _ = test.gather([i % len(test)])
        out = net.forward(x, training=False)
        return out.data * sd + mu, out

    def evaluation(i):
        pred, target = training.predict(net, test, ema, batch_size=EVAL_BATCH)
        metrics.evaluate(pred, target, arch="convgru-resnet3d",
                         representation=REPRESENTATION, p=HISTORY, f=HORIZON)
        metrics.wilcoxon_signed_rank(np.abs(pred - target), np.abs(mu - target))
        return pred, None

    with training.swap_in_ema(net, ema), T.no_grad():
        requests = closed_loop(request, REQUEST_SHARE * seconds, min_requests, n_ops[0],
                               tracer, "step")
    passes = closed_loop(evaluation, seconds - sum(requests.seconds), MIN_PASSES, n_ops[1],
                         tracer, "pass")
    return requests, passes


# -- output checks ----------------------------------------------------------------------


def check_conv_oracle(prep: Prepared, layer: str, seed: int) -> bool:
    """One layer's real weights on a cropped random input, fast path against
    ``conv_nd_reference``."""
    K = dict(prep.net.named_params())[layer]
    temporal = K.ndim == 6
    lead = (1, HISTORY) if temporal else (1,)
    shape = lead + (ORACLE_EXTENT,) * 3 + (K.shape[-2],)
    x = np.random.default_rng(seed).normal(size=shape).astype(np.float32)
    conv = ops.conv_st if temporal else ops.conv_spatial
    fast = conv(Tensor(x), K, 1).data
    ref = ops.conv_nd_reference(x, K, 1, temporal=temporal)
    return float(np.max(np.abs(fast - ref))) <= ORACLE_RTOL * float(np.max(np.abs(ref)))


def check_no_grad(prep: Prepared) -> bool:
    """A ``no_grad`` prediction equals an eval-mode forward that records a graph."""
    x, _ = prep.splits["test"].gather([0])
    with training.swap_in_ema(prep.net, prep.ema):
        with T.no_grad():
            quiet = prep.net.forward(x, training=False)
        recorded = prep.net.forward(x, training=False)
    return recorded.requires_grad and np.array_equal(quiet.data, recorded.data)


# -- one run ----------------------------------------------------------------------------


def _measure(kind, prep, seed, seconds, min_requests, n_ops=(None, None), tracer=None):
    if kind == "train":
        return (train_loop(prep, seed, seconds, n_ops[0], tracer),)
    return infer_loops(prep, seconds, min_requests, n_ops, tracer)


def _holds(check, *args) -> bool:
    try:
        return bool(check(*args))
    except Exception:  # a check that raises has failed
        return False


def run(name: str, seed: int, seconds: float, trace: bool, workdir: str,
        min_requests: int = MIN_REQUESTS) -> Outcome:
    """Measure one workload untraced; with ``trace`` replay it traced as well."""
    kind, arch, layer = WORKLOADS[name]
    setup_s = []
    for _ in range(SETUP_REPEATS):
        prep = set_up(kind, arch, seed, workdir)
        setup_s.append(prep.seconds)
    checks = {"conv_oracle": _holds(check_conv_oracle, prep, layer, seed)}
    if kind == "infer":
        checks["no_grad_equals_graph_forward"] = _holds(check_no_grad, prep)
    loops = _measure(kind, prep, seed, seconds, min_requests)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    step_s = loops[0].seconds
    if kind == "train":
        samples_per_s = TRAIN_BATCH * len(step_s) / sum(step_s)
    else:
        samples_per_s = len(prep.splits["test"]) * len(loops[1].seconds) / sum(loops[1].seconds)
    values = {
        "step_ms.p50": statistics.median(step_s) * 1e3,
        "samples_per_s": samples_per_s,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_s),
    }
    units = dict(END_TO_END_UNITS)

    tracer = None
    if trace:
        tracer = tracing.Tracer()
        with tracing.instrument(tracer):
            for r in range(SETUP_REPEATS):
                tracer.group = f"setup-{r}"
                prep = set_up(kind, arch, seed, workdir)
            tracer.group = ""
            replay = _measure(kind, prep, seed, seconds, min_requests,
                              [math.ceil(REPLAY_SHARE * len(loop.outputs)) for loop in loops],
                              tracer)
        checks["traced_outputs_identical"] = all(
            a.outputs[:len(b.outputs)] == b.outputs for a, b in zip(loops, replay))
        values = tracing.per_layer_metrics(tracer, step_s)
        units = tracing.per_layer_units()

    attempted = sum(len(loop.outputs) for loop in loops) + len(checks)
    failed = sum(loop.failed for loop in loops) + sum(not ok for ok in checks.values())
    return Outcome(values, units, attempted, failed,
                   _summary(name, kind, loops, setup_s, samples_per_s, peak_rss_mb,
                            attempted, failed, checks),
                   checks, tracer)


def _summary(name, kind, loops, setup_s, samples_per_s, peak_rss_mb, attempted, failed,
             checks) -> list[str]:
    """The end-to-end metrics under their workload-specific names."""
    ms = np.asarray(loops[0].seconds) * 1e3
    n = len(ms)
    if kind == "train":
        lines = [f"train_samples_per_s {samples_per_s:.4f} samples/s (batch {TRAIN_BATCH})",
                 f"train_step_ms.p50 {np.median(ms):.2f} ms (n={n})"]
    else:
        p95 = float(np.percentile(ms, 95))
        passes = len(loops[1].seconds)
        lines = [f"infer_latency_ms.p50 {np.median(ms):.3f} ms (n={n})",
                 f"infer_latency_ms.p95 {p95:.3f} ms (n={n}, {int(np.sum(ms > p95))} beyond)",
                 f"eval_samples_per_s {samples_per_s:.4f} samples/s "
                 f"({passes} pass(es) of {EVAL_BATCH} windows)"]
    lines += [f"peak_rss_mb {peak_rss_mb:.1f} MB",
              f"setup_s {statistics.median(setup_s):.4f} s (median of {len(setup_s)})",
              f"failed_ratio {failed}/{attempted}",
              "checks " + " ".join(f"{k}={'ok' if ok else 'FAILED'}" for k, ok in checks.items())]
    errors = [out for loop in loops for out in loop.outputs if isinstance(out, str)]
    if errors:
        lines.append(f"first failed op: {errors[0]}")
    return [f"{name}: {line}" for line in lines]
