"""Shared test utilities: independent oracles and gradient-check drivers.

Oracles here are written against the documented contracts only and stay
independent of the library code paths they check.
"""

from __future__ import annotations

import json
import struct
from typing import Callable, NamedTuple, Sequence

import numpy as np

from volforce import ops
from volforce import recurrent as R
from volforce import tensor as T
from volforce.tensor import Tensor, backward, no_grad, zero_grads


def loop_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Naive triple-loop matrix product."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for l in range(k):
                acc += float(a[i, l]) * float(b[l, j])
            out[i, j] = acc
    return out


def loop_conv_nd(x: np.ndarray, K: np.ndarray, stride: int = 1,
                 temporal: bool = False) -> np.ndarray:
    """Second straight-line convolution implementation, kernel loop outermost.

    Same documented contract as the library reference (SAME zero padding,
    cross-correlation, float64 accumulation, kernel offsets in row-major
    order) but organized as shift-and-accumulate over output coordinates,
    so it shares no code with the library path.
    """
    from itertools import product

    x = np.asarray(x, dtype=np.float64)
    K = np.asarray(K, dtype=np.float64)
    n = K.ndim - 2
    batch = x.shape[0]
    extents = x.shape[1:-1]
    kext = K.shape[:-2]
    strides = tuple(1 if (temporal and i == 0) else stride for i in range(n))
    outs, pads = [], []
    for i in range(n):
        out_e = (extents[i] + strides[i] - 1) // strides[i]
        total = max(0, (out_e - 1) * strides[i] + kext[i] - extents[i])
        outs.append(out_e)
        pads.append(total // 2)
    result = np.zeros((batch,) + tuple(outs) + (K.shape[-1],), dtype=np.float64)
    for k_coord in product(*map(range, kext)):
        for b in range(batch):
            for out_coord in product(*map(range, outs)):
                in_coord = tuple(out_coord[i] * strides[i] + k_coord[i] - pads[i]
                                 for i in range(n))
                if any(c < 0 or c >= extents[i] for i, c in enumerate(in_coord)):
                    continue
                result[(b,) + out_coord] += x[(b,) + in_coord] @ K[k_coord]
    return result


def rewrite_checkpoint_config(path, edit) -> None:
    """Replace a checkpoint's config JSON by ``edit(config)``, keeping the rest."""
    data = path.read_bytes()
    head = len(b"VFCKPT") + 4  # magic, u32 version
    (n,) = struct.unpack("<I", data[head:head + 4])
    cfg = json.dumps(edit(json.loads(data[head + 4:head + 4 + n]))).encode()
    path.write_bytes(data[:head] + struct.pack("<I", len(cfg)) + cfg + data[head + 4 + n:])


def square(t: Tensor) -> Tensor:
    """Elementwise t * t, the squared-output loss of the gradient checks."""
    return t * t


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(float(np.abs(b).max()), 1e-30)
    return float(np.abs(np.asarray(a, np.float64) - np.asarray(b, np.float64)).max()) / scale


def primitive_grad_cases(rng: np.random.Generator):
    """Yield (description, loss builder, params) over every primitive op."""

    def rt(*shape, scale=1.0):
        return Tensor(rng.normal(size=shape) * scale, requires_grad=True)

    a, b = rt(3, 4), rt(3, 4)
    yield "add", lambda: T.tsum((a + b) * (a - 0.5)), [a, b]
    yield "sub", lambda: T.tsum(square(a - b)), [a, b]
    yield "mul", lambda: T.tsum(a * b), [a, b]
    bcast = rt(1, 4)
    yield "broadcast add", lambda: T.tsum((a + bcast) * b), [a, bcast]
    yield "sigmoid", lambda: T.tsum(T.sigmoid(a)), [a]
    yield "tanh", lambda: T.tsum(T.tanh(a)), [a]
    w1, w2 = rt(3, 5), rt(5, 2)
    yield "matmul", lambda: T.tsum(square(T.matmul(w1, w2))), [w1, w2]
    yield "sum axis", lambda: T.tsum(square(T.tsum(a, axis=0))), [a]
    yield "mean keepdims", lambda: T.tsum(T.tmean(a, axis=1, keepdims=True) * a), [a]
    yield "reshape", lambda: T.tsum(square(T.reshape(a, (4, 3)))), [a]
    yield "getitem", lambda: T.tsum(a[1:, :2] * 2.0), [a]
    yield "stack", lambda: T.tsum(square(T.stack([a, b], axis=1))), [a, b]
    yield "concat", lambda: T.tsum(square(T.concat([a, b], axis=1))), [a, b]
    x3 = rt(1, 4, 4, 4, 2)
    k3 = rt(3, 3, 3, 2, 2, scale=0.4)
    yield "conv3d", lambda: T.tsum(square(ops.conv_spatial(x3, k3, 2))), [x3, k3]
    x2 = rt(2, 5, 5, 2)
    k2 = rt(3, 3, 2, 2, scale=0.4)
    yield "conv2d", lambda: T.tsum(square(ops.conv_spatial(x2, k2, 1))), [x2, k2]
    x4 = rt(1, 3, 4, 4, 4, 1)
    k4 = rt(3, 3, 3, 3, 1, 2, scale=0.4)
    yield "conv4d", lambda: T.tsum(square(ops.conv_st(x4, k4, 2))), [x4, k4]

    def randomized(bn):
        """``bn`` with random gamma, beta and (positive-variance) running stats."""
        bn.gamma.data[:] = rng.normal(size=bn.channels)
        bn.beta.data[:] = rng.normal(size=bn.channels)
        bn.running_mean[:] = rng.normal(size=bn.running_mean.shape)
        bn.running_var[:] = rng.uniform(0.5, 2.0, size=bn.running_var.shape)
        return bn

    # the loss is weighted: a plain sum of a training-mode norm has dx = 0
    xb, wb = rt(4, 3, 2, scale=2.0), rng.normal(size=(4, 3, 2))
    bn = randomized(ops.BatchNorm(2))
    yield ("batch_norm train", lambda: T.tsum(bn(xb, training=True) * wb),
           [xb, bn.gamma, bn.beta])
    yield ("batch_norm eval", lambda: T.tsum(bn(xb, training=False) * wb),
           [xb, bn.gamma, bn.beta])
    yield ("batch_norm train, relu",
           lambda: T.tsum(ops.batch_norm(xb, bn, training=True, relu=True) * wb),
           [xb, bn.gamma, bn.beta])
    # a GRU's input-side norm over its three gates, one with its own eps and
    # momentum; joined inside the loss, so perturbed gammas and betas reach it
    cell = R.GRUCell(2, 2, np.zeros, t_cap=3)
    gate_norms = [randomized(getattr(cell, f"bn_w{g}")) for g in cell.gates]
    cell.bn_wr.eps, cell.bn_wr.momentum = 0.05, 0.3
    xr, wr = rt(4, 6), rng.normal(size=(4, 6))
    yield ("recurrent norm, joined, slot > 0",
           lambda: T.tsum(cell.join()["w"][1](xr, 2, False) * wr),
           [xr] + [t for part in gate_norms for t in (part.gamma, part.beta)])


def check_all_primitive_grads(instances: int = 100, seed: int = 0,
                              tol: float = 1e-4) -> int:
    """Finite-difference-check primitive ops over random instances (float64).

    Runs full parameter sweeps on the small cases and sampled sweeps on
    convolutions; returns the number of instances checked.
    """
    assert T.default_dtype() == np.float64, "gradient checks need the float64 mode"
    rng = np.random.default_rng(seed)
    checked = 0
    while checked < instances:
        for name, loss_fn, params in primitive_grad_cases(rng):
            cap = 24 if name.startswith("conv") else None
            err = finite_diff_check(loss_fn, params, eps=1e-4, max_elements=cap,
                                      seed=checked)
            assert err < tol, f"{name}: finite-difference error {err} >= {tol}"
            checked += 1
            if checked >= instances:
                break
    return checked


# -- finite differences --------------------------------------------------------

# Kink-aware step control (see ``finite_diff_report``): the largest relative
# disagreement accepted between the one-sided quotients, and the smallest
# step tried.
FD_SLOPE_GAP = 1e-6
FD_MIN_STEP = 1e-7


class FiniteDiffReport(NamedTuple):
    """Outcome of :func:`finite_diff_report`."""

    worst: float  # max relative error over the sampled coordinates
    checked: int  # coordinates compared
    shrunk: int  # coordinates whose step had to be reduced below ``eps``
    min_step: float  # smallest step used for any coordinate
    plain_worst: float  # max relative error against the central difference at ``eps``


def finite_diff_report(f: Callable[[], Tensor], params: Sequence[Tensor],
                       eps: float = 1e-4, max_elements: int | None = None,
                       seed: int = 0) -> FiniteDiffReport:
    """Compare analytic gradients with kink-aware central differences.

    ``f`` rebuilds the scalar loss from ``params`` on every call.  The
    unperturbed loss ``f0`` is evaluated once.  For each sampled
    coordinate the step ``h`` starts at ``eps``; the one-sided quotients
    ``(f(x+h) - f0) / h`` and ``(f0 - f(x-h)) / h`` are compared, and
    while they differ by more than ``tol = FD_SLOPE_GAP * max(1, |central|)``
    the step is divided by 10.  Shrinking stops at the floor
    ``FD_MIN_STEP`` (1e-7; there float64 round-off still leaves the
    quotient accurate to about 1e-9 times the loss), or once a division
    cut the gap at least 5x and moved the central difference by at most
    ``tol``.  A ReLU whose pre-activation lies within ``h`` of zero makes
    the one-sided slopes disagree, so the reference moves to a step that
    no longer straddles the kink instead of averaging two slopes; a
    smaller step that still straddles it moves the central difference by
    a share of the slope jump.  On a smooth loss the gap is the curvature
    times ``h``: it falls 10x per division while the central difference
    moves by O(h^2), so one smaller step tells curvature from a kink.
    The analytic gradient plays no part in choosing ``h``, and no
    coordinate is dropped, so a wrong backward still shows.

    The relative error per coordinate is |analytic - central| /
    max(1, |central|) at the final step.  ``max_elements`` caps how many
    entries of each parameter are perturbed (sampled with ``seed``); the
    default perturbs every entry.  The check is meaningful only in the
    float64 mode (``use_dtype(np.float64)``): at 32-bit precision the
    round-off in ``f`` swamps differences at these steps.
    """
    def loss_value() -> float:
        with no_grad():
            return float(f().data.reshape(-1)[0])

    zero_grads(params)
    backward(f(), params)
    analytic = [None if p.grad is None else p.grad.copy() for p in params]
    f0 = loss_value()
    rng = np.random.default_rng(seed)
    worst, checked, shrunk, min_step, plain_worst = 0.0, 0, 0, eps, 0.0
    for p, grad in zip(params, analytic):
        flat = p.data.reshape(-1)
        n = flat.size
        if max_elements is not None and n > max_elements:
            idxs = rng.choice(n, size=max_elements, replace=False)
        else:
            idxs = range(n)
        gflat = np.zeros(n) if grad is None else grad.reshape(-1)
        for i in idxs:
            orig = flat[i]
            h, last_gap, last = eps, 0.0, np.nan  # no gap yet, so none has fallen
            while True:
                flat[i] = orig + h
                f_plus = loss_value()
                flat[i] = orig - h
                f_minus = loss_value()
                flat[i] = orig
                numeric = (f_plus - f_minus) / (2.0 * h)
                if h == eps:
                    plain = numeric
                slopes_gap = abs((f_plus - f0) - (f0 - f_minus)) / h
                # the floor compare allows for rounding in repeated h / 10
                tol = FD_SLOPE_GAP * max(1.0, abs(numeric))
                if (slopes_gap <= tol
                        or (5.0 * slopes_gap <= last_gap and abs(numeric - last) <= tol)
                        or h / 10.0 < FD_MIN_STEP * (1.0 - 1e-6)):
                    break
                h, last_gap, last = h / 10.0, slopes_gap, numeric
            checked += 1
            shrunk += int(h < eps)
            min_step = min(min_step, h)
            g = float(gflat[i])
            worst = max(worst, abs(g - numeric) / max(1.0, abs(numeric)))
            plain_worst = max(plain_worst, abs(g - plain) / max(1.0, abs(plain)))
    zero_grads(params)
    return FiniteDiffReport(worst, checked, shrunk, min_step, plain_worst)


def finite_diff_check(f: Callable[[], Tensor], params: Sequence[Tensor],
                      eps: float = 1e-4, max_elements: int | None = None,
                      seed: int = 0) -> float:
    """Max relative error of :func:`finite_diff_report` (same arguments)."""
    return finite_diff_report(f, params, eps, max_elements, seed).worst
