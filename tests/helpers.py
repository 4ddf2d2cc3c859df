"""Shared test utilities: independent oracles and gradient-check drivers.

Oracles here are written against the documented contracts only and stay
independent of the library code paths they check.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from volforce import ops
from volforce import recurrent as R
from volforce import tensor as T
from volforce.tensor import Tensor


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


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(float(np.abs(b).max()), 1e-30)
    return float(np.abs(np.asarray(a, np.float64) - np.asarray(b, np.float64)).max()) / scale


def primitive_grad_cases(rng: np.random.Generator):
    """Yield (description, loss builder, params) over every primitive op."""

    def rt(*shape, scale=1.0):
        return Tensor(rng.normal(size=shape) * scale, requires_grad=True)

    a, b = rt(3, 4), rt(3, 4)
    yield "add", lambda: T.tsum((a + b) * (a - 0.5)), [a, b]
    yield "sub", lambda: T.tsum((a - b) ** 2.0), [a, b]
    yield "mul", lambda: T.tsum(a * b), [a, b]
    yield "div", lambda: T.tsum(a / (b * b + 1.0)), [a, b]
    bcast = rt(1, 4)
    yield "broadcast add", lambda: T.tsum((a + bcast) * b), [a, bcast]
    yield "neg", lambda: T.tsum(-a * b), [a]
    yield "pow", lambda: T.tsum((a * a + 1.0) ** 1.5), [a]
    yield "relu", lambda: T.tsum(T.relu(a) * b), [a]
    yield "sigmoid", lambda: T.tsum(T.sigmoid(a)), [a]
    yield "tanh", lambda: T.tsum(T.tanh(a)), [a]
    yield "sqrt", lambda: T.tsum(T.sqrt(a * a + 1.0)), [a]
    w1, w2 = rt(3, 5), rt(5, 2)
    yield "matmul", lambda: T.tsum(T.matmul(w1, w2) ** 2.0), [w1, w2]
    yield "sum axis", lambda: T.tsum(T.tsum(a, axis=0) ** 2.0), [a]
    yield "mean keepdims", lambda: T.tsum(T.tmean(a, axis=1, keepdims=True) * a), [a]
    yield "reshape", lambda: T.tsum(T.reshape(a, (4, 3)) ** 2.0), [a]
    yield "getitem", lambda: T.tsum(a[1:, :2] * 2.0), [a]
    yield "pad", lambda: T.tsum(T.pad_zero(a, ((1, 0), (0, 2))) ** 2.0), [a]
    yield "stack", lambda: T.tsum(T.stack([a, b], axis=1) ** 2.0), [a, b]
    yield "concat", lambda: T.tsum(T.concat([a, b], axis=1) ** 2.0), [a, b]
    x3 = rt(1, 4, 4, 4, 2)
    k3 = rt(3, 3, 3, 2, 2, scale=0.4)
    yield "conv3d", lambda: T.tsum(ops.conv_spatial(x3, k3, 2) ** 2.0), [x3, k3]
    x2 = rt(2, 5, 5, 2)
    k2 = rt(3, 3, 2, 2, scale=0.4)
    yield "conv2d", lambda: T.tsum(ops.conv_spatial(x2, k2, 1) ** 2.0), [x2, k2]
    x4 = rt(1, 3, 4, 4, 4, 1)
    k4 = rt(3, 3, 3, 3, 1, 2, scale=0.4)
    yield "conv4d", lambda: T.tsum(ops.conv_st(x4, k4, 2) ** 2.0), [x4, k4]

    def norm(norm_type, channels, **kw):
        """A norm with random gamma, beta and (positive-variance) running stats."""
        bn = norm_type(channels, **kw)
        bn.gamma.data[:] = rng.normal(size=channels)
        bn.beta.data[:] = rng.normal(size=channels)
        bn.running_mean[:] = rng.normal(size=bn.running_mean.shape)
        bn.running_var[:] = rng.uniform(0.5, 2.0, size=bn.running_var.shape)
        return bn

    # the loss is weighted: a plain sum of a training-mode norm has dx = 0
    xb, wb = rt(4, 3, 2, scale=2.0), rng.normal(size=(4, 3, 2))
    bn = norm(ops.BatchNorm, 2)
    yield ("batch_norm train", lambda: T.tsum(bn(xb, training=True) * wb),
           [xb, bn.gamma, bn.beta])
    yield ("batch_norm eval", lambda: T.tsum(bn(xb, training=False) * wb),
           [xb, bn.gamma, bn.beta])
    parts = [norm(R.RecurrentBatchNorm, 2, t_cap=3), norm(R.RecurrentBatchNorm, 3, t_cap=3,
                                                          eps=0.05, momentum=0.3)]
    xr, wr = rt(4, 5), rng.normal(size=(4, 5))
    yield ("recurrent norm, joined, slot > 0",
           lambda: T.tsum(R.RecurrentBatchNorm.joined(parts)(xr, 2, False) * wr),
           [xr] + [t for part in parts for t in (part.gamma, part.beta)])


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
            err = T.finite_diff_check(loss_fn, params, eps=1e-4, max_elements=cap,
                                      seed=checked)
            assert err < tol, f"{name}: finite-difference error {err} >= {tol}"
            checked += 1
            if checked >= instances:
                break
    return checked
