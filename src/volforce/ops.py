"""Convolutional building blocks for spatio-temporal networks.

Axis layout everywhere: (batch, [time], spatial..., channel).  All
convolutions are cross-correlations (no kernel flip), the usual deep
learning convention, with zero SAME padding: out_extent = ceil(in / s),
pad_before = pad_total // 2.  Temporal axes are never strided and use
symmetric (non-causal) SAME padding.

``conv_nd`` is the one fast convolution (an autodiff primitive);
``conv_spatial``, ``conv_st`` and ``factorized_conv`` are calls of it.
``conv_nd_reference`` is the slow, straight-line evaluation of the N-D
convolution sum and is the correctness oracle for every faster path in
this module.  Its accumulation order is pinned (documented below) so an
independently written loop implementation can reproduce it bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iproduct
from typing import Callable

import numpy as np

from volforce import tensor as T
from volforce.tensor import Tensor


@dataclass(frozen=True)
class ConvSpec:
    """Kernel geometry for one convolution.

    ``kernel`` lists one odd extent per convolved axis, temporal first
    when ``temporal`` is set.  ``stride`` applies to spatial axes only;
    the temporal stride is fixed at 1.
    """

    kernel: tuple[int, ...]
    in_channels: int
    out_channels: int
    stride: int = 1
    temporal: bool = False

    def __post_init__(self):
        if any(k < 1 or k % 2 == 0 for k in self.kernel):
            raise ValueError(f"kernel extents must be odd and positive, got {self.kernel}")
        if self.stride not in (1, 2):
            raise ValueError(f"stride must be 1 or 2, got {self.stride}")
        if self.in_channels < 1 or self.out_channels < 1:
            raise ValueError("channel counts must be positive")


def same_pad(extent: int, k: int, stride: int) -> tuple[int, int, int]:
    """(out_extent, pad_before, pad_after) for SAME zero padding."""
    out = -(-extent // stride)
    total = max(0, (out - 1) * stride + k - extent)
    return out, total // 2, total - total // 2


# -- reference path -------------------------------------------------------------


def conv_nd_reference(x, K, stride: int = 1, temporal: bool = False) -> np.ndarray:
    """Direct nested-sum N-D convolution (cross-correlation), the oracle.

    x: [b, *axes, c_in], K: [*kernel, c_in, c_out], N = K.ndim - 2 in
    {2, 3, 4}.  When ``temporal`` is set the first convolved axis keeps
    stride 1.  Evaluation accumulates in float64; per output element the
    summation runs over kernel offsets in row-major order with the input
    channel contraction innermost (a dot product per offset).  Slow by
    design; use only on small instances.
    """
    xd = np.asarray(x.data if isinstance(x, Tensor) else x, dtype=np.float64)
    Kd = np.asarray(K.data if isinstance(K, Tensor) else K, dtype=np.float64)
    n = Kd.ndim - 2
    if n not in (2, 3, 4):
        raise ValueError(f"conv_nd_reference supports N in {{2,3,4}}, got N={n}")
    if xd.ndim != n + 2:
        raise ValueError(f"input rank {xd.ndim} does not match kernel rank {Kd.ndim}")
    if xd.shape[-1] != Kd.shape[-2]:
        raise ValueError(f"channel mismatch: input has {xd.shape[-1]}, kernel expects {Kd.shape[-2]}")
    batch = xd.shape[0]
    extents = xd.shape[1:-1]
    kext = Kd.shape[:-2]
    strides = tuple(1 if (temporal and i == 0) else stride for i in range(n))
    geom = [same_pad(extents[i], kext[i], strides[i]) for i in range(n)]
    out_extents = tuple(g[0] for g in geom)
    pads = tuple(g[1] for g in geom)
    out = np.zeros((batch,) + out_extents + (Kd.shape[-1],), dtype=np.float64)
    for b in range(batch):
        for out_coord in iproduct(*map(range, out_extents)):
            acc = np.zeros(Kd.shape[-1], dtype=np.float64)
            for k_coord in iproduct(*map(range, kext)):
                in_coord = tuple(out_coord[i] * strides[i] + k_coord[i] - pads[i]
                                 for i in range(n))
                if any(c < 0 or c >= extents[i] for i, c in enumerate(in_coord)):
                    continue  # zero padding contributes nothing
                acc += xd[(b,) + in_coord] @ Kd[k_coord]
            out[(b,) + out_coord] = acc
    return out


# -- fast convolution (one autodiff primitive) -------------------------------------

# Bound on one chunk of gathered columns (a chunk holds at least one sample).
GATHER_CHUNK_BYTES = 8 << 20


@lru_cache(maxsize=256)
def _window_index(kernel: tuple[int, ...], out_extents: tuple[int, ...],
                  strides: tuple[int, ...]) -> tuple[tuple[slice, ...], ...]:
    """Per kernel offset (row-major), the index of its strided window into
    the padded input [b, *padded, c]; built once per geometry."""
    return tuple((slice(None),) + tuple(slice(k, k + (o - 1) * s + 1, s)
                                        for k, o, s in zip(k_coord, out_extents, strides))
                 for k_coord in iproduct(*map(range, kernel)))


def conv_nd(x: Tensor, K: Tensor, stride: int = 1, temporal: bool = False) -> Tensor:
    """SAME-padded convolution over N = K.ndim - 2 in {2, 3, 4} axes.

    x: [b, *axes, c_in], K: [*kernel, c_in, c_out]; with ``temporal`` the
    first convolved axis is time and keeps stride 1.  The input is padded
    once and every kernel offset reads a strided window of that copy.
    A 1-channel input gathers the windows into a column matrix in batch
    chunks of at most ``GATHER_CHUNK_BYTES`` and runs one GEMM per chunk;
    wider inputs accumulate one GEMM per offset (shift-and-matmul), since
    gathering was measured slower for them.  Backward keeps only the
    padded input; dK rebuilds the columns chunk by chunk.
    """
    n = K.ndim - 2
    if n not in (2, 3, 4):
        raise ValueError(f"convolution supports 2, 3 or 4 convolved axes, got {n}")
    if x.ndim != n + 2:
        raise ValueError(f"input rank {x.ndim} does not match kernel rank {K.ndim}")
    if x.shape[-1] != K.shape[-2]:
        raise ValueError(f"channel mismatch: input has {x.shape[-1]}, kernel expects {K.shape[-2]}")
    xd, Kd = x.data, K.data
    batch, cin, cout = xd.shape[0], Kd.shape[-2], Kd.shape[-1]
    strides = tuple(1 if (temporal and i == 0) else stride for i in range(n))
    geom = [same_pad(xd.shape[1 + i], Kd.shape[i], strides[i]) for i in range(n)]
    out_extents = tuple(g[0] for g in geom)
    pads = ((0, 0),) + tuple(g[1:] for g in geom) + ((0, 0),)
    inner = tuple(slice(lo, lo + e) for e, (lo, _) in zip(xd.shape, pads))
    xp = xd
    if any(map(any, pads)):  # zeros plus a copy: much cheaper than np.pad per call
        xp = np.zeros(tuple(e + lo + hi for e, (lo, hi) in zip(xd.shape, pads)), xd.dtype)
        xp[inner] = xd
    offset_index = _window_index(Kd.shape[:-2], out_extents, strides)
    K3d = Kd.reshape(len(offset_index), cin, cout)
    per_sample = int(np.prod(out_extents))
    rows = batch * per_sample
    chunk = max(1, GATHER_CHUNK_BYTES // (len(offset_index) * per_sample * xd.itemsize))
    chunks = [(b0, min(b0 + chunk, batch)) for b0 in range(0, batch, chunk)]

    def columns(b0, b1):
        """[offset, row] windows of samples b0:b1 (1-channel input)."""
        cols = np.empty((len(offset_index), (b1 - b0) * per_sample), dtype=xd.dtype)
        for oi, index in enumerate(offset_index):
            cols[oi] = xp[b0:b1][index].reshape(-1)
        return cols

    def windows():
        """(offset index, [rows, c_in] window) pairs, copied into one reused buffer."""
        buf = np.empty((batch,) + out_extents + (cin,), dtype=xd.dtype)
        for oi, index in enumerate(offset_index):
            np.copyto(buf, xp[index])
            yield oi, buf.reshape(rows, cin)

    out2d = np.zeros((rows, cout), dtype=xd.dtype)
    if cin == 1:
        for b0, b1 in chunks:
            out2d[b0 * per_sample:b1 * per_sample] = columns(b0, b1).T @ K3d[:, 0]
    else:
        prod = np.empty_like(out2d)
        for oi, view in windows():
            out2d += np.matmul(view, K3d[oi], out=prod)

    def backward_fn(g):
        g2d = np.ascontiguousarray(g).reshape(rows, cout)
        if K.requires_grad:
            dK = np.zeros_like(K3d)
            if cin == 1:
                for b0, b1 in chunks:
                    dK[:, 0] += columns(b0, b1) @ g2d[b0 * per_sample:b1 * per_sample]
            else:
                for oi, view in windows():
                    np.matmul(view.T, g2d, out=dK[oi])
            T._accumulate(K, dK)
        if x.requires_grad:
            dxp = np.zeros_like(xp)
            for oi, index in enumerate(offset_index):
                dxp[index] += (g2d @ K3d[oi].T).reshape(
                    (batch,) + out_extents + (cin,))
            T._accumulate(x, dxp[inner])

    return T._make(out2d.reshape((batch,) + out_extents + (cout,)), (x, K), backward_fn)


def conv_spatial(x: Tensor, K: Tensor, stride: int = 1) -> Tensor:
    """Spatial convolution: x [b, *spatial, c_in], K [*kernel, c_in, c_out]."""
    return conv_nd(x, K, stride)


def conv_st(x: Tensor, K: Tensor, stride: int = 1) -> Tensor:
    """Spatio-temporal convolution: x [b, p, *spatial, c_in], K [k_t, *kernel, c_in,
    c_out]; time keeps stride 1 and SAME extent, ``stride`` applies spatially.
    With k_t = 1 this is exactly ``conv_spatial`` applied per time step."""
    return conv_nd(x, K, stride, temporal=True)


def factorized_conv(x: Tensor, K_S: Tensor, K_T: Tensor, stride: int = 1) -> Tensor:
    """Spatial-then-temporal factorized convolution.

    K_S: [1, *kernel_spatial, c_in, c_mid] (pure spatial), K_T:
    [k_t, 1...1, c_mid, c_out] (pure temporal).  Represents exactly the
    separable subset of full spatio-temporal kernels.
    """
    if K_S.shape[0] != 1:
        raise ValueError(f"spatial kernel must have temporal extent 1, got {K_S.shape}")
    if any(e != 1 for e in K_T.shape[1:-2]):
        raise ValueError(f"temporal kernel must have unit spatial extents, got {K_T.shape}")
    if K_S.shape[-1] != K_T.shape[-2]:
        raise ValueError(f"channel mismatch between stages: {K_S.shape} then {K_T.shape}")
    y = conv_st(x, K_S, stride)
    return conv_st(y, K_T, 1)


# -- normalization -----------------------------------------------------------------


class BatchNorm:
    """Batch normalization over all non-channel axes (channel last).

    Training mode normalizes with batch statistics and updates running
    statistics as running <- (1 - momentum) * running + momentum * batch
    (population variance); inference mode uses the running statistics.
    The 1e-3 epsilon keeps inference well conditioned when a channel's
    batch variance collapses during training (a closed recurrent gate
    upstream can drive it arbitrarily close to zero).  ``momentum`` and
    ``eps`` may be per-channel arrays.
    """

    def __init__(self, channels: int, momentum: float = 0.1, eps: float = 1e-3,
                 gamma_init: float = 1.0):
        self.channels = channels
        self.momentum = momentum
        self.eps = eps
        self.gamma = Tensor(np.full(channels, gamma_init, dtype=T.default_dtype()),
                            requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=T.default_dtype()), requires_grad=True)
        self.running_mean = np.zeros(channels, dtype=np.float64)
        self.running_var = np.ones(channels, dtype=np.float64)

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        return batch_norm(x, self, training)

    def named_params(self, prefix: str = ""):
        yield prefix + "gamma", self.gamma
        yield prefix + "beta", self.beta

    def named_buffers(self, prefix: str = ""):
        yield prefix + "running_mean", self.running_mean
        yield prefix + "running_var", self.running_var


def batch_norm(x: Tensor, state: BatchNorm, training: bool, slot: int = 0) -> Tensor:
    """Normalize ``x`` with ``state``: one autodiff primitive over x, gamma, beta.

    ``slot`` picks the row of running statistics when they are kept per
    timestep ([slots, c]); plain [c] statistics have only slot 0.  The
    forward evaluates the two-pass expression (mean as a sum times 1/n,
    then the mean of squared deviations); the backward is the closed form
    and keeps only x_hat and sigma.
    """
    if x.shape[-1] != state.channels:
        raise ValueError(f"expected {state.channels} channels, got {x.shape[-1]}")
    axes = tuple(range(x.ndim - 1))
    dt = T.default_dtype()
    inv_n = np.asarray(1.0 / (x.size // state.channels), dt)
    # views: updates in place reach the state's arrays
    running_mean = np.atleast_2d(state.running_mean)[slot]
    running_var = np.atleast_2d(state.running_var)[slot]
    if training:
        if x.shape[0] < 2:
            raise ValueError("batch norm in training mode needs batch size >= 2")
        mu = x.data.sum(axis=axes, keepdims=True) * inv_n
        var = ((x.data - mu) ** 2.0).sum(axis=axes, keepdims=True) * inv_n
        m = state.momentum
        running_mean += m * (mu.reshape(-1) - running_mean)
        running_var += m * (var.reshape(-1) - running_var)
        sigma = np.sqrt(var + np.asarray(state.eps, dt))
    else:
        mu = np.asarray(running_mean, dt)
        sigma = np.asarray(np.sqrt(running_var + state.eps), dt)
    # the op-by-op norm's expressions in its order: bit-identical outputs
    x_hat = (x.data - mu) / sigma
    gamma, beta = state.gamma, state.beta
    out = x_hat * gamma.data + beta.data

    def backward_fn(g):
        dbeta = g.sum(axis=axes)
        dgamma = (g * x_hat).sum(axis=axes)
        if x.requires_grad:
            if training:  # dx = gamma/sigma * (g - mean g - x_hat * mean(g x_hat))
                g = g - dbeta * inv_n - x_hat * (dgamma * inv_n)
            T._accumulate(x, g * (gamma.data / sigma))
        if gamma.requires_grad:
            T._accumulate(gamma, dgamma)
        if beta.requires_grad:
            T._accumulate(beta, dbeta)

    return T._make(out, (x, gamma, beta), backward_fn)


# -- layers -------------------------------------------------------------------------


_KIND_GEOM = {
    # kind -> (n_spatial, temporal, factorized)
    "full4d": (3, True, False),
    "fac4d": (3, True, True),
    "st3d": (2, True, False),
    "fac3d": (2, True, True),
    "conv3d": (3, False, False),
    "conv2d": (2, False, False),
}


class Conv:
    """One convolution layer (no bias; normalization supplies the shift)."""

    def __init__(self, kind: str, cin: int, cout: int, stride: int,
                 init: Callable[[tuple[int, ...]], np.ndarray], k: int = 3):
        n_spatial, temporal, factorized = _KIND_GEOM[kind]
        if factorized:
            raise ValueError("use FactorizedConv for factorized kinds")
        self.kind = kind
        n_axes = n_spatial + (1 if temporal else 0)
        self.spec = ConvSpec(kernel=(k,) * n_axes, in_channels=cin,
                             out_channels=cout, stride=stride, temporal=temporal)
        self.stride = stride
        self.weight = Tensor(init((k,) * n_axes + (cin, cout)), requires_grad=True)
        self.temporal = temporal

    def __call__(self, x: Tensor) -> Tensor:
        if self.temporal:
            return conv_st(x, self.weight, self.stride)
        return conv_spatial(x, self.weight, self.stride)

    def named_params(self, prefix: str = ""):
        yield prefix + "weight", self.weight

    def named_buffers(self, prefix: str = ""):
        return iter(())


class FactorizedConv:
    """Spatial kernel followed by temporal kernel (separable kernels only)."""

    def __init__(self, kind: str, cin: int, cout: int, stride: int,
                 init: Callable[[tuple[int, ...]], np.ndarray], k: int = 3):
        n_spatial, temporal, factorized = _KIND_GEOM[kind]
        if not (temporal and factorized):
            raise ValueError(f"kind {kind!r} is not a factorized spatio-temporal kind")
        self.kind = kind
        self.spec = ConvSpec(kernel=(k,) * (n_spatial + 1), in_channels=cin,
                             out_channels=cout, stride=stride, temporal=True)
        self.stride = stride
        self.weight_spatial = Tensor(init((1,) + (k,) * n_spatial + (cin, cout)),
                                     requires_grad=True)
        self.weight_temporal = Tensor(init((k,) + (1,) * n_spatial + (cout, cout)),
                                      requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return factorized_conv(x, self.weight_spatial, self.weight_temporal, self.stride)

    def named_params(self, prefix: str = ""):
        yield prefix + "weight_spatial", self.weight_spatial
        yield prefix + "weight_temporal", self.weight_temporal

    def named_buffers(self, prefix: str = ""):
        return iter(())


def make_conv(kind: str, cin: int, cout: int, stride: int, init, k: int = 3):
    if _KIND_GEOM[kind][2]:
        return FactorizedConv(kind, cin, cout, stride, init, k)
    return Conv(kind, cin, cout, stride, init, k)


class ResidualBlock:
    """Pre-activation residual block: (BN -> ReLU -> conv) twice plus shortcut.

    The first convolution carries the spatial stride and any channel
    change; the shortcut is the identity unless extents or channels
    change, in which case a 1-kernel projection convolution with the
    block's stride is applied to the raw input.  The sum is not
    re-activated, so a zero residual path passes the input through
    unchanged.
    """

    def __init__(self, kind: str, cin: int, cout: int, stride: int,
                 init: Callable[[tuple[int, ...]], np.ndarray], k: int = 3):
        self.kind = kind
        self.stride = stride
        self.bn1 = BatchNorm(cin)
        self.bn2 = BatchNorm(cout)
        self.conv1 = make_conv(kind, cin, cout, stride, init, k)
        self.conv2 = make_conv(kind, cout, cout, 1, init, k)
        if stride != 1 or cin != cout:
            proj_kind = {"fac4d": "full4d", "fac3d": "st3d"}.get(kind, kind)
            self.shortcut = Conv(proj_kind, cin, cout, stride, init, k=1)
        else:
            self.shortcut = None

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        h = self.conv1(T.relu(self.bn1(x, training)))
        h = self.conv2(T.relu(self.bn2(h, training)))
        s = x if self.shortcut is None else self.shortcut(x)
        return h + s

    def named_params(self, prefix: str = ""):
        yield from self.bn1.named_params(prefix + "bn1.")
        yield from self.conv1.named_params(prefix + "conv1.")
        yield from self.bn2.named_params(prefix + "bn2.")
        yield from self.conv2.named_params(prefix + "conv2.")
        if self.shortcut is not None:
            yield from self.shortcut.named_params(prefix + "shortcut.")

    def named_buffers(self, prefix: str = ""):
        yield from self.bn1.named_buffers(prefix + "bn1.")
        yield from self.bn2.named_buffers(prefix + "bn2.")


# -- pooling and head ----------------------------------------------------------------


def global_avg_pool(x: Tensor, mode: str, n_spatial: int) -> Tensor:
    """Mean over spatial axes, optionally including the temporal axis.

    mode "spatial" keeps a leading temporal axis if present; mode
    "temporal+spatial" also averages over axis 1.  Batch and channel are
    always preserved.
    """
    if mode not in ("spatial", "temporal+spatial"):
        raise ValueError(f"unknown pooling mode {mode!r}")
    spatial_axes = tuple(range(x.ndim - 1 - n_spatial, x.ndim - 1))
    axes = spatial_axes
    if mode == "temporal+spatial":
        if x.ndim != n_spatial + 3:
            raise ValueError(f"no temporal axis present in input of rank {x.ndim}")
        axes = (1,) + spatial_axes
    elif x.ndim not in (n_spatial + 2, n_spatial + 3):
        raise ValueError(f"rank {x.ndim} inconsistent with {n_spatial} spatial axes")
    return T.tmean(x, axis=axes)


def dense(x: Tensor, W: Tensor, bias: Tensor) -> Tensor:
    """Affine map [b, c] @ [c, m] + [m]; the scalar head uses m = 1."""
    return T.matmul(x, W) + bias
