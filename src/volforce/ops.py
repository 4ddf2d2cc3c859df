"""Convolutional building blocks for spatio-temporal networks.

Axis layout everywhere: (batch, [time], spatial..., channel).  All
convolutions are cross-correlations (no kernel flip), the usual deep
learning convention, with zero SAME padding: out_extent = ceil(in / s),
pad_before = pad_total // 2.  Temporal axes are never strided and use
symmetric (non-causal) SAME padding.

``conv_nd`` is the one fast convolution (an autodiff primitive);
``conv_spatial``, ``conv_st`` and ``factorized_conv`` are calls of it.
It has one array path, a fold run per sample.  The fold moves the first
axis's taps into the GEMM's output columns (a one-axis kn2row) and the
last axis's taps into its inner dimension (a one-axis im2col, free
because with channels last they are one contiguous run): 9 GEMMs rather
than 81 for 4D, on buffers that stay in cache.  Its dK puts every middle
offset's window side by side in a tile of whole frames, one wide GEMM per
tile.  Its dx is the same fold run on the output gradient with the kernel
flipped when stride 1 and odd kernels make the padding symmetric, and a
scatter otherwise.  A temporal axis with k_t = 1 joins the batch, so that
call is exactly the per-frame convolution.  A strided first axis makes
the batch the first axis of one sample, with a unit kernel, so the fold
strides only the axes after its first and runs no loop over samples.

The fold's per-sample work runs inline or, when ``_over_samples`` allows,
on the process's one worker pool (``tensor._pool``, one thread per usable
CPU; making it pins numpy's OpenBLAS to one thread).  Each sample is
written by one worker and the dK partials add in sample order in the
calling thread, so no result depends on the worker count.

``conv_nd_reference`` is the slow, straight-line evaluation of the N-D
convolution sum and is the correctness oracle for every faster path in
this module.  Its accumulation order is pinned (documented below) so an
independently written loop implementation can reproduce it bit for bit.

``batch_norm`` is the one normalization primitive.  With ``relu`` it also
applies the ReLU, so each pre-activation of a ``ResidualBlock`` (BN then
ReLU) is a single graph node that keeps two arrays the size of its input.
It runs on a view of n rows of c channels as rows of up to ``NORM_ROW``
elements: its elementwise passes are the op-by-op expression's, bit for
bit, and its channel sums follow a lane order fixed by (n, c) alone, with
no thread and no BLAS call.  Its elementwise passes run by ranges of those
rows on the pool once they write ``tensor.SPLIT_MIN_BYTES``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product as iproduct
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from volforce import tensor as T
from volforce.tensor import Tensor


def same_pad(extent: int, k: int, stride: int) -> tuple[int, int, int]:
    """(out_extent, pad_before, pad_after) for SAME zero padding."""
    out = -(-extent // stride)
    total = max(0, (out - 1) * stride + k - extent)
    return out, total // 2, total - total // 2


def _check_conv(x_shape, K_shape, stride: int) -> int:
    """Validate a convolution call; returns N, the number of convolved axes."""
    n = len(K_shape) - 2
    if n not in (2, 3, 4):
        raise ValueError(f"convolution supports 2, 3 or 4 convolved axes, got N={n}")
    if len(x_shape) != n + 2:
        raise ValueError(f"input rank {len(x_shape)} does not match kernel rank {len(K_shape)}")
    if x_shape[-1] != K_shape[-2]:
        raise ValueError(f"channel mismatch: input has {x_shape[-1]}, kernel expects {K_shape[-2]}")
    if stride < 1:
        raise ValueError(f"stride must be at least 1, got stride={stride}")
    return n


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
    n = _check_conv(xd.shape, Kd.shape, stride)
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

# Bound on one tile of the fold's dK windows (a tile holds at least one frame).
GATHER_CHUNK_BYTES = 8 << 20
# Bound on the fold's forward window and product tiles (whole frames, at
# least one).  With whole-sample buffers per worker, train-resnet4d's peak
# RSS read 345 MB on a 2-CPU host; with 1 MB tiles 328-334 MB (serial: 331).
FRAME_TILE_BYTES = 1 << 20
# A fold call whose per-sample Z is smaller runs its samples inline: with
# no cutoff, float64 calls of a few KB took 1.3-2.1 ms instead of 0.5-0.7
# and tier-1 41 s instead of 32 (2-CPU host); convgru's gate maps pass.
POOL_MIN_BYTES = 64 << 10


def _over_samples(batch: int, z_bytes: int, out_bytes: int, scratch, run) -> None:
    """Call ``run(samples, scratch())`` over the batch: inline, or on the pool
    with one contiguous range of samples per usable CPU when every CPU gets
    a worker, a sample's Z is at least ``POOL_MIN_BYTES`` and the workers'
    sets fit in two sets (train-resnet4d's peak RSS +1.1% on 2 CPUs) or in
    the call's output.  ``scratch()`` returns (its buffers or None, views
    into them); every set is made here: a worker's own allocations come from its
    own glibc arena, which measured a higher peak RSS.  The pool is the
    process's one (``T._pool``); in a chunk of ``T._over_chunks``, none."""
    cpus, first = T._cpus(), scratch()
    set_bytes = sum(a.nbytes for a in first[0] if a is not None)
    if not (1 < cpus <= batch and z_bytes >= POOL_MIN_BYTES
            and cpus * set_bytes <= max(2 * set_bytes, out_bytes)):
        return run(range(batch), first)
    ranges = [range(w * batch // cpus, (w + 1) * batch // cpus) for w in range(cpus)]
    sets = [first] + [scratch() for _ in ranges[1:]]
    list(T._pool().map(run, ranges, sets))


@lru_cache(maxsize=256)
def _window_index(kernel: tuple[int, ...], out_extents: tuple[int, ...],
                  strides: tuple[int, ...]) -> tuple[tuple[slice, ...], ...]:
    """Per kernel offset (row-major), the index of its strided window into
    a padded array [lead, *padded, c]; built once per geometry."""
    return tuple((slice(None),) + tuple(slice(k, k + (o - 1) * s + 1, s)
                                        for k, o, s in zip(k_coord, out_extents, strides))
                 for k_coord in iproduct(*map(range, kernel)))


def _conv_folded(xd, Kd, strides, geom):
    """First axis at stride 1, other axes at any stride, any c_in: a one-axis
    kn2row on the first axis and a one-axis im2col on the last, per sample.

    The first axis's k0 taps fold into the GEMM's output columns.  With
    channels last, the k_l taps × c_in of one output position along the
    last axis are one contiguous run of the padded input, so they fold
    into the GEMM's inner dimension at no extra copy.  Per sample, the
    trailing axes are zero-padded into one reused buffer (a sample with
    none padded is read, and its dx written, in place); per tile of
    whole frames (at least one, within ``FRAME_TILE_BYTES``), each middle
    offset j (over the axes between the first and the last) copies its
    window [frames, *out_mid, o_l, k_l, c_in] into one reused buffer and
    adds ``buf @ Kf[j]`` into those frames of Z [e0, *out_trail, k0 *
    c_out]; k0 shifted whole-frame adds of Z's column blocks then give the
    output.  That is 9 GEMMs per sample and tile for 4D, 3 for 3D and 1
    for 2D.  Middle offsets whose window lies wholly in the padding add
    nothing and are skipped.  A call with no trailing axis gets a unit one.

    ``_over_samples`` gives each worker thread a range of samples and its
    own buffers; a worker writes only its samples' output, dx and dK rows.

    Backward builds dZ from k0 shifted copies of g per sample.  dK copies
    every live offset's window side by side into a tile of whole frames
    (at least one, within ``GATHER_CHUNK_BYTES``) and runs one GEMM
    ``wideᵀ @ dZ`` per tile; a sample's tiles sum into its partial, and
    the calling thread adds the partials in sample order, so k_t = 1
    stays the per-frame convolution bit for bit.  dx takes one of
    two routes.  With stride 1 and odd kernel extents on every axis the
    SAME padding is symmetric, so dx is this function's forward of g with
    the kernel flipped on every axis and c_in, c_out swapped: GEMMs of the
    forward's shape and no scatter.  A strided or even-kernel call's dx is
    no SAME convolution of g, so it scatters ``dZ @ Kf[j]ᵀ`` into a padded
    sample with k_l strided adds per offset.
    """
    out_shape = (xd.shape[0],) + tuple(g[0] for g in geom) + (Kd.shape[-1],)
    if xd.ndim == 3:
        xd, Kd, strides, geom = xd[:, :, None], Kd[:, None], strides + (1,), geom + [(1, 0, 0)]
    batch, e0, cin = xd.shape[0], xd.shape[1], xd.shape[-1]
    k0, kl, cout = Kd.shape[0], Kd.shape[-3], Kd.shape[-1]
    lo0 = geom[0][1]
    out_trail = tuple(g[0] for g in geom[1:])
    padded_trail = tuple(e + lo + hi for e, (_, lo, hi) in zip(xd.shape[2:-1], geom[1:]))
    inner = (slice(None),) + tuple(slice(lo, lo + e)
                                   for e, (_, lo, _) in zip(xd.shape[2:-1], geom[1:]))
    Kf = np.moveaxis(Kd, 0, -2).reshape(-1, kl * cin, k0 * cout)
    # per middle offset (row-major), its window into a sample's last-axis
    # windows, which already hold the last axis's taps
    mid_kernel = Kd.shape[1:-3]
    index = _window_index(mid_kernel + (1,), out_trail, strides[1:])
    live = [j for j, k_coord in enumerate(iproduct(*map(range, mid_kernel)))
            if all(k + (o - 1) * s >= lo and k - lo < e for k, (o, lo, _), s, e
                   in zip(k_coord, geom[1:-1], strides[1:-1], xd.shape[2:-2]))]
    frame = int(np.prod(out_trail))
    rows = e0 * frame
    # (tap k, output frames a0:a1) with input frame a + k - lo0 inside [0, e0);
    # the centre tap k = lo0 covers every frame and goes first
    taps = [(lo0, 0, e0)] + [(k, max(0, lo0 - k), min(e0, e0 + lo0 - k))
                             for k in range(k0) if k != lo0]

    def last_axis_windows(p, writeable=False):
        """p's last-axis windows [e0, *padded_mid, positions, k_l, c] (a view)."""
        return np.swapaxes(sliding_window_view(p, kl, axis=-2, writeable=writeable), -1, -2)

    def padded_sample(c, writeable=False):
        """One zeroed buffer for a sample padded on the trailing axes, and its
        last-axis windows; (None, None) when no trailing axis is padded."""
        if padded_trail == xd.shape[2:-1]:
            return None, None
        p = np.zeros((e0,) + padded_trail + (c,), dtype=xd.dtype)
        return p, last_axis_windows(p, writeable)

    def sample_windows(b, xp, xw):
        """Sample b's last-axis windows: x[b]'s own, or xw once x[b] is in xp."""
        if xp is None:
            return last_axis_windows(xd[b])
        xp[inner] = xd[b]
        return xw

    z_bytes = rows * k0 * cout * xd.itemsize
    ftile = min(e0, max(1, FRAME_TILE_BYTES // (frame * max(kl * cin, k0 * cout) * xd.itemsize)))

    def frame_tiles(t):
        return [(f0, min(f0 + t, e0)) for f0 in range(0, e0, t)]

    def forward_scratch():
        """A worker's padded sample, Z, window and product buffers, and per
        tile of frames: its rows of Z and of those buffers, and its frames."""
        xp, xw = padded_sample(cin)
        Z = np.empty((rows, k0 * cout), dtype=xd.dtype)
        buf = np.empty((ftile * frame, kl * cin), dtype=xd.dtype)
        prod = np.empty((ftile * frame, k0 * cout), dtype=xd.dtype)
        return (xp, Z, buf, prod), (xw, [
            (Z[f0 * frame:f1 * frame], buf[:(f1 - f0) * frame],
             buf[:(f1 - f0) * frame].reshape((f1 - f0,) + out_trail + (kl, cin)),
             prod[:(f1 - f0) * frame], slice(f0, f1))
            for f0, f1 in frame_tiles(ftile)])

    def forward(samples, scratch):
        (xp, Z, _, _), (xw, tiled) = scratch
        Z3 = Z.reshape(e0, frame, k0, cout)
        for b in samples:
            sw = sample_windows(b, xp, xw)
            for zt, buf, buf_nd, prod, frames in tiled:
                for i, j in enumerate(live):
                    np.copyto(buf_nd, sw[frames][index[j]])
                    if i == 0:
                        np.matmul(buf, Kf[j], out=zt)
                    else:
                        zt += np.matmul(buf, Kf[j], out=prod)
            for k, a0, a1 in taps:
                if k == lo0:
                    np.copyto(out[b], Z3[:, :, k])
                else:
                    out[b, a0:a1] += Z3[a0 + k - lo0:a1 + k - lo0, :, k]

    # the output before the per-sample buffers: with glibc's heap this order
    # measured a lower peak RSS in batch-64 inference
    out = np.empty((batch, e0, frame, cout), dtype=xd.dtype)
    _over_samples(batch, z_bytes, out.nbytes, forward_scratch, forward)
    flip_dx = all(s == 1 for s in strides) and all(k % 2 for k in Kd.shape[:-2])

    def dz_pass(g, need_dK, scatter):
        """dK and/or the scatter dx, from dZ built per sample."""
        g3 = g.reshape(batch, e0, frame, cout)
        width = len(live) * kl * cin
        tile = min(e0, max(1, GATHER_CHUNK_BYTES // (frame * width * xd.itemsize)))
        parts = np.empty((batch, width, k0 * cout), dtype=xd.dtype) if need_dK else None
        dx = np.empty_like(xd) if scatter else None

        def scratch():
            """A worker's buffers, and per dK tile of frames: its wide rows, its
            rows of dZ, its frames and each live offset's block of wide; with
            the scatter, a padded dx sample, its windows and a product buffer."""
            # the dK tile before the per-sample buffers: with glibc's heap
            # this order measured a lower peak RSS in resnet4d training
            wide = np.empty((tile * frame, width), dtype=xd.dtype)
            wide_nd = wide.reshape((tile,) + out_trail + (len(live), kl, cin))
            xp, xw = padded_sample(cin)
            dZ = np.zeros((rows, k0 * cout), dtype=xd.dtype)  # unread frames stay zero
            tiled = [(wide[:(f1 - f0) * frame], dZ[f0 * frame:f1 * frame], slice(f0, f1),
                      [wide_nd[:f1 - f0, ..., i, :, :] for i in range(len(live))])
                     for f0, f1 in frame_tiles(tile)]
            prod = np.empty((width, k0 * cout), dtype=xd.dtype)
            if not scatter:
                return (wide, xp, dZ, prod), (xw, tiled, None)
            dxp, dxw = padded_sample(cin, writeable=True)
            buf = np.empty((rows, kl * cin), dtype=xd.dtype)
            return (wide, xp, dZ, prod, dxp, buf), (xw, tiled, dxw)

        def run(samples, scratch):
            (_, xp, dZ, prod, *scatter_bufs), (xw, tiled, dxw) = scratch
            dZ3 = dZ.reshape(e0, frame, k0, cout)
            for b in samples:
                for k, a0, a1 in taps:
                    dZ3[a0 + k - lo0:a1 + k - lo0, :, k] = g3[b, a0:a1]
                if need_dK:  # the sample's tiles sum into its partial, in order
                    sw = sample_windows(b, xp, xw)
                    for t, (wide, dz, frames, blocks) in enumerate(tiled):
                        for dst, j in zip(blocks, live):
                            np.copyto(dst, sw[frames][index[j]])
                        np.matmul(wide.T, dz, out=prod if t else parts[b])
                        if t:
                            parts[b] += prod
                if scatter:  # with no padded buffer, dx[b] is its own
                    dxp, buf = scatter_bufs
                    dxs, dxsw = (dxp, dxw) if dxp is not None else (
                        dx[b], last_axis_windows(dx[b], writeable=True))
                    buf_nd = buf.reshape((e0,) + out_trail + (kl, cin))
                    dxs.fill(0)
                    for j in live:
                        np.matmul(dZ, Kf[j].T, out=buf)
                        target = dxsw[index[j]]
                        for t in range(kl):
                            target[..., t, :] += buf_nd[..., t, :]
                    if dxp is not None:
                        dx[b] = dxp[inner]

        _over_samples(batch, z_bytes, g.nbytes, scratch, run)
        dKf = None
        if need_dK:
            dKw = np.zeros((width, k0 * cout), dtype=xd.dtype)
            for part in parts:  # the partials add in sample order
                dKw += part
            dKf = np.zeros_like(Kf)  # skipped offsets stay zero
            dKf[live] = dKw.reshape(len(live), kl * cin, k0 * cout)
        return dKf, dx

    def grads(g, need_dx, need_dK):
        scatter = need_dx and not flip_dx
        dKf = dx = dK = None
        if need_dK or scatter:
            dKf, dx = dz_pass(g, need_dK, scatter)
        if need_dx and flip_dx:
            Kt = np.swapaxes(Kd[(slice(None, None, -1),) * (Kd.ndim - 2)], -1, -2)
            dx = _conv_folded(g.reshape(xd.shape[:-1] + (cout,)), Kt, strides, geom)[0]
        if need_dK:
            dK = np.moveaxis(dKf.reshape(Kd.shape[1:-1] + (k0, cout)), -2, 0)
        return dx, dK

    return out.reshape(out_shape), grads


def conv_nd(x: Tensor, K: Tensor, stride: int = 1, temporal: bool = False) -> Tensor:
    """SAME-padded convolution over N = K.ndim - 2 in {2, 3, 4} axes.

    x: [b, *axes, c_in], K: [*kernel, c_in, c_out]; with ``temporal`` the
    first convolved axis is time and keeps stride 1.  One graph node per
    call and one array path, ``_conv_folded``, which pads one sample at a
    time: the backward keeps only x.

    A temporal axis with k_t = 1 joins the batch first, so such a call is
    exactly the per-frame convolution with K[0].  A strided first axis
    would make the fold compute every unstrided position, so such a call
    folds one sample, x[None], with kernel extent 1 on its first axis, the
    batch.  The fold splits a batch of at least one sample per usable CPU
    over one thread per CPU and from then on keeps numpy's OpenBLAS at one
    thread; any worker count gives the same bits.
    """
    n = _check_conv(x.shape, K.shape, stride)
    xd, Kd, lead = x.data, K.data, x.shape[:1]
    if temporal and Kd.shape[0] == 1:  # a reshape view: time keeps stride 1
        xd, Kd, lead = xd.reshape((-1,) + xd.shape[2:]), Kd[0], x.shape[:2]
        n, temporal = n - 1, False
    strides = tuple(1 if (temporal and i == 0) else stride for i in range(n))
    geom = [same_pad(xd.shape[1 + i], Kd.shape[i], strides[i]) for i in range(n)]
    if strides[0] > 1:  # the batch becomes the fold's first axis, with a unit kernel
        xd, Kd, strides, geom = xd[None], Kd[None], (1,) + strides, [(len(xd), 0, 0)] + geom
    out, grads = _conv_folded(xd, Kd, strides, geom)

    def backward_fn(g):
        dx, dK = grads(np.ascontiguousarray(g), x.requires_grad, K.requires_grad)
        if dK is not None:
            T._accumulate(K, dK)
        if dx is not None:
            T._accumulate(x, dx, owned=True)  # a fresh buffer; dK is a moveaxis view

    return T._make(out.reshape(lead + out.shape[-n - 1:]), (x, K), backward_fn)


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


# -- the layer tree ----------------------------------------------------------------


class Module:
    """Base of every layer: the parameter registry is the attribute tree.

    ``named_params``/``named_buffers`` walk ``vars(self)`` in assignment
    order.  A Tensor with ``requires_grad`` is a parameter, an ndarray is a
    buffer, and a Module child is walked under the prefix ``<attr>.``; any
    other attribute is skipped.  The order fixes the order of checkpoint
    entries, so layers assign their children in registry order.
    """

    def named_params(self, prefix: str = ""):
        for name, value in vars(self).items():
            if isinstance(value, Module):
                yield from value.named_params(f"{prefix}{name}.")
            elif isinstance(value, Tensor) and value.requires_grad:
                yield prefix + name, value

    def named_buffers(self, prefix: str = ""):
        for name, value in vars(self).items():
            if isinstance(value, Module):
                yield from value.named_buffers(f"{prefix}{name}.")
            elif isinstance(value, np.ndarray):
                yield prefix + name, value

    def param_count(self) -> int:
        return sum(p.size for _, p in self.named_params())


# -- normalization -----------------------------------------------------------------


class BatchNorm(Module):
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

    def __call__(self, x: Tensor, training: bool, relu: bool = False) -> Tensor:
        return batch_norm(x, self, training, relu=relu)


# Width, in elements, of the rows that batch norm sums its channels down.
# One [8,16,16,16,12] float32 channel sum (2-CPU host): 0.78 ms one 12-float
# row at a time, 0.11 ms over 256-element rows, 0.07 ms over 1,024; the
# whole norm's forward and backward timed within noise from 512 to 8,192.
NORM_ROW = 1024


@lru_cache(maxsize=256)
def _lanes(n: int, c: int) -> int:
    """m, the largest divisor of n with m * c <= ``NORM_ROW`` (1 when c is
    wider): batch norm views n rows of c channels as [n/m, m*c]."""
    return next(m for m in range(max(min(n, NORM_ROW // c), 1), 0, -1) if n % m == 0)


def _channel_sums(a: np.ndarray, c: int) -> np.ndarray:
    """Per-channel sums of a wide [n/m, m*c] view, in lane order: each of
    the m*c columns sums its n/m rows in row order, then a channel's m lane
    sums add in lane order (numpy's axis-0 reduction; with c = 1 it adds
    the lanes pairwise).  The order depends only on (n, c)."""
    return a.sum(axis=0).reshape(-1, c).sum(axis=0)


def batch_norm(x: Tensor, state: BatchNorm, training: bool, slot: int = 0,
               relu: bool = False) -> Tensor:
    """Normalize ``x`` with ``state``: one autodiff primitive over x, gamma, beta.

    ``slot`` picks the row of running statistics when they are kept per
    timestep ([slots, c]); plain [c] statistics have only slot 0.  With
    ``relu`` the node also applies the ReLU, in place on its output: a
    residual block's pre-activation is one node.  The forward evaluates
    the two-pass expression (mean as a sum times 1/n, then the mean of
    squared deviations, x - mu computed once).  The output is written
    into a buffer that is spent: in training the squared deviations; with
    no graph recorded (inference under ``T.no_grad``) x_hat itself, so
    that call allocates one array the size of x instead of two.  The
    backward masks its own gradient buffer by ``out > 0`` (with ``relu``),
    then applies the closed form in place, hands that buffer to x's
    gradient, and keeps only x_hat, sigma and the output.

    Every pass runs on the wide view [n/m, m*c] (``_lanes``), with the
    per-channel vectors tiled m times, so each elementwise value is the
    op-by-op expression's, bit for bit.  The passes between two sums are one
    ``T._over_rows`` call, into buffers made here.  The channel sums (the
    mean, the variance, dbeta and dgamma) are ``_channel_sums``' lane
    order, in the calling thread; when n*c <= ``NORM_ROW``, m = n and that
    is the plain per-channel order.
    """
    c = state.channels
    if x.shape[-1] != c:
        raise ValueError(f"expected {c} channels, got {x.shape[-1]}")
    n = x.size // c
    m = _lanes(n, c)
    dt = T.default_dtype()
    inv_n = np.asarray(1.0 / n, dt)
    # views: updates in place reach the state's arrays
    running_mean = np.atleast_2d(state.running_mean)[slot]
    running_var = np.atleast_2d(state.running_var)[slot]
    gamma, beta = state.gamma, state.beta
    xw = x.data.reshape(n // m, m * c)
    spent = None
    if training:
        if x.shape[0] < 2:
            raise ValueError("batch norm in training mode needs batch size >= 2")
        mu = np.tile(_channel_sums(xw, c) * inv_n, m)
        x_hat = np.empty(xw.shape, np.result_type(xw, mu))
        spent = np.empty_like(x_hat)

        def centre(r):  # spent is (x - mu) ** 2.0, bit for bit
            np.multiply(np.subtract(xw[r], mu, out=x_hat[r]), x_hat[r], out=spent[r])

        T._over_rows(x_hat, centre)
        var = _channel_sums(spent, c) * inv_n
        running_mean += state.momentum * (mu[:c] - running_mean)
        running_var += state.momentum * (var - running_var)
        sigma = np.sqrt(var + np.asarray(state.eps, dt))
    else:
        mu = np.tile(np.asarray(running_mean, dt), m)
        sigma = np.asarray(np.sqrt(running_var + state.eps), dt)
        x_hat = np.empty(xw.shape, np.result_type(xw, mu))
        records = x.requires_grad or gamma.requires_grad or beta.requires_grad
        if not (T._GRAD_ENABLED and records):
            spent = x_hat  # no graph keeps x_hat, so it becomes the output
    sigma_w, gamma_w, beta_w = (np.tile(v, m) for v in (sigma, gamma.data, beta.data))
    if np.result_type(x_hat, gamma.data, beta.data) != x_hat.dtype:
        spent = None  # gamma and beta widen the dtype: the output is a new array
    out = spent if spent is not None else np.empty(x_hat.shape, np.result_type(x_hat, gamma_w))

    def scale(r):
        if not training:
            np.subtract(xw[r], mu, out=x_hat[r])
        np.divide(x_hat[r], sigma_w, out=x_hat[r])
        np.add(np.multiply(x_hat[r], gamma_w, out=out[r]), beta_w, out=out[r])
        if relu:
            np.maximum(out[r], 0, out=out[r])

    T._over_rows(out, scale)
    out = out.reshape(x.shape)

    def backward_fn(g):
        # g is this node's own gradient buffer, freed after the call.  Wide
        # views are made here: one kept by the closure is one more array
        gw, outw = g.reshape(x_hat.shape), out.reshape(x_hat.shape)
        prod = np.empty(x_hat.shape, np.result_type(gw, x_hat))

        def mask_and_prod(r):  # g *= (out > 0), the mask as 1.0 and 0.0 in prod
            if relu:
                np.multiply(gw[r], np.greater(outw[r], 0, out=prod[r]), out=gw[r])
            np.multiply(gw[r], x_hat[r], out=prod[r])

        T._over_rows(gw, mask_and_prod)
        dbeta = _channel_sums(gw, c)
        dgamma = _channel_sums(prod, c)
        if x.requires_grad:
            mean_g, mean_gx, gain = (np.tile(v, m) for v in
                                     (dbeta * inv_n, dgamma * inv_n, gamma.data / sigma))

            def dx(r):  # gamma/sigma * (g - mean g - x_hat * mean(g x_hat)) in training
                if training:
                    np.subtract(gw[r], mean_g, out=gw[r])
                    np.subtract(gw[r], np.multiply(x_hat[r], mean_gx, out=prod[r]), out=gw[r])
                np.multiply(gw[r], gain, out=gw[r])

            T._over_rows(gw, dx)
            T._accumulate(x, g, owned=True)
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


def projection_kind(kind: str) -> str:
    """The unfactorized kind of a factorized one (its shortcut and initial
    convolutions use a full kernel); other kinds map to themselves."""
    return {"fac4d": "full4d", "fac3d": "st3d"}.get(kind, kind)


class Conv(Module):
    """One convolution layer (no bias; normalization supplies the shift)."""

    def __init__(self, kind: str, cin: int, cout: int, stride: int,
                 init: Callable[[tuple[int, ...]], np.ndarray], k: int = 3):
        n_spatial, temporal, factorized = _KIND_GEOM[kind]
        if factorized:
            raise ValueError("use FactorizedConv for factorized kinds")
        self.stride = stride
        self.weight = Tensor(init((k,) * (n_spatial + temporal) + (cin, cout)),
                             requires_grad=True)
        self.temporal = temporal

    def __call__(self, x: Tensor) -> Tensor:
        if self.temporal:
            return conv_st(x, self.weight, self.stride)
        return conv_spatial(x, self.weight, self.stride)


class FactorizedConv(Module):
    """Spatial kernel followed by temporal kernel (separable kernels only)."""

    def __init__(self, kind: str, cin: int, cout: int, stride: int,
                 init: Callable[[tuple[int, ...]], np.ndarray], k: int = 3):
        n_spatial, temporal, factorized = _KIND_GEOM[kind]
        if not (temporal and factorized):
            raise ValueError(f"kind {kind!r} is not a factorized spatio-temporal kind")
        self.stride = stride
        self.weight_spatial = Tensor(init((1,) + (k,) * n_spatial + (cin, cout)),
                                     requires_grad=True)
        self.weight_temporal = Tensor(init((k,) + (1,) * n_spatial + (cout, cout)),
                                      requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return factorized_conv(x, self.weight_spatial, self.weight_temporal, self.stride)


def make_conv(kind: str, cin: int, cout: int, stride: int, init, k: int = 3):
    if _KIND_GEOM[kind][2]:
        return FactorizedConv(kind, cin, cout, stride, init, k)
    return Conv(kind, cin, cout, stride, init, k)


class ResidualBlock(Module):
    """Pre-activation residual block: (BN -> ReLU -> conv) twice plus shortcut.

    Each BN -> ReLU is one ``batch_norm`` node with the ReLU fused in.
    The first convolution carries the spatial stride and any channel
    change; the shortcut is the identity unless extents or channels
    change, in which case a 1-kernel projection convolution with the
    block's stride is applied to the raw input.  The sum is not
    re-activated, so a zero residual path passes the input through
    unchanged.
    """

    def __init__(self, kind: str, cin: int, cout: int, stride: int,
                 init: Callable[[tuple[int, ...]], np.ndarray], k: int = 3):
        self.bn1 = BatchNorm(cin)
        self.conv1 = make_conv(kind, cin, cout, stride, init, k)
        self.bn2 = BatchNorm(cout)
        self.conv2 = make_conv(kind, cout, cout, 1, init, k)
        self.shortcut = None
        if stride != 1 or cin != cout:
            self.shortcut = Conv(projection_kind(kind), cin, cout, stride, init, k=1)

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        h = self.conv1(self.bn1(x, training, relu=True))
        h = self.conv2(self.bn2(h, training, relu=True))
        s = x if self.shortcut is None else self.shortcut(x)
        return h + s


# -- pooling ------------------------------------------------------------------------------


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
