import contextlib
import math
import os
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import numpy.testing as npt
import pytest

from volforce import architectures as A
from volforce import ops
from volforce import tensor as T
from volforce import training as TR
from volforce.tensor import Tensor

from helpers import finite_diff_check, loop_conv_nd, rel_err, square


def _rand_init(rng, scale=0.3):
    def init(shape):
        return (rng.normal(size=shape) * scale).astype(T.default_dtype())

    return init


def _held_arrays(nodes, skip: np.ndarray) -> list[np.ndarray]:
    """The arrays a graph keeps alive beyond ``skip`` (its input): the nodes'
    outputs plus the arrays captured by their backward closures."""
    held = {}
    for node in nodes:
        held[id(node.data)] = node.data
        for cell in node._backward.__closure__ or ():
            if isinstance(cell.cell_contents, np.ndarray):
                held[id(cell.cell_contents)] = cell.cell_contents
    held.pop(id(skip), None)
    return list(held.values())


def _created_nodes(out: Tensor, leaves) -> list[Tensor]:
    """The graph nodes behind ``out``, leaves excluded."""
    ids = {id(leaf) for leaf in leaves}
    return [node for node in T._toposort(out) if id(node) not in ids]


def _head(W: np.ndarray, bias: float) -> A._Head:
    """The scalar head with weights ``W`` [c, 1] and bias ``bias``."""
    head = A._Head(W.shape[0], lambda shape: W)
    head.b.data[:] = bias
    return head


class TestConvReference:
    def test_impulse_response_replicates_kernel(self, rng):
        # cross-correlation: output around the impulse reads the kernel
        # with offsets mirrored, i.e. out[c + d] = K[center - d]
        x = np.zeros((1, 5, 5, 1))
        x[0, 2, 2, 0] = 1.0
        K = rng.normal(size=(3, 3, 1, 1))
        out = ops.conv_nd_reference(x, K)
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                assert out[0, 2 + dy, 2 + dx, 0] == pytest.approx(
                    K[1 - dy, 1 - dx, 0, 0], rel=1e-12)

    def test_zero_kernel(self, rng):
        x = rng.normal(size=(1, 4, 4, 4, 2))
        out = ops.conv_nd_reference(x, np.zeros((3, 3, 3, 2, 3)))
        npt.assert_array_equal(out, np.zeros_like(out))

    def test_matches_independent_loop_exactly(self, rng):
        # both implementations pin float64 accumulation in kernel-row-major
        # order per output element, so agreement is bit-exact
        x = rng.normal(size=(1, 3, 5, 5, 5, 2))
        K = rng.normal(size=(3, 3, 3, 3, 2, 4))
        ref = ops.conv_nd_reference(x, K, stride=1, temporal=True)
        ind = loop_conv_nd(x, K, stride=1, temporal=True)
        npt.assert_array_equal(ref, ind)

    def test_matches_independent_loop_2d_strided(self, rng):
        x = rng.normal(size=(2, 6, 5, 3))
        K = rng.normal(size=(3, 3, 3, 2))
        npt.assert_array_equal(ops.conv_nd_reference(x, K, stride=2),
                               loop_conv_nd(x, K, stride=2))

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError, match="channel"):
            ops.conv_nd_reference(np.zeros((1, 4, 4, 2)), np.zeros((3, 3, 3, 1)))

    def test_unsupported_rank_rejected(self):
        with pytest.raises(ValueError, match="supports"):
            ops.conv_nd_reference(np.zeros((1, 4, 1)), np.zeros((3, 1, 1)))


@pytest.fixture
def fold_calls(monkeypatch):
    """The input shapes of the ``_conv_folded`` calls made from here on."""
    calls = []
    fold = ops._conv_folded

    def counted(*args):
        calls.append(args[0].shape)
        return fold(*args)

    monkeypatch.setattr(ops, "_conv_folded", counted)
    return calls


class TestConvPrimitive:
    # every call takes the fold, for c_in = 1 and c_in > 1 alike; a strided
    # first axis folds with the batch as the fold's first axis
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("cin", [1, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("temporal", [False, True])
    def test_matches_reference(self, rng, n, cin, stride, temporal):
        x = rng.normal(size=(2,) + (3, 5, 4, 6)[:n] + (cin,)).astype(np.float32)
        K = rng.normal(size=(3,) * n + (cin, 2)).astype(np.float32)
        fast = ops.conv_nd(Tensor(x), Tensor(K), stride, temporal).data
        ref = ops.conv_nd_reference(x, K, stride, temporal)
        assert fast.shape == ref.shape
        assert rel_err(fast, ref) <= 1e-5

    def test_one_channel_gradient_over_one_frame_tiles_float64(self, rng, monkeypatch):
        # one frame per fold dK tile, so a sample's dK sums over tiles; at
        # stride 2 the batch is the fold's first axis, so its frames are samples
        monkeypatch.setattr(ops, "GATHER_CHUNK_BYTES", 1)
        with T.use_dtype(np.float64):
            x = Tensor(rng.normal(size=(3, 4, 5, 4, 1)), requires_grad=True)
            K = Tensor(rng.normal(size=(3, 3, 3, 1, 2)) * 0.4, requires_grad=True)
            for stride in (1, 2):
                err = finite_diff_check(
                    lambda: T.tsum(square(ops.conv_spatial(x, K, stride))), [x, K], eps=1e-4)
                assert err < 1e-4

    def test_one_channel_fold_keeps_no_columns(self, rng, monkeypatch):
        # the fold's dK tiles within 1 MB; the peak stays below the [27, rows]
        # columns of gathered windows for the whole batch
        monkeypatch.setattr(ops, "GATHER_CHUNK_BYTES", 1 << 20)
        x = Tensor(rng.normal(size=(8, 16, 16, 16, 1)).astype(np.float32))
        K = Tensor(rng.normal(size=(3, 3, 3, 1, 4)).astype(np.float32), requires_grad=True)
        full_columns = 27 * x.size * 4
        padded = 8 * 18 ** 3 * 4
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = ops.conv_spatial(x, K, 1)
            held = tracemalloc.get_traced_memory()[0] - before
            T.backward(T.tsum(out))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # the graph holds the output and at most the padded input, no columns
        assert held < out.data.nbytes + padded + (64 << 10)
        assert peak < full_columns
        assert K.grad is not None

    # every call takes the fold, whatever c_in: (x shape, K shape, stride,
    # temporal); k0 = 2 pads asymmetrically, extents of 1 and 2 lie below the
    # kernel as in resnet4d's last blocks, the 1-channel cases are the
    # networks' first convolutions and gate input maps (flipped-kernel dx,
    # and even kernels' scatter dx), and a strided first axis (the "s2"
    # cases that are not temporal) folds with the batch as its first axis:
    # a residual block's strided convolution, its 1-kernel projection, and
    # a strided k_t = 1 call, whose frames join the batch first; a temporal
    # kernel with unit spatial extents pads no trailing axis, so the fold
    # reads each sample in place
    FOLD_CASES = {
        "2d k0=3": ((2, 5, 4, 3), (3, 3, 3, 2), 1, False),
        "2d temporal k0=2 s2": ((2, 4, 5, 3), (2, 3, 3, 2), 2, True),
        "2d temporal k_t=1": ((2, 3, 5, 3), (1, 3, 3, 2), 1, True),
        "3d k0=2": ((2, 4, 5, 3, 2), (2, 3, 2, 2, 3), 1, False),
        "3d temporal s2": ((2, 3, 5, 4, 2), (3, 3, 3, 2, 3), 2, True),
        "3d extent 1": ((2, 1, 1, 1, 3), (3, 3, 3, 3, 2), 1, False),
        "4d k0=3": ((2, 3, 4, 3, 5, 2), (3, 3, 3, 3, 2, 2), 1, False),
        "4d temporal": ((2, 3, 4, 3, 5, 2), (3, 3, 3, 3, 2, 2), 1, True),
        "4d temporal k0=2 s2": ((1, 4, 3, 4, 5, 3), (2, 3, 3, 3, 3, 2), 2, True),
        "4d temporal 1^3": ((2, 4, 1, 1, 1, 3), (3, 3, 3, 3, 3, 2), 1, True),
        "4d temporal 2^3 s2": ((2, 3, 2, 2, 2, 3), (3, 3, 3, 3, 3, 2), 2, True),
        "4d temporal 1ch": ((2, 3, 4, 3, 5, 1), (3, 3, 3, 3, 1, 2), 1, True),
        "3d k0=2 1ch": ((2, 4, 5, 3, 1), (2, 3, 2, 1, 3), 1, False),
        "3d k3 s2": ((3, 5, 4, 3, 2), (3, 3, 3, 2, 3), 2, False),
        "3d k1 s2": ((3, 5, 4, 3, 2), (1, 1, 1, 2, 3), 2, False),
        "k_t=1 s2": ((2, 3, 4, 5, 3, 2), (1, 3, 3, 3, 2, 3), 2, True),
        "4d temporal 1^3 kernel s2": ((2, 4, 3, 2, 3, 2), (3, 1, 1, 1, 2, 3), 2, True),
    }

    # (x shape, K shape, stride, temporal): whatever the first convolved
    # axis's stride, after a k_t = 1 axis joins the batch, conv_nd's forward
    # is one fold call
    PATH_CASES = {
        "2d 1ch": ((2, 5, 4, 1), (3, 3, 1, 2), 1, False),
        "3d 1ch": ((2, 4, 5, 3, 1), (3, 3, 3, 1, 4), 1, False),
        "4d temporal 1ch": ((2, 3, 4, 3, 5, 1), (3, 3, 3, 3, 1, 2), 1, True),
        "4d temporal 1ch s2": ((2, 3, 4, 3, 5, 1), (3, 3, 3, 3, 1, 2), 2, True),
        "k_t=1 1ch": ((2, 3, 4, 4, 4, 1), (1, 3, 3, 3, 1, 3), 1, True),
        "3d 1ch s2": ((2, 5, 4, 3, 1), (3, 3, 3, 1, 2), 2, False),
        "3d 3ch s2": ((2, 5, 4, 3, 3), (3, 3, 3, 3, 2), 2, False),
        "k_t=1 1ch s2": ((2, 3, 4, 4, 4, 1), (1, 3, 3, 3, 1, 3), 2, True),
        "k_t=1 3ch s2": ((2, 3, 4, 4, 4, 3), (1, 3, 3, 3, 3, 3), 2, True),
    }

    @pytest.mark.parametrize("case", list(PATH_CASES))
    def test_every_call_runs_the_fold_once(self, rng, fold_calls, case):
        x_shape, K_shape, stride, temporal = self.PATH_CASES[case]
        x = rng.normal(size=x_shape).astype(np.float32)
        K = rng.normal(size=K_shape).astype(np.float32)
        out = ops.conv_nd(Tensor(x), Tensor(K), stride, temporal).data
        assert len(fold_calls) == 1
        assert rel_err(out, ops.conv_nd_reference(x, K, stride, temporal)) <= 1e-5

    @pytest.mark.parametrize("case", list(FOLD_CASES))
    def test_fold_path_matches_reference_and_gradients(self, rng, case):
        x_shape, K_shape, stride, temporal = self.FOLD_CASES[case]
        x = rng.normal(size=x_shape)
        K = rng.normal(size=K_shape) * 0.4
        fast = ops.conv_nd(Tensor(x.astype(np.float32)), Tensor(K.astype(np.float32)),
                           stride, temporal).data
        ref = ops.conv_nd_reference(x.astype(np.float32), K.astype(np.float32),
                                    stride, temporal)
        assert fast.shape == ref.shape
        assert rel_err(fast, ref) <= 1e-5
        with T.use_dtype(np.float64):
            xt, Kt = Tensor(x, requires_grad=True), Tensor(K, requires_grad=True)
            err = finite_diff_check(
                lambda: T.tsum(square(ops.conv_nd(xt, Kt, stride, temporal))), [xt, Kt],
                eps=1e-4, max_elements=32)
        assert err < 1e-4

    # <conv(x, K), g> = <x, dx> = <K, dK> in float64 involves every entry of
    # dx and dK, where the finite-difference check samples 32; "3d s2" folds
    # with the batch as the fold's first axis
    ADJOINT_CASES = dict(FOLD_CASES, **{"3d s2": ((2, 5, 4, 3, 2), (3, 3, 3, 2, 3), 2, False)})

    @pytest.mark.parametrize("case", list(ADJOINT_CASES))
    def test_adjoint_identity_float64(self, rng, case):
        x_shape, K_shape, stride, temporal = self.ADJOINT_CASES[case]
        with T.use_dtype(np.float64):
            x = Tensor(rng.normal(size=x_shape), requires_grad=True)
            K = Tensor(rng.normal(size=K_shape), requires_grad=True)
            out = ops.conv_nd(x, K, stride, temporal)
            g = rng.normal(size=out.shape)
            T.backward(T.tsum(out * Tensor(g)))
        forward = np.vdot(out.data, g)
        assert abs(np.vdot(x.data, x.grad) - forward) <= 1e-12 * abs(forward)
        assert abs(np.vdot(K.data, K.grad) - forward) <= 1e-12 * abs(forward)

    # dK runs one wide GEMM per tile of whole frames, bounded by
    # GATHER_CHUNK_BYTES; a frame's tile is frame rows by n_live·k_l·c_in
    # columns.  Per case: that frame's float64 bytes and the frames per tile,
    # so each sample spans several tiles and the last one is partial
    TILE_CASES = {"3d k0=2": (15 * 12 * 8, 3), "4d temporal": (60 * 54 * 8, 2),
                  "3d temporal s2": (6 * 18 * 8, 2), "4d temporal 1^3": (1 * 9 * 8, 3)}

    @classmethod
    def several_frame_tiles(cls, monkeypatch, case, itemsize):
        """Tile budgets that split each sample of a TILE_CASES call into that
        case's frames per tile, for dK and for the forward, whose frame is
        its output positions by max(k_l·c_in, k0·c_out) (the same with c_in
        and c_out swapped in both flipped-kernel dx cases)."""
        frame_bytes, frames = cls.TILE_CASES[case]
        x_shape, K_shape, stride, _ = cls.FOLD_CASES[case]
        assert frames < x_shape[1] and x_shape[1] % frames
        monkeypatch.setattr(ops, "GATHER_CHUNK_BYTES", frame_bytes * frames * itemsize // 8)
        positions = int(np.prod([-(-e // stride) for e in x_shape[2:-1]]))
        width = max(K_shape[-3] * K_shape[-2], K_shape[0] * K_shape[-1])
        monkeypatch.setattr(ops, "FRAME_TILE_BYTES", positions * width * itemsize * frames)

    @pytest.mark.parametrize("case", list(TILE_CASES))
    def test_fold_dK_over_several_frame_tiles(self, rng, monkeypatch, case):
        self.several_frame_tiles(monkeypatch, case, 8)
        x_shape, K_shape, stride, temporal = self.FOLD_CASES[case]
        with T.use_dtype(np.float64):
            x = Tensor(rng.normal(size=x_shape), requires_grad=True)
            K = Tensor(rng.normal(size=K_shape) * 0.4, requires_grad=True)
            out = ops.conv_nd(x, K, stride, temporal)
            assert rel_err(out.data, ops.conv_nd_reference(x.data, K.data, stride,
                                                           temporal)) <= 1e-12
            g = rng.normal(size=out.shape)
            T.backward(T.tsum(out * Tensor(g)))
            forward = np.vdot(out.data, g)
            assert abs(np.vdot(K.data, K.grad) - forward) <= 1e-12 * abs(forward)
            assert abs(np.vdot(x.data, x.grad) - forward) <= 1e-12 * abs(forward)
            err = finite_diff_check(
                lambda: T.tsum(square(ops.conv_nd(x, K, stride, temporal))), [x, K],
                eps=1e-4, max_elements=32)
        assert err < 1e-4

    # stride 1 and odd kernels on every axis: dx is the fold of g with the
    # flipped kernel (a second _conv_folded call); otherwise dx is scattered
    @pytest.mark.parametrize("case, dx_by_forward", [
        ("2d k0=3", True), ("2d temporal k_t=1", True), ("4d temporal", True),
        ("3d extent 1", True), ("3d k0=2", False), ("3d temporal s2", False),
        ("4d temporal k0=2 s2", False), ("3d k3 s2", False)])
    def test_fold_dx_route(self, rng, fold_calls, case, dx_by_forward):
        x_shape, K_shape, stride, temporal = self.FOLD_CASES[case]
        K = Tensor(rng.normal(size=K_shape).astype(np.float32), requires_grad=True)
        for x_grad in (False, True):
            x = Tensor(rng.normal(size=x_shape).astype(np.float32), requires_grad=x_grad)
            out = ops.conv_nd(x, K, stride, temporal)
            del fold_calls[:]
            T.backward(T.tsum(out))
            assert len(fold_calls) == (x_grad and dx_by_forward)

    def test_folded_buffers_are_per_sample_and_not_kept(self, rng, fold_workers):
        x = Tensor(rng.normal(size=(8, 16, 16, 16, 4)).astype(np.float32), requires_grad=True)
        K = Tensor(rng.normal(size=(3, 3, 3, 4, 8)).astype(np.float32), requires_grad=True)
        padded = 8 * 16 * 18 * 18 * 4 * 4  # only the trailing axes are padded
        out_bytes = 8 * 16 ** 3 * 8 * 4
        batch_z = 8 * 16 ** 3 * 3 * 8 * 4  # Z of the whole batch, about 3.1 MB
        # each worker holds its own per-sample buffers: the bound holds on
        # this host's CPUs, on two and on eight.  Three or more sets exceed
        # both two sets and the output, so only two workers take the pool
        for workers in sorted({1, 2, len(os.sched_getaffinity(0)), 8}):
            used = fold_workers(workers)
            pooled_before = len(used)
            x.grad = K.grad = None
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                out = ops.conv_spatial(x, K, 1)
                held = tracemalloc.get_traced_memory()[0] - before
                T.backward(T.tsum(out))
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            # the graph holds the output and the padded input, no fold buffers
            assert held < out_bytes + padded + (64 << 10)
            # beyond the output, padded input, g and dx: less than half a batch Z
            assert peak < 2 * out_bytes + padded + x.data.nbytes + batch_z // 2
            assert K.grad is not None and x.grad is not None
            assert (len(used) > pooled_before) == (workers == 2)

    # the flipped-kernel and the scatter route: x.grad is the dx buffer itself
    @pytest.mark.parametrize("stride", [1, 2])
    def test_fresh_dx_becomes_x_grad_without_a_copy(self, rng, monkeypatch, stride):
        handed = []
        fold = ops._conv_folded

        def recorded(*args):
            out, grads = fold(*args)

            def kept(*gargs):
                dx, dK = grads(*gargs)
                handed.append(dx)
                return dx, dK

            return out, kept

        monkeypatch.setattr(ops, "_conv_folded", recorded)
        accumulate = T._accumulate
        peaks = {}

        def traced(t, g, owned=False):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            accumulate(t, g, owned)
            peaks[id(t)] = tracemalloc.get_traced_memory()[1] - before

        monkeypatch.setattr(T, "_accumulate", traced)
        x = Tensor(rng.normal(size=(8, 16, 16, 16, 16)).astype(np.float32), requires_grad=True)
        K = Tensor(rng.normal(size=(3, 3, 3, 16, 16)).astype(np.float32), requires_grad=True)
        out = ops.conv_spatial(x, K, stride)
        tracemalloc.start()
        try:
            out._backward(rng.normal(size=out.shape).astype(np.float32))
        finally:
            tracemalloc.stop()
        assert np.shares_memory(x.grad, handed[-1]) and x.grad.shape == x.shape
        # a copy of dx would add one input's bytes (2 MiB) here
        assert peaks[id(x)] < x.data.nbytes // 4
        assert not np.shares_memory(K.grad, handed[-1]) and K.grad.flags.c_contiguous

    def test_strided_call_keeps_no_padded_batch(self, rng):
        # convgru's block2.conv1: the fold pads its one sample (the whole
        # batch) in a scratch buffer, so the graph keeps about the output
        x = Tensor(rng.normal(size=(8, 16, 16, 16, 16)).astype(np.float32), requires_grad=True)
        K = Tensor(rng.normal(size=(3, 3, 3, 16, 32)).astype(np.float32), requires_grad=True)
        out_bytes = 8 * 8 ** 3 * 32 * 4
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = ops.conv_spatial(x, K, 2)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out.data.nbytes == out_bytes
        assert held < out_bytes + (64 << 10)

    @pytest.mark.parametrize("stride", [0, -1])
    def test_stride_below_one_rejected(self, rng, stride):
        x = rng.normal(size=(1, 4, 4, 2)).astype(np.float32)
        K = rng.normal(size=(3, 3, 2, 2)).astype(np.float32)
        with pytest.raises(ValueError, match=f"stride={stride}"):
            ops.conv_nd(Tensor(x), Tensor(K), stride)
        with pytest.raises(ValueError, match=f"stride={stride}"):
            ops.conv_nd_reference(x, K, stride)

    def test_one_graph_node_per_call(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4, 4, 4, 2)).astype(np.float32), requires_grad=True)
        K = Tensor(rng.normal(size=(3, 3, 3, 3, 2, 3)).astype(np.float32), requires_grad=True)
        assert ops.conv_st(x, K, 2)._parents == (x, K)
        K_S = Tensor(rng.normal(size=(1, 3, 3, 3, 2, 3)).astype(np.float32), requires_grad=True)
        K_T = Tensor(rng.normal(size=(3, 1, 1, 1, 3, 3)).astype(np.float32), requires_grad=True)
        out = ops.factorized_conv(x, K_S, K_T, 1)
        assert out._parents[1] is K_T and out._parents[0]._parents == (x, K_S)


class TestConv4d:
    def test_kt1_equals_per_timestep_3d(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4, 4, 4, 2)).astype(np.float32))
        K = Tensor(rng.normal(size=(1, 3, 3, 3, 2, 3)).astype(np.float32))
        merged = ops.conv_st(x, K, stride=1).data
        per_step = np.stack([ops.conv_spatial(x[:, t], K[0], 1).data
                             for t in range(3)], axis=1)
        npt.assert_array_equal(merged, per_step)
        # backward: dx per frame, and dK as the per-frame partials summed in
        # sample order (batch-major, then time)
        G = rng.normal(size=merged.shape).astype(np.float32)
        xg, Kg = Tensor(x.data, requires_grad=True), Tensor(K.data, requires_grad=True)
        T.backward(T.tsum(ops.conv_st(xg, Kg, stride=1) * Tensor(G)))
        dK = None
        for b in range(2):
            for t in range(3):
                xf = Tensor(x.data[b:b + 1, t], requires_grad=True)
                Kf = Tensor(K.data[0], requires_grad=True)
                T.backward(T.tsum(ops.conv_spatial(xf, Kf, 1) * Tensor(G[b:b + 1, t])))
                npt.assert_array_equal(xg.grad[b:b + 1, t], xf.grad)
                dK = Kf.grad if dK is None else dK + Kf.grad
        npt.assert_array_equal(Kg.grad[0], dK)

    def test_kt1_equals_per_timestep_3d_over_frame_tiles(self, rng, monkeypatch):
        # dK tiles of 3 of each sample's 4 frames (1,152 float32 bytes each)
        monkeypatch.setattr(ops, "GATHER_CHUNK_BYTES", 3 * 1152)
        self.test_kt1_equals_per_timestep_3d(rng)

    def test_kt1_never_calls_conv_spatial(self, rng, monkeypatch):
        # conv_st with k_t = 1 is one node over (x, K), not a composition
        def forbidden(*args):
            raise AssertionError("conv_st must not call conv_spatial")

        monkeypatch.setattr(ops, "conv_spatial", forbidden)
        x = Tensor(rng.normal(size=(2, 3, 4, 4, 4, 2)).astype(np.float32), requires_grad=True)
        K = Tensor(rng.normal(size=(1, 3, 3, 3, 2, 3)).astype(np.float32), requires_grad=True)
        shortcut = Tensor(rng.normal(size=(1, 1, 1, 1, 2, 4)).astype(np.float32),
                          requires_grad=True)
        for kernel, stride, shape in ((K, 1, (2, 3, 4, 4, 4, 3)),
                                      (shortcut, 2, (2, 3, 2, 2, 2, 4))):
            out = ops.conv_st(x, kernel, stride)
            assert out.shape == shape
            assert out._parents == (x, kernel)
            T.backward(T.tsum(out))
        assert x.grad.shape == x.shape and K.grad.shape == K.shape

    @pytest.mark.parametrize("tile_bytes", [ops.GATHER_CHUNK_BYTES, 1])
    def test_kt1_equals_per_timestep_3d_one_channel(self, rng, monkeypatch, tile_bytes):
        # the fold with c_in = 1, at the default dK tile bound and at one
        # frame per tile (the bound reaches only dK, so both forwards agree)
        monkeypatch.setattr(ops, "GATHER_CHUNK_BYTES", tile_bytes)
        x = Tensor(rng.normal(size=(2, 3, 4, 4, 4, 1)).astype(np.float32))
        K = Tensor(rng.normal(size=(1, 3, 3, 3, 1, 3)).astype(np.float32))
        merged = ops.conv_st(x, K, stride=1).data
        per_step = np.stack([ops.conv_spatial(x[:, t], K[0], 1).data
                             for t in range(3)], axis=1)
        npt.assert_array_equal(merged, per_step)

    def test_matches_reference(self, rng):
        x = Tensor(rng.normal(size=(1, 4, 6, 6, 6, 2)).astype(np.float32))
        K = Tensor(rng.normal(size=(3, 3, 3, 3, 2, 3)).astype(np.float32))
        for stride in (1, 2):
            fast = ops.conv_st(x, K, stride=stride).data
            ref = ops.conv_nd_reference(x, K, stride=stride, temporal=True)
            assert rel_err(fast, ref) <= 1e-5

    def test_temporally_constant_input_symmetric_kernel(self, rng):
        frame = rng.normal(size=(1, 1, 4, 4, 4, 1)).astype(np.float32)
        x = Tensor(np.repeat(frame, 5, axis=1))
        K = rng.normal(size=(3, 3, 3, 3, 1, 1)).astype(np.float32)
        K[2] = K[0]  # temporally symmetric
        out = ops.conv_st(x, Tensor(K), stride=1).data
        # interior time steps see the full temporal window of equal frames
        for t in (2, 3):
            npt.assert_allclose(out[:, t], out[:, 1], rtol=1e-5, atol=1e-6)

    def test_temporal_extent_preserved_and_spatial_ceil(self, rng):
        x = Tensor(rng.normal(size=(1, 5, 6, 6, 6, 1)).astype(np.float32))
        K = Tensor(rng.normal(size=(3, 3, 3, 3, 1, 2)).astype(np.float32))
        out = ops.conv_st(x, K, stride=2)
        assert out.shape == (1, 5, 3, 3, 3, 2)


@pytest.fixture
def fold_workers(monkeypatch):
    """Sets the pool's worker count, with no size cutoff for the fold, on a
    pool of its own; the list it returns records the sample ranges of each
    use of the pool by the fold.  Work that a pool thread hands
    to the pool raises, where on a busy pool it would wait forever."""
    used = []
    parallel = T._parallel

    class Counted(ThreadPoolExecutor):
        def submit(self, *args, **kwargs):
            if threading.current_thread().name.startswith("fold_workers"):
                raise AssertionError("a pool thread dispatched work to its own pool")
            return super().submit(*args, **kwargs)

    def recorded(fn, parts):
        if len(parts) > 1 and isinstance(parts[0][0], range):  # the fold's (range, set)s
            used.append([samples for samples, _ in parts])  # keeping the sets would hold them
        return parallel(fn, parts)

    pool = Counted(2, thread_name_prefix="fold_workers", initializer=T._mark_pool_thread)
    monkeypatch.setattr(ops, "POOL_MIN_BYTES", 0)
    monkeypatch.setattr(T, "_POOL", {"threads": pool})
    monkeypatch.setattr(T, "_parallel", recorded)

    def set_workers(n):
        monkeypatch.setattr(T, "_workers", lambda: n)
        return used

    yield set_workers
    pool.shutdown()


def _fold_results(seed, case, dtype):
    """Output, dx and dK of one fold case at batch 3 (ranges of 1 and 2
    samples on two workers)."""
    x_shape, K_shape, stride, temporal = TestConvPrimitive.FOLD_CASES[case]
    rng = np.random.default_rng(seed)
    with T.use_dtype(dtype):
        x = Tensor(rng.normal(size=(3,) + x_shape[1:]), requires_grad=True)
        K = Tensor(rng.normal(size=K_shape) * 0.4, requires_grad=True)
        out = ops.conv_nd(x, K, stride, temporal)
        T.backward(T.tsum(out * Tensor(rng.normal(size=out.shape))))
    return out.data, x.grad, K.grad


# one sample's input shape for each representation of a tiny architecture
SAMPLE_SHAPES = {"4d-st": (2, 8, 8, 8, 1), "ps-4d-st": (2, 8, 8, 8, 8), "3d-st": (2, 8, 8, 1),
                 "3d-s": (8, 8, 8, 1), "2d-s": (8, 8, 1)}


def _tiny_net(arch, dtype):
    """A tiny ``arch`` with seeded weights, and its representation."""
    rep = A.ARCH_TABLE[arch][2][0]
    with T.use_dtype(dtype):
        net = A.build(A.config_from_arch(arch, rep, history=2, base_channels=4, n_blocks=2,
                                         spatial_output_stride=2), seed=0)
    return net, rep


def _arch_results(arch, dtype):
    """Training output, gradients and running statistics, then the eval
    output, of a tiny ``arch`` at batch 3 with seeded weights and inputs."""
    net, rep = _tiny_net(arch, dtype)
    rng = np.random.default_rng(5)
    with T.use_dtype(dtype):
        x = Tensor(rng.normal(size=(3,) + SAMPLE_SHAPES[rep]))
        out = net.forward(x, training=True)
        T.backward(T.tsum(out * Tensor(rng.normal(size=out.shape))))
        results = [out.data] + [p.grad for _, p in net.named_params()]
        results += [b.copy() for _, b in net.named_buffers()]
        return results + [net.forward(x, training=False).data]


class _Windows:
    """Seeded random windows, standing in for ``reps.WindowedData``."""

    def __init__(self, rep, n, dtype):
        self.x = np.random.default_rng(6).normal(size=(n,) + SAMPLE_SHAPES[rep]).astype(dtype)

    def __len__(self):
        return len(self.x)

    def gather(self, indices):
        indices = list(indices)
        return self.x[indices], np.zeros((len(indices), 1))


def _predict(arch, dtype, n):
    """``predict`` of a tiny ``arch`` over n windows, the net and the windows."""
    net, rep = _tiny_net(arch, dtype)
    net.label_norm[:] = (1.5, 0.25)
    data = _Windows(rep, n, dtype)
    with T.use_dtype(dtype):
        preds, _ = TR.predict(net, data)
    assert preds.dtype == dtype and preds.shape == (n,)
    return preds, net, data


def _recorded(calls, name, fn):
    """fn, appending (name, whether the main thread calls) to calls at each call."""
    def call(*args):
        calls.append((name, threading.current_thread() is threading.main_thread()))
        return fn(*args)

    return call


def _recorded_chunks(monkeypatch, calls, call_name=None, part_name=None):
    """Patches ``T._parallel`` to record, as ``_recorded`` does, each call
    with ``predict``'s chunks as its parts and each run of such a part."""
    parallel = T._parallel

    def call(fn, parts):
        if not isinstance(parts[0][0], slice):  # the fold's ranges
            return parallel(fn, parts)
        if call_name:
            calls.append((call_name, threading.current_thread() is threading.main_thread()))
        return parallel(_recorded(calls, part_name, fn) if part_name else fn, parts)

    monkeypatch.setattr(T, "_parallel", call)


class TestFoldPool:
    # flipped-kernel dx ("2d k0=3", "4d temporal", "4d temporal 1ch"), scatter
    # dx (the others, "3d temporal s2" strided, and "4d temporal 1^3 kernel
    # s2", whose samples and dx are read and written in place); the
    # TILE_CASES run dK over several tiles
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", ["2d k0=3", "4d temporal", "3d k0=2", "3d temporal s2",
                                      "4d temporal k0=2 s2", "4d temporal 1^3",
                                      "4d temporal 1ch", "4d temporal 1^3 kernel s2"])
    def test_one_and_two_workers_agree_bitwise(self, monkeypatch, fold_workers, dtype, case):
        if case in TestConvPrimitive.TILE_CASES:
            TestConvPrimitive.several_frame_tiles(monkeypatch, case, np.dtype(dtype).itemsize)
        results = {}
        for workers in (1, 2):
            used = fold_workers(workers)
            results[workers] = _fold_results(7, case, dtype)
        assert used  # the 2-worker run went to the pool
        for one, two in zip(results[1], results[2]):
            assert one.dtype == dtype
            npt.assert_array_equal(one, two)

    def test_pool_only_when_every_cpu_gets_a_worker_within_the_scratch_bound(
            self, fold_workers):
        ran = []

        def scratch():  # a set of 1,000 bytes
            return (np.empty(1000, np.uint8),), None

        def run(samples, scratch):
            ran.append(list(samples))

        used = fold_workers(3)
        # (batch, output bytes): fewer samples than CPUs; three sets above
        # both two sets and the output; three sets within the output
        for batch, out_bytes in [(2, 10 ** 6), (6, 2999), (7, 3000)]:
            del ran[:]
            ops._over_samples(batch, 1, out_bytes, scratch, run)
            pooled = len(ran) > 1
            assert sorted(ran) == ([[0, 1], [2, 3], [4, 5, 6]] if pooled
                                   else [list(range(batch))])
            assert pooled == ((batch, out_bytes) == (7, 3000))
        assert len(used) == 1

    def test_kt1_identity_on_the_pool(self, rng, monkeypatch, fold_workers):
        used = fold_workers(2)
        TestConv4d().test_kt1_equals_per_timestep_3d_over_frame_tiles(rng, monkeypatch)
        assert used

    def test_no_openblas_setter_runs_inline_and_leaves_blas_alone(self, monkeypatch,
                                                                   fold_workers):
        fold_workers(2)
        expected = _fold_results(3, "4d temporal", np.float32)
        blas = T._blas_threads()
        before = blas[1]() if blas else None
        monkeypatch.undo()

        def forbidden(*args, **kwargs):
            raise AssertionError("no pool without an OpenBLAS thread setter")

        monkeypatch.setattr(ops, "POOL_MIN_BYTES", 0)
        monkeypatch.setattr(T, "_blas_threads", lambda: None)
        monkeypatch.setattr(T, "_POOL", {})
        monkeypatch.setattr(T, "ThreadPoolExecutor", forbidden)
        try:
            if blas:
                blas[0](2)
            assert T._workers() == 1
            for got, want in zip(_fold_results(3, "4d temporal", np.float32), expected):
                npt.assert_array_equal(got, want)
            if blas:
                assert blas[1]() == 2
        finally:
            if blas:
                blas[0](before)

    def test_workers_without_sched_getaffinity(self, monkeypatch, fold_workers):
        # Windows has no os.sched_getaffinity, while numpy's wheel still
        # bundles the OpenBLAS whose thread count the pool pins
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(T, "_blas_threads", lambda: (lambda n: None, lambda: 1))
        workers = T._workers()
        assert isinstance(workers, int) and workers >= 1
        x = np.random.default_rng(4).normal(size=(4, 6, 6, 6, 3)).astype(np.float32)
        K = np.random.default_rng(5).normal(size=(3, 3, 3, 3, 2)).astype(np.float32)
        fast = ops.conv_spatial(Tensor(x), Tensor(K)).data
        assert rel_err(fast, ops.conv_nd_reference(x, K)) <= 1e-5

    # every fold call on the pool where each worker gets a sample, on
    # private pools of 1 to 8 workers
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_architecture_agrees_bitwise_over_worker_counts(self, fold_workers, dtype):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # threads interleave often
        try:
            for arch in sorted(A.ARCH_TABLE):
                fold_workers(1)
                expected = _arch_results(arch, dtype)
                for workers in (2, 3, 8):
                    fold_workers(workers)
                    got = _arch_results(arch, dtype)
                    assert len(got) == len(expected)
                    for a, b in zip(got, expected):
                        assert a.dtype == b.dtype
                        npt.assert_array_equal(a, b, err_msg=f"{arch} on {workers} workers")
        finally:
            sys.setswitchinterval(interval)

    def test_workers_keep_the_callers_errstate(self, fold_workers):
        # every output of this call overflows float32; its samples run on 2 workers
        used = fold_workers(2)
        x = Tensor(np.full((4, 4, 4, 4, 2), 3e38, np.float32))
        K = Tensor(np.ones((3, 3, 3, 2, 2), np.float32))
        with np.errstate(over="ignore"):
            assert np.isinf(ops.conv_spatial(x, K).data).all()
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            ops.conv_spatial(x, K)
        assert len(used) == 2

    def test_one_pool_for_the_fold_and_the_chunks(self, monkeypatch):
        made, ran = [], []

        class Recorded(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(T, "ThreadPoolExecutor", Recorded)
        monkeypatch.setattr(T, "_POOL", {})
        monkeypatch.setattr(T, "_workers", lambda: 2)
        monkeypatch.setattr(ops, "POOL_MIN_BYTES", 0)
        monkeypatch.setattr(ops, "_over_samples", _recorded(ran, "fold", ops._over_samples))
        _recorded_chunks(monkeypatch, ran, part_name="chunk")
        before = threading.active_count()
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(4, 6, 6, 6, 4)).astype(np.float32))
        try:
            ops.conv_spatial(x, Tensor(rng.normal(size=(3, 3, 3, 4, 4)).astype(np.float32)))
            assert ran == [("fold", True)] and T._POOL
            del ran[:]
            _predict("resnet3d-s", np.float32, 2 * TR.CHUNK_SAMPLES)
            # two chunks on pool threads, and the folds inside them
            assert ran.count(("chunk", False)) == 2 and ("fold", False) in ran
            assert not any(main for _, main in ran)
            assert len(made) == 1 and T._POOL["threads"] is made[0]
            assert threading.active_count() - before <= T._workers()
        finally:
            for pool in made:
                pool.shutdown()

    def test_one_worker_never_makes_a_pool(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("one worker runs everything inline")

        monkeypatch.setattr(T, "ThreadPoolExecutor", forbidden)
        monkeypatch.setattr(T, "_POOL", {})
        monkeypatch.setattr(T, "_workers", lambda: 1)
        monkeypatch.setattr(ops, "POOL_MIN_BYTES", 0)
        ran = []
        monkeypatch.setattr(ops, "_over_samples", _recorded(ran, "fold", ops._over_samples))
        _recorded_chunks(monkeypatch, ran, call_name="chunks")
        for arch in ("convgru-resnet3d", "resnet4d"):
            _arch_results(arch, np.float32)
            _predict(arch, np.float32, 2 * TR.CHUNK_SAMPLES)
        assert ("fold", True) in ran and ran.count(("chunks", True)) == 2
        assert all(main for _, main in ran) and not T._POOL


class TestChunkedPredict:
    # predict runs each batch as chunks of CHUNK_SAMPLES, on the pool
    PARTIAL = 2 * TR.CHUNK_SAMPLES + 3  # a partial last chunk

    def test_chunks_dispatch_no_nested_work(self, fold_workers, monkeypatch):
        # the fixture's pool raises on work submitted from its own threads
        fold_workers(2)
        threads = []
        forward = A.Network.forward

        def recorded(net, batch, training=False):
            threads.append(threading.current_thread())
            return forward(net, batch, training)

        monkeypatch.setattr(A.Network, "forward", recorded)
        for arch in sorted(A.ARCH_TABLE):
            del threads[:]
            _predict(arch, np.float32, self.PARTIAL)
            # the three chunks ran on the pool
            assert len(threads) == 3 and threading.current_thread() not in threads, arch

    def test_one_worker_runs_the_chunks_in_order_without_a_pool(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("one worker runs every chunk inline")

        monkeypatch.setattr(T, "ThreadPoolExecutor", forbidden)
        monkeypatch.setattr(T, "_POOL", {})
        monkeypatch.setattr(T, "_workers", lambda: 1)
        monkeypatch.setattr(ops, "POOL_MIN_BYTES", 0)
        seen = []
        forward = A.Network.forward

        def recorded(net, batch, training=False):
            seen.append(batch[:, 0].tobytes())
            return forward(net, batch, training)

        monkeypatch.setattr(A.Network, "forward", recorded)
        for arch in sorted(A.ARCH_TABLE):
            del seen[:]
            _, _, data = _predict(arch, np.float32, self.PARTIAL)
            assert seen == [data.x[s:s + TR.CHUNK_SAMPLES, 0].tobytes()
                            for s in range(0, self.PARTIAL, TR.CHUNK_SAMPLES)]
        assert not T._POOL

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_predictions_do_not_depend_on_the_worker_count(self, fold_workers, dtype):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # threads interleave often
        try:
            for arch in sorted(A.ARCH_TABLE):
                fold_workers(1)
                expected = _predict(arch, dtype, self.PARTIAL)[0]
                for workers in (2, 3, 4, 8):
                    fold_workers(workers)
                    npt.assert_array_equal(_predict(arch, dtype, self.PARTIAL)[0], expected,
                                           err_msg=f"{arch} on {workers} workers")
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_whole_chunks_equal_one_unchunked_forward(self, fold_workers, dtype):
        fold_workers(2)
        for arch in sorted(A.ARCH_TABLE):
            preds, net, data = _predict(arch, dtype, 3 * TR.CHUNK_SAMPLES)
            with T.use_dtype(dtype), T.no_grad():
                whole = net.forward(data.x, training=False).data.reshape(-1) * 0.25 + 1.5
            npt.assert_array_equal(preds, whole, err_msg=arch)


class TestFactorized:
    def _identity_spatial(self, c):
        K = np.zeros((1, 3, 3, 3, c, c), dtype=np.float32)
        for i in range(c):
            K[0, 1, 1, 1, i, i] = 1.0
        return Tensor(K)

    def _identity_temporal(self, c):
        K = np.zeros((3, 1, 1, 1, c, c), dtype=np.float32)
        for i in range(c):
            K[1, 0, 0, 0, i, i] = 1.0
        return Tensor(K)

    def test_temporal_identity_reduces_to_spatial(self, rng):
        x = Tensor(rng.normal(size=(1, 4, 5, 5, 5, 2)).astype(np.float32))
        K_S = Tensor(rng.normal(size=(1, 3, 3, 3, 2, 2)).astype(np.float32))
        fac = ops.factorized_conv(x, K_S, self._identity_temporal(2), 1).data
        spatial = ops.conv_st(x, K_S, 1).data
        npt.assert_allclose(fac, spatial, rtol=1e-6, atol=1e-7)

    def test_spatial_identity_reduces_to_temporal(self, rng):
        x = Tensor(rng.normal(size=(1, 4, 3, 3, 3, 2)).astype(np.float32))
        K_T = Tensor(rng.normal(size=(3, 1, 1, 1, 2, 2)).astype(np.float32))
        fac = ops.factorized_conv(x, self._identity_spatial(2), K_T, 1).data
        temporal = ops.conv_st(x, K_T, 1).data
        npt.assert_allclose(fac, temporal, rtol=1e-6, atol=1e-7)

    def test_separable_kernel_matches_full_conv(self, rng):
        for _ in range(5):
            x = Tensor(rng.normal(size=(1, 4, 5, 5, 5, 1)).astype(np.float32))
            ks = rng.normal(size=(1, 3, 3, 3, 1, 1)).astype(np.float32)
            kt = rng.normal(size=(3, 1, 1, 1, 1, 1)).astype(np.float32)
            full = Tensor(kt.reshape(3, 1, 1, 1, 1, 1) * ks.reshape(1, 3, 3, 3, 1, 1))
            a = ops.conv_st(x, full, 1).data
            b = ops.factorized_conv(x, Tensor(ks), Tensor(kt), 1).data
            assert rel_err(a, b) <= 1e-5

    def test_non_separable_kernel_does_not_match(self, rng):
        # representational-limit sanity: a coupled kernel is not reproduced
        # by the factorization built from its slices
        x = Tensor(rng.normal(size=(1, 4, 5, 5, 5, 1)).astype(np.float32))
        full = rng.normal(size=(3, 3, 3, 3, 1, 1)).astype(np.float32)
        ks = full[1:2].copy()
        kt = np.zeros((3, 1, 1, 1, 1, 1), dtype=np.float32)
        kt[:, 0, 0, 0, 0, 0] = full[:, 1, 1, 1, 0, 0]
        a = ops.conv_st(x, Tensor(full), 1).data
        b = ops.factorized_conv(x, Tensor(ks), Tensor(kt), 1).data
        assert rel_err(a, b) > 1e-2


class TestBatchNorm:
    def test_normalizes_to_zero_mean_unit_var(self, rng):
        bn = ops.BatchNorm(3)
        x = Tensor((rng.normal(size=(16, 4, 3)) * 2.0 + 5.0).astype(np.float32))
        out = bn(x, training=True).data
        npt.assert_allclose(out.mean(axis=(0, 1)), 0.0, atol=1e-5)
        npt.assert_allclose(out.var(axis=(0, 1)), 1.0, atol=1e-3)

    def test_gamma_beta_scale_shift(self, rng):
        bn = ops.BatchNorm(2)
        bn.gamma.data[:] = 2.0
        bn.beta.data[:] = 3.0
        x = Tensor(rng.normal(size=(32, 2)).astype(np.float32))
        out = bn(x, training=True).data
        npt.assert_allclose(out.mean(axis=0), 3.0, atol=1e-5)
        npt.assert_allclose(out.std(axis=0), 2.0, atol=1e-2)

    def test_matches_two_pass_oracle(self, rng):
        with T.use_dtype(np.float64):
            bn = ops.BatchNorm(4)
            x = rng.normal(size=(8, 3, 4)) * 3.0 + 1.0
            out = bn(Tensor(x), training=True).data
            mu = x.mean(axis=(0, 1))
            var = ((x - mu) ** 2).mean(axis=(0, 1))
            expected = (x - mu) / np.sqrt(var + bn.eps)
            npt.assert_allclose(out, expected, atol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_two_pass_expression(self, rng, dtype):
        # outputs and running statistics equal, bit for bit, the two-pass
        # expression evaluated in this order
        with T.use_dtype(dtype):
            bn = ops.BatchNorm(3, momentum=0.3)
            bn.gamma.data[:] = rng.normal(size=3)
            bn.beta.data[:] = rng.normal(size=3)
            gamma, beta = bn.gamma.data, bn.beta.data
            x = (rng.normal(size=(4, 5, 3)) * 2.0 + 1.0).astype(dtype)
            out = bn(Tensor(x), training=True).data
            inv_n = np.asarray(1.0 / 20, dtype)
            mu = x.sum(axis=(0, 1), keepdims=True) * inv_n
            var = ((x - mu) ** 2.0).sum(axis=(0, 1), keepdims=True) * inv_n
            expected = (x - mu) / np.sqrt(var + np.asarray(bn.eps, dtype)) * gamma + beta
            assert out.dtype == dtype
            npt.assert_array_equal(out, expected)
            running_mean, running_var = np.zeros(3), np.ones(3)
            running_mean += 0.3 * (mu.reshape(-1) - running_mean)
            running_var += 0.3 * (var.reshape(-1) - running_var)
            npt.assert_array_equal(bn.running_mean, running_mean)
            npt.assert_array_equal(bn.running_var, running_var)
            out = bn(Tensor(x), training=False).data
            sd = np.sqrt(running_var + bn.eps).astype(dtype)
            expected = (x - running_mean.astype(dtype)) / sd * gamma + beta
            npt.assert_array_equal(out, expected)

    def test_no_grad_eval_is_bitwise_and_allocates_one_array(self, rng):
        bn = ops.BatchNorm(8)
        bn.gamma.data[:] = rng.normal(size=8)
        bn.beta.data[:] = rng.normal(size=8)
        bn.running_mean[:] = rng.normal(size=8)
        x = Tensor(rng.normal(size=(16, 16, 16, 8)).astype(np.float32))
        kept = x.data.copy()
        recorded = bn(x, training=False)
        with T.no_grad():
            tracemalloc.start()
            try:
                quiet = bn(x, training=False)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert recorded.requires_grad and not quiet.requires_grad
        npt.assert_array_equal(quiet.data, recorded.data)
        npt.assert_array_equal(x.data, kept)
        # x_hat becomes the output: one array the size of x, not two
        assert peak < 1.5 * x.data.nbytes

    @pytest.mark.parametrize("relu", [False, True])
    def test_training_call_is_one_graph_node_holding_twice_its_input(self, rng, relu):
        bn = ops.BatchNorm(4)
        x = Tensor(rng.normal(size=(8, 6, 4)).astype(np.float32), requires_grad=True)
        out = bn(x, training=True, relu=relu)
        created = _created_nodes(out, (x, bn.gamma, bn.beta))
        assert created == [out]
        held = _held_arrays(created, x.data)
        assert sum(a.nbytes for a in held if a.size > bn.channels) <= 2 * x.data.nbytes

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", ["train", "eval", "no_grad"])
    def test_relu_is_the_max_of_the_plain_norm_and_masks_its_gradient(self, rng, dtype, mode):
        # bit for bit: out = max(plain, 0), and the gradients are the plain
        # node's fed g * (out > 0)
        with T.use_dtype(dtype):
            gamma, beta, mean = rng.normal(size=(3, 3))
            var = rng.uniform(0.5, 2.0, size=3)
            plain_bn, fused_bn = ops.BatchNorm(3, momentum=0.3), ops.BatchNorm(3, momentum=0.3)
            for bn in (plain_bn, fused_bn):
                bn.gamma.data[:], bn.beta.data[:] = gamma, beta
                bn.running_mean[:], bn.running_var[:] = mean, var
            x = (rng.normal(size=(4, 5, 3)) * 2.0 + 0.5).astype(dtype)
            x_plain, x_fused = Tensor(x, requires_grad=True), Tensor(x, requires_grad=True)
            training = mode == "train"
            with T.no_grad() if mode == "no_grad" else contextlib.nullcontext():
                plain = plain_bn(x_plain, training)
                fused = fused_bn(x_fused, training, relu=True)
            assert fused.data.dtype == dtype
            assert (plain.data < 0).any() and (plain.data > 0).any()
            npt.assert_array_equal(fused.data, np.maximum(plain.data, 0))
            npt.assert_array_equal(fused_bn.running_mean, plain_bn.running_mean)
            npt.assert_array_equal(fused_bn.running_var, plain_bn.running_var)
            if mode == "no_grad":
                assert not fused.requires_grad
                return
            g = rng.normal(size=x.shape).astype(dtype)
            T.backward(T.tsum(fused * Tensor(g)))
            T.backward(T.tsum(plain * Tensor(g * (fused.data > 0))))
            for a, b in ((x_fused, x_plain), (fused_bn.gamma, plain_bn.gamma),
                         (fused_bn.beta, plain_bn.beta)):
                assert a.grad.dtype == dtype
                npt.assert_array_equal(a.grad, b.grad)

    def test_running_stats_used_in_inference(self, rng):
        bn = ops.BatchNorm(2, momentum=1.0)
        x = rng.normal(size=(16, 2)).astype(np.float32) * 2.0 + 7.0
        bn(Tensor(x), training=True)
        npt.assert_allclose(bn.running_mean, x.mean(axis=0), rtol=1e-5)
        out = bn(Tensor(x), training=False).data
        npt.assert_allclose(out.mean(axis=0), 0.0, atol=1e-4)

    def test_batch_size_one_rejected_in_training(self):
        bn = ops.BatchNorm(2)
        with pytest.raises(ValueError, match="batch size"):
            bn(Tensor(np.ones((1, 2))), training=True)

    def test_collapsed_variance_channel_stays_bounded_at_inference(self):
        # a channel that is batch-constant during training drives its
        # running variance toward zero; small input drift at inference
        # must not blow up through the normalization
        bn = ops.BatchNorm(1)
        const = Tensor(np.full((8, 1), 0.5, dtype=np.float32))
        for _ in range(300):
            bn(const, training=True)
        assert bn.running_var[0] < 1e-6
        drifted = Tensor(np.full((8, 1), 0.51, dtype=np.float32))
        out = bn(drifted, training=False).data
        assert np.abs(out).max() <= 0.01 / np.sqrt(bn.eps) + 1e-6

    @staticmethod
    def _lane_sums(a: np.ndarray, m: int) -> np.ndarray:
        """Per-channel sums of ``a`` [..., c] in the documented lane order,
        written as loops: n rows of c channels read as n/m rows of m*c
        columns; each column adds its rows in row order, then each channel
        adds its m lane sums in lane order."""
        c = a.shape[-1]
        rows = a.reshape(-1, m * c)
        columns = rows[0].copy()
        for row in rows[1:]:
            columns += row
        total = columns[:c].copy()
        for lane in range(1, m):
            total += columns[lane * c:(lane + 1) * c]
        return total

    def test_wide_rows_sum_in_lane_order(self, rng):
        # n = 32768 rows of 12 channels: m = 64 (the largest divisor of n
        # with m * 12 <= 1024), so 512 rows of 768 columns
        shape, c = (8, 16, 16, 16, 12), 12
        n = int(np.prod(shape[:-1]))
        m = max(d for d in range(1, ops.NORM_ROW // c + 1) if n % d == 0)
        assert (m, n // m) == (64, 512)
        bn = ops.BatchNorm(c, momentum=0.3)
        bn.gamma.data[:] = rng.normal(size=c)
        bn.beta.data[:] = rng.normal(size=c)
        gamma, beta = bn.gamma.data, bn.beta.data
        x = (rng.normal(size=shape) * 2.0 + 5.0).astype(np.float32)
        xt = Tensor(x, requires_grad=True)
        out = bn(xt, training=True, relu=True)
        inv_n = np.asarray(1.0 / n, np.float32)
        mu = self._lane_sums(x, m) * inv_n
        dev = x - mu
        var = self._lane_sums(dev * dev, m) * inv_n
        x_hat = dev / np.sqrt(var + np.asarray(bn.eps, np.float32))
        npt.assert_array_equal(out.data, np.maximum(x_hat * gamma + beta, 0))
        running_mean, running_var = np.zeros(c), np.ones(c)
        running_mean += 0.3 * (mu - running_mean)
        running_var += 0.3 * (var - running_var)
        npt.assert_array_equal(bn.running_mean, running_mean)
        npt.assert_array_equal(bn.running_var, running_var)
        g = rng.normal(size=shape).astype(np.float32)
        T.backward(T.tsum(out * Tensor(g)))
        g *= out.data > 0
        npt.assert_array_equal(bn.beta.grad, self._lane_sums(g, m))
        npt.assert_array_equal(bn.gamma.grad, self._lane_sums(g * x_hat, m))

    # prime n (m = 1); c wider than a row (m = 1); the recurrent zero-state
    # shape (m = n); and a wide shape with m = 192, n/m = 6
    @pytest.mark.parametrize("shape", [(1031, 3), (3, 4, 1100), (8, 1, 1, 1, 12),
                                       (4, 6, 6, 8, 5)])
    def test_channel_sums_match_fsum_in_float64(self, rng, shape):
        with T.use_dtype(np.float64):
            c = shape[-1]
            bn = ops.BatchNorm(c, momentum=1.0)
            x = Tensor(rng.normal(size=shape) * 2.0 + 5.0)
            out = bn(x, training=True)
            rows = x.data.reshape(-1, c)
            n = rows.shape[0]
            mean = np.array([math.fsum(col) for col in rows.T]) / n
            var = np.array([math.fsum(col) for col in ((rows - mean) ** 2).T]) / n
            npt.assert_allclose(bn.running_mean, mean, rtol=1e-12, atol=0)
            npt.assert_allclose(bn.running_var, var, rtol=1e-12, atol=0)
            g = rng.normal(size=shape)
            T.backward(T.tsum(out * Tensor(g)))
            flat = g.reshape(-1, c)
            npt.assert_allclose(bn.beta.grad, [math.fsum(col) for col in flat.T],
                                rtol=1e-12, atol=1e-12)
            prod = flat * out.data.reshape(-1, c)
            npt.assert_allclose(bn.gamma.grad, [math.fsum(col) for col in prod.T],
                                rtol=1e-12, atol=1e-12)

    def test_float32_mean_no_worse_than_one_row_at_a_time(self, rng):
        x = (rng.normal(size=(8, 16, 16, 16, 12)) * 2.0 + 5.0).astype(np.float32)
        rows = x.reshape(-1, 12)
        exact = np.array([math.fsum(col) for col in rows.astype(np.float64).T]) / len(rows)
        # the order before wide rows: one channel row after another
        narrow = rows.sum(axis=0) * np.asarray(1.0 / len(rows), np.float32)
        bn = ops.BatchNorm(12, momentum=1.0)
        bn(Tensor(x), training=True)
        wide_err = np.max(np.abs(bn.running_mean - exact) / exact)
        assert wide_err <= np.max(np.abs(narrow - exact) / exact)
        assert wide_err < 1e-6

    @pytest.mark.parametrize("relu", [False, True])
    def test_gradient_at_a_wide_shape(self, rng, relu):
        with T.use_dtype(np.float64):
            bn = ops.BatchNorm(5)
            bn.gamma.data[:] = rng.normal(size=5)
            bn.beta.data[:] = rng.normal(size=5)
            x = Tensor(rng.normal(size=(4, 6, 6, 8, 5)), requires_grad=True)
            w = Tensor(rng.normal(size=x.shape))
            assert ops._lanes(4 * 6 * 6 * 8, 5) == 192

            def f():
                return T.tsum(bn(x, training=True, relu=relu) * w)

            err = finite_diff_check(f, [x, bn.gamma, bn.beta], eps=1e-4, max_elements=40)
            assert err < 1e-4

    def test_sums_do_not_depend_on_blas_threads(self, rng):
        # no BLAS call and no thread: the same bits with numpy's OpenBLAS
        # at one thread (as after the fold pool pinned it) and at two
        blas = T._blas_threads()
        if blas is None:
            pytest.skip("numpy's bundled OpenBLAS is not loaded")
        before = blas[1]()
        x = (rng.normal(size=(8, 16, 16, 16, 12)) * 2.0 + 5.0).astype(np.float32)
        g = rng.normal(size=x.shape).astype(np.float32)
        results = []
        try:
            for threads in (1, 2):
                blas[0](threads)
                bn = ops.BatchNorm(12)
                xt = Tensor(x, requires_grad=True)
                out = bn(xt, training=True)
                T.backward(T.tsum(out * Tensor(g)))
                results.append((out.data, bn.running_mean, bn.running_var, xt.grad,
                                bn.gamma.grad, bn.beta.grad))
        finally:
            blas[0](before)
        for a, b in zip(*results):
            npt.assert_array_equal(a, b)

    def test_dx_takes_the_gradient_buffer_without_a_copy(self, rng):
        bn = ops.BatchNorm(4)
        x = Tensor(rng.normal(size=(8, 6, 4)).astype(np.float32), requires_grad=True)
        out = bn(x, training=True, relu=True)
        g = rng.normal(size=x.shape).astype(np.float32)
        out._backward(g)
        assert np.shares_memory(x.grad, g)

    def test_handed_over_dx_is_bitwise_the_copied_one(self, rng, monkeypatch):
        # x feeds the norm and a product, so one of the two contributions
        # adds into the other's buffer
        x0 = rng.normal(size=(8, 6, 4)).astype(np.float32)
        w, v = rng.normal(size=(2,) + x0.shape).astype(np.float32)

        def grads():
            bn = ops.BatchNorm(4)
            x = Tensor(x0.copy(), requires_grad=True)
            loss = T.add(T.tsum(bn(x, training=True, relu=True) * Tensor(w)),
                         T.tsum(x * Tensor(v)))
            T.backward(loss)
            return x.grad, bn.gamma.grad, bn.beta.grad

        owned = grads()
        accumulate = T._accumulate
        monkeypatch.setattr(T, "_accumulate", lambda t, g, owned=False: accumulate(t, g))
        for a, b in zip(owned, grads()):
            npt.assert_array_equal(a, b)


class TestResidualBlock:
    def test_zero_residual_identity(self, rng):
        block = ops.ResidualBlock("conv3d", 4, 4, 1, _rand_init(rng))
        for _, p in block.conv2.named_params():
            p.data[:] = 0.0
        x = Tensor(rng.normal(size=(2, 4, 4, 4, 4)).astype(np.float32))
        npt.assert_array_equal(block(x, training=True).data, x.data)

    def test_stride_halves_extents_and_doubles_channels(self, rng):
        block = ops.ResidualBlock("full4d", 8, 16, 2, _rand_init(rng))
        x = Tensor(rng.normal(size=(2, 3, 6, 6, 6, 8)).astype(np.float32))
        out = block(x, training=True)
        assert out.shape == (2, 3, 3, 3, 3, 16)

    def test_no_shortcut_block_holds_seven_input_sized_arrays_in_five_nodes(self, rng):
        # two fused pre-activations (x_hat and output each), two
        # convolutions and the sum
        block = ops.ResidualBlock("conv3d", 4, 4, 1, _rand_init(rng))
        assert block.shortcut is None
        x = Tensor(rng.normal(size=(2, 4, 4, 4, 4)).astype(np.float32), requires_grad=True)
        out = block(x, training=True)
        created = _created_nodes(out, [x] + [p for _, p in block.named_params()])
        held = [a for a in _held_arrays(created, x.data) if a.size == x.data.size]
        assert len(created) <= 5
        assert len(held) <= 7

    def test_gradient_through_two_block_stack(self, rng):
        with T.use_dtype(np.float64):
            init = _rand_init(rng)
            b1 = ops.ResidualBlock("st3d", 2, 4, 2, init)
            b2 = ops.ResidualBlock("st3d", 4, 4, 1, init)
            x = Tensor(rng.normal(size=(2, 3, 4, 4, 2)))
            params = [p for _, p in b1.named_params()] + [p for _, p in b2.named_params()]

            def f():
                return T.tmean(square(b2(b1(x, True), True)))

            assert finite_diff_check(f, params, eps=1e-4, max_elements=6) < 1e-4


class TestPoolingAndHead:
    def test_gap_constant(self):
        x = Tensor(np.full((2, 3, 4, 4, 4, 5), 7.0, dtype=np.float32))
        out = ops.global_avg_pool(x, "temporal+spatial", 3)
        npt.assert_allclose(out.data, 7.0, rtol=1e-6)
        assert out.shape == (2, 5)

    def test_gap_half_zeros_half_ones(self):
        x = np.zeros((1, 2, 2, 2, 2, 3), dtype=np.float32)
        x[:, 0] = 1.0
        out = ops.global_avg_pool(Tensor(x), "temporal+spatial", 3)
        npt.assert_allclose(out.data, 0.5, rtol=1e-6)

    def test_gap_matches_sum_count_oracle(self, rng):
        x = rng.normal(size=(2, 3, 5, 4, 2)).astype(np.float32)
        out = ops.global_avg_pool(Tensor(x), "spatial", 3).data
        expected = x.sum(axis=(1, 2, 3)) / (3 * 5 * 4)
        assert rel_err(out, expected) <= 1e-7

    def test_gap_spatial_keeps_time(self, rng):
        x = rng.normal(size=(2, 4, 5, 5, 3)).astype(np.float32)
        out = ops.global_avg_pool(Tensor(x), "spatial", 2)
        assert out.shape == (2, 4, 3)

    def test_dense_zero_weights_gives_bias(self, rng):
        x = Tensor(rng.normal(size=(4, 6)).astype(np.float32))
        out = _head(np.zeros((6, 1)), 0.3)(x)
        npt.assert_allclose(out.data, 0.3, rtol=1e-6)

    def test_dense_one_hot_selects_row(self):
        x = np.zeros((1, 5), dtype=np.float32)
        x[0, 3] = 1.0
        out = _head(np.arange(5.0).reshape(5, 1), 0.5)(Tensor(x))
        npt.assert_allclose(out.data, [[3.5]])

    def test_dense_matches_matmul_oracle(self, rng):
        with T.use_dtype(np.float64):
            from helpers import loop_matmul
            x = rng.normal(size=(3, 4))
            W = rng.normal(size=(4, 1))
            out = _head(W, 0.7)(Tensor(x)).data
            npt.assert_allclose(out, loop_matmul(x, W) + 0.7, rtol=1e-12)


class TestInvariants:
    def test_oracle_equivalence_random_shapes(self, rng):
        for _ in range(8):
            p = int(rng.integers(1, 4))
            e = int(rng.integers(2, 6))
            cin = int(rng.integers(1, 3))
            cout = int(rng.integers(1, 3))
            stride = int(rng.integers(1, 3))
            x = Tensor(rng.normal(size=(1, p, e, e, e, cin)).astype(np.float32))
            K = Tensor(rng.normal(size=(3, 3, 3, 3, cin, cout)).astype(np.float32))
            fast = ops.conv_st(x, K, stride=stride).data
            ref = ops.conv_nd_reference(x, K, stride=stride, temporal=True)
            assert rel_err(fast, ref) <= 1e-5

    def test_parameter_count_formulas(self, rng):
        kt = kh = kw = kd = 3
        cin, cout = 4, 6
        full = ops.Conv("full4d", cin, cout, 1, _rand_init(rng))
        assert full.weight.size == kt * kh * kw * kd * cin * cout
        fac = ops.FactorizedConv("fac4d", cin, cout, 1, _rand_init(rng))
        assert fac.weight_spatial.size == kh * kw * kd * cin * cout
        assert fac.weight_temporal.size == kt * cout * cout
        total_fac = fac.weight_spatial.size + fac.weight_temporal.size
        assert total_fac < full.weight.size

    def test_same_padding_preserves_extents_at_stride_1(self, rng):
        x = Tensor(rng.normal(size=(1, 3, 5, 6, 7, 2)).astype(np.float32))
        K = Tensor(rng.normal(size=(3, 3, 3, 3, 2, 2)).astype(np.float32))
        assert ops.conv_st(x, K, 1).shape == (1, 3, 5, 6, 7, 2)

    def test_linearity(self, rng):
        x = Tensor(rng.normal(size=(1, 3, 4, 4, 4, 2)).astype(np.float32))
        y = Tensor(rng.normal(size=(1, 3, 4, 4, 4, 2)).astype(np.float32))
        K = Tensor(rng.normal(size=(3, 3, 3, 3, 2, 2)).astype(np.float32))
        alpha, beta = 1.7, -0.6
        lhs = ops.conv_st(alpha * x + beta * y, K, 1).data
        rhs = (alpha * ops.conv_st(x, K, 1).data
               + beta * ops.conv_st(y, K, 1).data)
        assert rel_err(lhs, rhs) <= 1e-5
