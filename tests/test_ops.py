import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from volforce import ops
from volforce import tensor as T
from volforce.tensor import Tensor

from helpers import loop_conv_nd, rel_err


def _rand_init(rng, scale=0.3):
    def init(shape):
        return (rng.normal(size=shape) * scale).astype(T.default_dtype())

    return init


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


class TestConvPrimitive:
    # c_in = 1 takes the gathered-column path, c_in > 1 shift-and-matmul
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

    def test_gathered_gradient_float64(self, rng, monkeypatch):
        # one sample per column chunk, so dK sums over chunks
        monkeypatch.setattr(ops, "GATHER_CHUNK_BYTES", 1)
        with T.use_dtype(np.float64):
            x = Tensor(rng.normal(size=(3, 4, 5, 4, 1)), requires_grad=True)
            K = Tensor(rng.normal(size=(3, 3, 3, 1, 2)) * 0.4, requires_grad=True)
            for stride in (1, 2):
                err = T.finite_diff_check(
                    lambda: T.tsum(ops.conv_spatial(x, K, stride) ** 2.0), [x, K], eps=1e-4)
                assert err < 1e-4

    def test_gathered_columns_are_chunked_and_not_kept(self, rng, monkeypatch):
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
        # the graph holds the output and the padded input, no columns
        assert held < out.data.nbytes + padded + (64 << 10)
        assert peak < full_columns
        assert K.grad is not None

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

    @pytest.mark.parametrize("chunk_bytes", [ops.GATHER_CHUNK_BYTES, 1])
    def test_kt1_equals_per_timestep_3d_one_channel(self, rng, monkeypatch, chunk_bytes):
        # the gathered-column path, in one chunk and in one chunk per sample
        monkeypatch.setattr(ops, "GATHER_CHUNK_BYTES", chunk_bytes)
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

    def test_training_call_is_one_graph_node_holding_twice_its_input(self, rng):
        bn = ops.BatchNorm(4)
        x = Tensor(rng.normal(size=(8, 6, 4)).astype(np.float32), requires_grad=True)
        out = bn(x, training=True)
        leaves = {id(x), id(bn.gamma), id(bn.beta)}
        created = [node for node in T._toposort(out) if id(node) not in leaves]
        assert created == [out]
        # input-sized arrays the graph keeps alive beyond the input: node
        # outputs plus arrays captured by backward closures
        held = {}
        for node in created:
            held[id(node.data)] = node.data
            for cell in node._backward.__closure__ or ():
                if isinstance(cell.cell_contents, np.ndarray):
                    held[id(cell.cell_contents)] = cell.cell_contents
        held.pop(id(x.data), None)
        assert sum(a.nbytes for a in held.values() if a.size > bn.channels) \
            <= 2 * x.data.nbytes

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

    def test_gradient_through_two_block_stack(self, rng):
        with T.use_dtype(np.float64):
            init = _rand_init(rng)
            b1 = ops.ResidualBlock("st3d", 2, 4, 2, init)
            b2 = ops.ResidualBlock("st3d", 4, 4, 1, init)
            x = Tensor(rng.normal(size=(2, 3, 4, 4, 2)))
            params = [p for _, p in b1.named_params()] + [p for _, p in b2.named_params()]

            def f():
                return T.tmean(b2(b1(x, True), True) ** 2.0)

            assert T.finite_diff_check(f, params, eps=1e-4, max_elements=6) < 1e-4


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
        out = ops.dense(x, Tensor(np.zeros((6, 1))), Tensor([0.3]))
        npt.assert_allclose(out.data, 0.3, rtol=1e-6)

    def test_dense_one_hot_selects_row(self):
        W = Tensor(np.arange(5, dtype=np.float32).reshape(5, 1))
        x = np.zeros((1, 5), dtype=np.float32)
        x[0, 3] = 1.0
        out = ops.dense(Tensor(x), W, Tensor([0.5]))
        npt.assert_allclose(out.data, [[3.5]])

    def test_dense_matches_matmul_oracle(self, rng):
        with T.use_dtype(np.float64):
            from helpers import loop_matmul
            x = rng.normal(size=(3, 4))
            W = rng.normal(size=(4, 1))
            out = ops.dense(Tensor(x), Tensor(W), Tensor([0.7])).data
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

    def test_temporal_stride_never_strided(self):
        spec = ops.ConvSpec(kernel=(3, 3, 3, 3), in_channels=1, out_channels=2,
                            stride=2, temporal=True)
        assert spec.temporal and spec.stride == 2  # stride applies spatially only

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            ops.ConvSpec(kernel=(2, 3, 3), in_channels=1, out_channels=1)
