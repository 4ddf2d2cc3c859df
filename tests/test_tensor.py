import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from volforce import ops
from volforce import tensor as T
from volforce.tensor import Tensor

from helpers import (FD_MIN_STEP, check_all_primitive_grads, finite_diff_check,
                     finite_diff_report, loop_matmul, square)


class TestElementwise:
    def test_add(self):
        npt.assert_array_equal((Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])).data, [4.0, 6.0])

    def test_sigmoid_symmetry_point(self):
        assert T.sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_sigmoid_stable_at_extremes(self):
        out = T.sigmoid(Tensor([-500.0, 500.0])).data
        assert out[0] == 0.0 and out[1] == 1.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_equals_the_two_branch_expression_bitwise(self, dtype):
        tiny = np.finfo(dtype).smallest_subnormal
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 88.0, -88.0, tiny, -tiny, 3 * tiny]
        rand = np.random.default_rng(3).normal(size=997) * 10
        a = np.concatenate([special, rand]).astype(dtype)
        e = np.exp(-np.abs(a))
        want = np.where(a >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        with T.use_dtype(dtype):
            got = T.sigmoid(Tensor(a)).data
            zero_d = T.sigmoid(Tensor(np.asarray(a[20])))
        assert got.dtype == want.dtype == dtype
        npt.assert_array_equal(got.view(f"u{got.itemsize}"), want.view(f"u{want.itemsize}"))
        assert zero_d.shape == () and zero_d.data.tobytes() == want[20].tobytes()

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2,\).*\(3,\)"):
            Tensor([1.0, 2.0]) + Tensor([1.0, 2.0, 3.0])

    def test_broadcast_singleton_axes(self):
        out = Tensor(np.ones((2, 3))) * Tensor(np.full((1, 3), 2.0))
        npt.assert_array_equal(out.data, np.full((2, 3), 2.0))

    def test_ops_finite_on_finite_inputs(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(4, 5)) * 50)
        b = Tensor(rng.normal(size=(4, 5)) * 50)
        for out in (a + b, a - b, a * b, a * a, T.sigmoid(a), T.tanh(a)):
            assert np.isfinite(out.data).all()

    def test_zero_extent_rejected(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros((2, 0)))


class TestMatmul:
    def test_identity(self):
        m = Tensor([[1.0, 2.0], [3.0, 4.0]])
        npt.assert_array_equal(T.matmul(Tensor(np.eye(2)), m).data, m.data)

    def test_hand_case(self):
        out = T.matmul(Tensor([[1.0, 0.0]]), Tensor([[2.0], [5.0]]))
        npt.assert_array_equal(out.data, [[2.0]])

    def test_against_triple_loop(self):
        with T.use_dtype(np.float64):
            rng = np.random.default_rng(1)
            a = rng.normal(size=(3, 4))
            b = rng.normal(size=(4, 2))
            got = T.matmul(Tensor(a), Tensor(b)).data
            npt.assert_allclose(got, loop_matmul(a, b), rtol=1e-12)

    def test_inner_dim_mismatch(self):
        with pytest.raises(ValueError, match="inner"):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))


class TestBackward:
    def test_square_sum_gradient(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        T.backward(T.tsum(w * w))
        npt.assert_allclose(w.grad, [2.0, 4.0])

    def test_constant_loss_zero_grads(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        c = Tensor([3.0], requires_grad=True)
        grads = T.backward(T.tsum(c), params=[w])
        npt.assert_array_equal(grads[w], [0.0, 0.0])

    def test_disconnected_param_is_zero_not_error(self):
        w = Tensor([1.0], requires_grad=True)
        used = Tensor([2.0], requires_grad=True)
        grads = T.backward(T.tsum(used * used), params=[w, used])
        npt.assert_array_equal(grads[w], [0.0])
        npt.assert_array_equal(grads[used], [4.0])

    def test_non_scalar_loss_rejected(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            T.backward(w * w)

    def test_repeated_backward_accumulates(self):
        # documented contract: grads add up until explicitly reset
        w = Tensor([3.0], requires_grad=True)
        loss = T.tsum(w * w)
        T.backward(loss)
        T.backward(loss)
        npt.assert_allclose(w.grad, [12.0])
        T.zero_grads([w])
        assert w.grad is None

    def test_composite_graph_matches_finite_differences(self):
        with T.use_dtype(np.float64):
            rng = np.random.default_rng(2)
            w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
            b = Tensor(rng.normal(size=(1, 3)), requires_grad=True)
            x = Tensor(rng.normal(size=(5, 4)))

            def f():
                h = T.tanh(T.matmul(x, w) + b)
                return T.tmean(square(T.sigmoid(h)))

            assert finite_diff_check(f, [w, b], eps=1e-4) < 1e-4

    def test_gradient_shape_matches_parameter_shape(self):
        # broadcast/reduce property over random shape pairs
        rng = np.random.default_rng(3)
        for _ in range(25):
            ndim = int(rng.integers(1, 5))
            shape = tuple(int(rng.integers(1, 4)) for _ in range(ndim))
            mask = [bool(rng.integers(0, 2)) for _ in range(ndim)]
            other = tuple(1 if m else s for s, m in zip(shape, mask))
            a = Tensor(rng.normal(size=shape), requires_grad=True)
            b = Tensor(rng.normal(size=other), requires_grad=True)
            T.backward(T.tsum((a + b) * (a * b)))
            assert a.grad.shape == a.shape
            assert b.grad.shape == b.shape

    def test_channel_slices_share_one_gradient_buffer(self):
        # a fused gate map is split into per-gate channel slices; their
        # backward must not allocate a full-size zero buffer per slice
        a = Tensor(np.ones((64, 4096, 12), dtype=np.float32), requires_grad=True)
        loss = T.tsum(a[..., 0:1])
        for i in range(1, 12):
            loss = loss + T.tsum(a[..., i:i + 1] * float(i + 1))
        tracemalloc.start()
        try:
            T.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        npt.assert_array_equal(a.grad, np.broadcast_to(np.arange(1.0, 13.0), a.shape))
        assert peak < 1.5 * a.data.nbytes  # the gradient itself plus the slices' own

    @pytest.mark.parametrize("shape,index", [((3,), 0), ((2, 3), (1, 0)), ((2, 3), (-2, 0))])
    def test_one_element_index_is_zero_d_and_routes_its_gradient(self, shape, index):
        a = Tensor(np.arange(6.0)[:np.prod(shape)].reshape(shape) + 1.0, requires_grad=True)
        picked = a[index]
        assert picked.shape == () and picked.item() == a.data[index]
        T.backward(T.tsum(picked * Tensor(3.0)))
        want = np.zeros(shape, np.float32)
        want[index] = 3.0
        npt.assert_array_equal(a.grad, want)

    def test_owned_first_gradient_is_kept_and_later_ones_add_into_it(self):
        t = Tensor(np.zeros((2, 3), np.float32), requires_grad=True)
        buf = np.ones(6, np.float32)
        T._accumulate(t, buf, owned=True)
        assert t.grad.shape == (2, 3) and np.shares_memory(t.grad, buf)
        other = np.full((2, 3), 2.0, np.float32)
        T._accumulate(t, other, owned=True)
        assert np.shares_memory(t.grad, buf) and not np.shares_memory(t.grad, other)
        npt.assert_array_equal(t.grad, 3.0)
        npt.assert_array_equal(other, 2.0)

    def test_unowned_first_gradient_is_copied(self):
        t = Tensor(np.zeros(3, np.float32), requires_grad=True)
        g = np.ones(3, np.float32)
        T._accumulate(t, g)
        assert not np.shares_memory(t.grad, g)


class TestFiniteDiffCheck:
    def test_quadratic(self):
        with T.use_dtype(np.float64):
            w = Tensor([0.3, -1.2, 0.7], requires_grad=True)

            def f():
                return T.tsum(w * w)

            assert finite_diff_check(f, [w], eps=1e-4) < 1e-6

    def test_constant_function_zero_error(self):
        with T.use_dtype(np.float64):
            w = Tensor([1.0], requires_grad=True)
            c = Tensor([5.0])

            def f():
                return T.tsum(w * 0.0 + c)

            assert finite_diff_check(f, [w], eps=1e-4) == 0.0

    @staticmethod
    def _shifted_relu(c):
        """w -> relu(w - c), the fused norm's kink: eval mode, mean c, variance 1."""
        bn = ops.BatchNorm(1, eps=0.0)
        bn.running_mean[:] = c
        return lambda w: bn(w, training=False, relu=True)

    def test_straddled_kink_gets_a_smaller_step(self):
        # relu's pre-activation is 3e-5, inside eps = 1e-4: the plain central
        # difference averages the slopes 1 and 0 and is off by about 0.35
        with T.use_dtype(np.float64):
            relu_shifted = self._shifted_relu(0.5)
            w = Tensor([0.5 + 3e-5], requires_grad=True)

            def f():
                return T.tsum(relu_shifted(w))

            report = finite_diff_report(f, [w], eps=1e-4)
            assert report.plain_worst > 0.3
            assert report.worst < 1e-6
            assert (report.checked, report.shrunk) == (1, 1)
            assert finite_diff_check(f, [w], eps=1e-4) < 1e-6

    @pytest.mark.parametrize("offset", [8.5e-6, 9e-6])
    def test_kink_inside_the_smaller_step_is_not_taken_for_curvature(self, offset):
        # at h = 1e-5 the kink is still straddled, yet the slope gap fell
        # about 10x from h = 1e-4, as curvature's would: the central
        # difference moved by ~0.4, so the step shrinks again
        with T.use_dtype(np.float64):
            relu_shifted = self._shifted_relu(0.5)
            w = Tensor([0.5 + offset], requires_grad=True)
            report = finite_diff_report(lambda: T.tsum(relu_shifted(w)), [w], eps=1e-4)
            assert report.worst < 1e-6
            npt.assert_allclose(report.min_step, 1e-6, rtol=1e-6)

    def test_step_stops_at_the_floor(self):
        # exactly on the kink the one-sided slopes disagree at every step
        with T.use_dtype(np.float64):
            relu = self._shifted_relu(0.0)
            w = Tensor([0.0], requires_grad=True)

            def f():
                return T.tsum(relu(w))

            report = finite_diff_report(f, [w], eps=1e-4)
            assert report.shrunk == 1
            npt.assert_allclose(report.min_step, FD_MIN_STEP, rtol=1e-6)

    @staticmethod
    def _wrong_backward(fn, dfn, factor):
        """Elementwise primitive whose backward is off by ``factor``."""

        def op(a):
            def backward_fn(g):
                T._accumulate(a, g * dfn(a.data) * factor)

            return T._make(fn(a.data), (a,), backward_fn)

        return op

    @pytest.mark.parametrize("fn, dfn, offset", [
        (np.tanh, lambda a: 1.0 - np.tanh(a) ** 2, 0.7),  # smooth
        (lambda a: np.maximum(a, 0.0), lambda a: (a > 0).astype(a.dtype), 3e-5),  # kink within eps
    ], ids=["smooth", "next-to-kink"])
    def test_wrong_backward_still_fails(self, fn, dfn, offset):
        with T.use_dtype(np.float64):
            c = Tensor([0.5])
            w = Tensor([0.5 + offset], requires_grad=True)
            right = self._wrong_backward(fn, dfn, 1.0)
            wrong = self._wrong_backward(fn, dfn, 1.001)
            assert finite_diff_check(lambda: T.tsum(right(w - c)), [w], eps=1e-4) < 1e-6
            assert finite_diff_check(lambda: T.tsum(wrong(w - c)), [w], eps=1e-4) >= 1e-4


def test_every_primitive_gradient_over_100_instances():
    with T.use_dtype(np.float64):
        assert check_all_primitive_grads(instances=100, seed=0, tol=1e-4) >= 100


def test_forward_determinism():
    def run():
        rng = np.random.default_rng(11)
        a = Tensor(rng.normal(size=(8, 8)).astype(np.float32))
        b = Tensor(rng.normal(size=(8, 8)).astype(np.float32))
        return T.tsum(T.tanh(T.matmul(a, b)) * T.sigmoid(a - b)).data.copy()

    first, second = run(), run()
    npt.assert_array_equal(first, second)


def test_no_grad_suppresses_graph():
    w = Tensor([1.0], requires_grad=True)
    with T.no_grad():
        out = w * w
    assert not out.requires_grad
