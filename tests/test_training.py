import math
import weakref

import numpy as np
import numpy.testing as npt
import pytest

from volforce import architectures as A
from volforce import reps
from volforce import tensor as T
from volforce import training as TR
from volforce.tensor import Tensor

from helpers import finite_diff_check


def _toy_data(rng, n=24, extent=8, rep="2d-s", p=1, f=0):
    data = reps.WindowedData(rep, p=p, f=f)
    if rep == "2d-s":
        frames = rng.uniform(0, 1, size=(n, extent, extent, 1)).astype(np.float32)
    else:
        frames = rng.uniform(0, 1, size=(n, extent, extent, extent, 1)).astype(np.float32)
    labels = 100.0 + 400.0 * frames.reshape(n, -1).mean(axis=1)
    data.add_experiment(frames, labels.astype(np.float64))
    return data


def _toy_net(rep="2d-s", **kw):
    kw.setdefault("base_channels", 4)
    kw.setdefault("n_blocks", 2)
    kw.setdefault("spatial_output_stride", 2)
    return A.build(A.ModelConfig("resnet", rep, **kw), seed=7)


class TestTruncatedNormalInit:
    def test_magnitude_bound(self):
        out = TR.init_truncated_normal((50, 50), s_d=0.01, rng=0)
        assert np.abs(out).max() <= 0.02

    def test_empirical_std_matches_truncation_shrinkage(self):
        out = TR.init_truncated_normal((1_000_000,), s_d=0.01, rng=1)
        a = 2.0
        phi = math.exp(-a * a / 2) / math.sqrt(2 * math.pi)
        mass = math.erf(a / math.sqrt(2))
        factor = math.sqrt(1.0 - 2.0 * a * phi / mass)  # ~0.8796
        assert out.std() == pytest.approx(0.01 * factor, rel=0.02)

    def test_same_seed_identical(self):
        a = TR.init_truncated_normal((4, 5), 0.01, rng=42)
        b = TR.init_truncated_normal((4, 5), 0.01, rng=42)
        npt.assert_array_equal(a, b)

    def test_bad_std_rejected(self):
        with pytest.raises(ValueError):
            TR.init_truncated_normal((3,), s_d=0.0)


class TestMseLoss:
    def test_zero_at_equality(self):
        x = Tensor([[1.0], [2.0]])
        assert TR.mse_loss(x, x).item() == 0.0

    def test_unit_errors(self):
        pred = Tensor([[1.0], [-1.0]])
        target = Tensor([[0.0], [0.0]])
        assert TR.mse_loss(pred, target).item() == pytest.approx(1.0)

    def test_gradient_is_two_diff_over_batch(self):
        with T.use_dtype(np.float64):
            pred = Tensor([[1.0], [3.0], [-2.0]], requires_grad=True)
            target = Tensor([[0.5], [1.0], [0.0]])
            T.backward(TR.mse_loss(pred, target))
            npt.assert_allclose(pred.grad, 2.0 * (pred.data - target.data) / 3.0)

            def f():
                return TR.mse_loss(pred, target)

            assert finite_diff_check(f, [pred], eps=1e-5) < 1e-8

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            TR.mse_loss(Tensor([[1.0]]), Tensor([1.0]))


class TestAdam:
    def test_first_step_hand_evaluated(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.array([0.3, -0.7])
        adam = TR.Adam([("p", p)], learning_rate=1e-2)
        before = p.data.copy()
        adam.step()
        g = np.array([0.3, -0.7])
        expected = before - 1e-2 * g / (np.abs(g) + 1e-8)
        npt.assert_allclose(p.data, expected, rtol=1e-6)

    def test_constant_gradient_reaches_lr_magnitude(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        adam = TR.Adam([("p", p)], learning_rate=1e-3)
        prev = p.data.copy()
        for _ in range(300):
            p.grad = np.array([2.5])
            prev = p.data.copy()
            adam.step()
        assert abs(prev[0] - p.data[0]) == pytest.approx(1e-3, rel=1e-3)

    def test_zero_gradient_leaves_parameters(self):
        p = Tensor(np.array([1.5]), requires_grad=True)
        adam = TR.Adam([("p", p)], learning_rate=1e-2)
        p.grad = np.array([0.0])
        adam.step()
        npt.assert_array_equal(p.data, [1.5])

    def test_nan_gradient_aborts_with_parameter_name(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        adam = TR.Adam([("head.W", p)], learning_rate=1e-2)
        p.grad = np.array([np.nan])
        with pytest.raises(FloatingPointError, match="head.W"):
            adam.step()


class TestEma:
    def test_initial_shadow_equals_params_and_first_update_fixed_point(self):
        p = Tensor(np.array([3.0]), requires_grad=True)
        ema = TR.Ema([("p", p)], decay=0.999)
        ema.update([("p", p)])
        npt.assert_allclose(ema.shadow["p"], [3.0])

    def test_geometric_convergence_to_constant(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        ema = TR.Ema([("p", p)], decay=0.999)
        ema.shadow["p"][:] = 0.0
        for n in (1, 10, 100):
            ema2 = TR.Ema([("p", p)], decay=0.999)
            ema2.shadow["p"][:] = 0.0
            for _ in range(n):
                ema2.update([("p", p)])
            gap = 1.0 - ema2.shadow["p"][0]
            assert gap == pytest.approx(0.999 ** n, rel=1e-6)

    def test_random_walk_matches_closed_form(self, rng):
        p = Tensor(np.array([0.0]), requires_grad=True)
        ema = TR.Ema([("p", p)], decay=0.999)
        values = rng.normal(size=1000)
        for v in values:
            p.data[:] = v
            ema.update([("p", p)])
        d = 0.999
        n = len(values)
        closed = d ** n * 0.0 + (1 - d) * sum(
            d ** (n - 1 - i) * values[i] for i in range(n))
        assert ema.shadow["p"][0] == pytest.approx(closed, abs=1e-6)


class TestSwapInEma:
    def test_raw_weights_restored_after_evaluation(self, rng):
        net = _toy_net()
        raw = {name: p.data.copy() for name, p in net.named_params()}
        shadow = {name: p.data * 0.1 for name, p in net.named_params()}
        with TR.swap_in_ema(net, shadow):
            for name, p in net.named_params():
                npt.assert_array_equal(p.data, shadow[name])
        for name, p in net.named_params():
            npt.assert_array_equal(p.data, raw[name])


class TestTrainLoop:
    def test_single_batch_single_epoch_is_one_step(self, rng):
        data = _toy_data(rng, n=8)
        net = _toy_net()
        cfg = TR.TrainConfig(epochs=1, batch_size=8, learning_rate=1e-3, seed=0)
        result = TR.train(net, data, cfg)
        assert result.steps == 1
        assert len(result.history) == 1

    def test_same_seed_identical_history(self, rng):
        data = _toy_data(rng, n=16)
        val = _toy_data(rng, n=6)
        histories = []
        for _ in range(2):
            net = _toy_net()
            cfg = TR.TrainConfig(epochs=3, batch_size=4, learning_rate=1e-3, seed=9)
            histories.append(TR.train(net, data, cfg, val_data=val).history)
        assert histories[0] == histories[1]

    def test_zero_learning_rate_freezes_everything(self, rng):
        # shuffling off so the batch reduction order is fixed; any loss
        # drift would then be a real parameter change
        data = _toy_data(rng, n=8)
        net = _toy_net()
        before = {name: p.data.copy() for name, p in net.named_params()}
        cfg = TR.TrainConfig(epochs=3, batch_size=4, learning_rate=0.0, seed=0,
                             shuffle=False)
        result = TR.train(net, data, cfg)
        for name, p in net.named_params():
            npt.assert_array_equal(p.data, before[name])
            npt.assert_allclose(result.ema.shadow[name], before[name], atol=0)
        losses = [h["train_mse"] for h in result.history]
        assert losses == [losses[0]] * len(losses)

    def test_empty_split_rejected(self):
        data = reps.WindowedData("2d-s", p=1, f=0)
        with pytest.raises(ValueError, match="empty"):
            TR.train(_toy_net(), data, TR.TrainConfig(epochs=1, batch_size=2))

    def test_loss_invariant_to_batch_order_for_identical_samples(self, rng):
        data = reps.WindowedData("2d-s", p=1, f=0)
        frame = rng.uniform(0, 1, size=(1, 8, 8, 1)).astype(np.float32)
        data.add_experiment(np.repeat(frame, 6, axis=0), np.full(6, 250.0))
        net = _toy_net()
        x1, y1 = data.gather([0, 1, 2, 3])
        x2, y2 = data.gather([3, 2, 1, 0])
        l1 = TR.mse_loss(net.forward(x1, True), Tensor(y1 * 0.0)).item()
        l2 = TR.mse_loss(net.forward(x2, True), Tensor(y2 * 0.0)).item()
        assert l1 == l2

    def test_overfits_small_set(self, rng):
        data = _toy_data(rng, n=16)
        net = _toy_net()
        cfg = TR.TrainConfig(epochs=80, batch_size=8, learning_rate=3e-3, seed=1)
        result = TR.train(net, data, cfg)
        first = result.history[0]["train_mse"]
        last = result.history[-1]["train_mse"]
        assert last < first / 10.0

    def test_validation_uses_ema_and_labels_denormalized(self, rng):
        data = _toy_data(rng, n=16)
        net = _toy_net()
        cfg = TR.TrainConfig(epochs=2, batch_size=8, learning_rate=1e-3, seed=3)
        result = TR.train(net, data, cfg, val_data=data)
        assert all(np.isfinite(h["val_mse"]) for h in result.history)
        preds, targets = TR.predict(net, data, result.ema)
        # targets come back in mN, matching the windowed labels
        npt.assert_allclose(np.sort(targets), np.sort(data.all_labels()))
        mu, sd = net.label_norm
        assert sd > 0 and mu == pytest.approx(float(data.all_labels().mean()))

    def test_previous_graph_released_before_next_forward(self, rng, monkeypatch):
        data = _toy_data(rng, n=24)
        net = _toy_net()
        forward, preds, alive = net.forward, [], []

        def spy(x, training=False):
            alive.append(sum(ref() is not None for ref in preds))
            pred = forward(x, training=training)
            preds.append(weakref.ref(pred))
            return pred

        monkeypatch.setattr(net, "forward", spy)
        cfg = TR.TrainConfig(epochs=2, batch_size=8, learning_rate=1e-3, seed=0)
        assert TR.train(net, data, cfg).steps == 6
        assert alive == [0] * 6

    def test_early_stop_hook(self, rng):
        data = _toy_data(rng, n=8)
        net = _toy_net()
        cfg = TR.TrainConfig(epochs=50, batch_size=8, learning_rate=1e-3, seed=0)
        result = TR.train(net, data, cfg, stop_fn=lambda epoch, res: epoch >= 2)
        assert len(result.history) == 2


def test_defaults_per_representation():
    assert TR.defaults_for("4d-st") == (8, 2.5e-4)
    assert TR.defaults_for("ps-4d-st") == (8, 2.5e-4)
    assert TR.defaults_for("3d-st") == (16, 5e-4)
    assert TR.defaults_for("2d-s") == (16, 5e-4)
