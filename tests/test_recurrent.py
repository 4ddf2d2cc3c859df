import math

import numpy as np
import numpy.testing as npt
import pytest

from volforce import ops
from volforce import recurrent as R
from volforce import tensor as T
from volforce.tensor import Tensor


def _init(rng, scale=0.3):
    def init(shape):
        return (rng.normal(size=shape) * scale).astype(T.default_dtype())

    return init


def _zeros(shape):
    return np.zeros(shape, dtype=T.default_dtype())


def _bn_train_oracle(pre, bn):
    # two-pass normalization over all non-channel axes, then scale/shift
    axes = tuple(range(pre.ndim - 1))
    mu = pre.mean(axis=axes, keepdims=True)
    var = ((pre - mu) ** 2).mean(axis=axes, keepdims=True)
    return (pre - mu) / np.sqrt(var + bn.eps) * bn.gamma.data + bn.beta.data


def _sig(x):
    return 1.0 / (1.0 + np.exp(-x))


def _weights(cell):
    """Gate weight arrays by registry name (w_z, u_z, ...)."""
    return {name: p.data for name, p in cell.named_params() if "." not in name}


def _norms(cell):
    """Gate norms by short name (wz, uz, ...)."""
    return {name[3:]: bn for name, bn in vars(cell).items()
            if isinstance(bn, R.RecurrentBatchNorm)}


def _copy_params(src, dst):
    """Copy every parameter of ``src`` into ``dst``'s, reshaped (registry order)."""
    for (_, a), (_, b) in zip(src.named_params(), dst.named_params()):
        b.data[:] = a.data.reshape(b.shape)


def _graph_nodes(root):
    """Distinct tensors reachable from ``root`` through parents."""
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


class TestGRUStep:
    def test_closed_update_gate_holds_state(self, rng):
        cell = R.GRUCell(3, 4, _init(rng))
        cell.bn_wz.beta.data[:] = -40.0
        cell.bn_uz.beta.data[:] = -40.0
        x = Tensor(rng.normal(size=(2, 3)).astype(np.float32))
        h_prev = Tensor(rng.normal(size=(2, 4)).astype(np.float32))
        h = cell.step(x, h_prev, 0, training=True, joined=cell.join())
        npt.assert_allclose(h.data, h_prev.data, atol=1e-6)

    def test_zero_parameters_fixed_point(self, rng):
        cell = R.GRUCell(3, 4, _zeros)
        x = Tensor(rng.normal(size=(2, 3)).astype(np.float32))
        h = cell.step(x, Tensor.zeros((2, 4)), 0, training=True, joined=cell.join())
        npt.assert_array_equal(h.data, np.zeros((2, 4)))

    def test_matches_scalar_oracle(self, rng):
        with T.use_dtype(np.float64):
            cell = R.GRUCell(3, 4, _init(rng))
            x = rng.normal(size=(2, 3))
            hp = rng.normal(size=(2, 4))
            got = cell.step(Tensor(x), Tensor(hp), 0, training=True, joined=cell.join()).data

            w = _weights(cell)
            z = _sig(_bn_train_oracle(x @ w["w_z"], cell.bn_wz)
                     + _bn_train_oracle(hp @ w["u_z"], cell.bn_uz))
            r = _sig(_bn_train_oracle(x @ w["w_r"], cell.bn_wr)
                     + _bn_train_oracle(hp @ w["u_r"], cell.bn_ur))
            cand = np.tanh(_bn_train_oracle(x @ w["w_h"], cell.bn_wh)
                           + (r * hp) @ w["u_h"])
            expected = (1 - z) * hp + z * cand
            npt.assert_allclose(got, expected, atol=1e-6)


class TestLSTMStep:
    def test_open_forget_closed_input_keeps_cell(self, rng):
        cell = R.LSTMCell(3, 4, _init(rng))
        cell.bn_wf.beta.data[:] = 40.0
        cell.bn_uf.beta.data[:] = 40.0
        cell.bn_wi.beta.data[:] = -40.0
        cell.bn_ui.beta.data[:] = -40.0
        x = Tensor(rng.normal(size=(2, 3)).astype(np.float32))
        hp = Tensor(rng.normal(size=(2, 4)).astype(np.float32))
        cp = Tensor(rng.normal(size=(2, 4)).astype(np.float32))
        _, c = cell.step(x, (hp, cp), 0, training=True, joined=cell.join())
        npt.assert_allclose(c.data, cp.data, atol=1e-6)

    def test_zero_parameters_fixed_point(self, rng):
        cell = R.LSTMCell(3, 4, _zeros)
        x = Tensor(rng.normal(size=(2, 3)).astype(np.float32))
        h, c = cell.step(x, (Tensor.zeros((2, 4)), Tensor.zeros((2, 4))), 0, training=True,
                         joined=cell.join())
        npt.assert_array_equal(h.data, np.zeros((2, 4)))
        npt.assert_array_equal(c.data, np.zeros((2, 4)))

    def test_matches_scalar_oracle(self, rng):
        with T.use_dtype(np.float64):
            cell = R.LSTMCell(3, 4, _init(rng))
            x = rng.normal(size=(2, 3))
            hp = rng.normal(size=(2, 4))
            cp = rng.normal(size=(2, 4))
            h, c = cell.step(Tensor(x), (Tensor(hp), Tensor(cp)), 0, training=True,
                             joined=cell.join())

            w = _weights(cell)

            def path(g):
                return (_bn_train_oracle(x @ w["w_" + g], getattr(cell, "bn_w" + g))
                        + _bn_train_oracle(hp @ w["u_" + g], getattr(cell, "bn_u" + g)))

            i, f, o, g = _sig(path("i")), _sig(path("f")), _sig(path("o")), np.tanh(path("g"))
            c_exp = f * cp + i * g
            npt.assert_allclose(c.data, c_exp, atol=1e-6)
            npt.assert_allclose(h.data, o * np.tanh(c_exp), atol=1e-6)


class TestConvCells:
    def test_unit_kernel_reduces_to_vector_cell(self, rng):
        init = _init(rng)
        vec = R.GRUCell(3, 4, init)
        conv = R.ConvGRUCell(3, 4, 3, init, k=1)
        _copy_params(vec, conv)
        x = rng.normal(size=(2, 3)).astype(np.float32)
        hv = vec.step(Tensor(x), Tensor(np.zeros((2, 4), np.float32)), 0, True, joined=vec.join())
        hc = conv.step(Tensor(x.reshape(2, 1, 1, 1, 3)),
                       Tensor(np.zeros((2, 1, 1, 1, 4), np.float32)), 0, True, joined=conv.join())
        npt.assert_allclose(hc.data.reshape(2, 4), hv.data, atol=1e-6)
        with pytest.raises(ValueError, match="rank"):  # a vector input has no spatial axes
            R.unroll(conv, Tensor(x[:, None]))

    def test_closed_update_gate_keeps_state_elementwise(self, rng):
        cell = R.ConvGRUCell(2, 3, 3, _init(rng))
        cell.bn_wz.beta.data[:] = -40.0
        cell.bn_uz.beta.data[:] = -40.0
        x = Tensor(rng.normal(size=(2, 4, 4, 4, 2)).astype(np.float32))
        hp = Tensor(rng.normal(size=(2, 4, 4, 4, 3)).astype(np.float32))
        h = cell.step(x, hp, 0, training=True, joined=cell.join())
        npt.assert_allclose(h.data, hp.data, atol=1e-6)

    def test_conv_gru_matches_reference_conv_plus_gate_oracle(self, rng):
        # inference mode (fresh running stats) on a single sample; gates
        # recomputed from reference convolutions and plain numpy arithmetic
        with T.use_dtype(np.float64):
            cell = R.ConvGRUCell(2, 3, 3, _init(rng))
            x = rng.normal(size=(1, 4, 4, 4, 2))
            hp = rng.normal(size=(1, 4, 4, 4, 3))
            got = cell.step(Tensor(x), Tensor(hp), 0, training=False, joined=cell.join()).data

            w = _weights(cell)

            def bn_eval(pre, bn):
                return (pre / math.sqrt(1.0 + bn.eps)) * bn.gamma.data + bn.beta.data

            conv = ops.conv_nd_reference
            z = _sig(bn_eval(conv(x, w["w_z"]), cell.bn_wz)
                     + bn_eval(conv(hp, w["u_z"]), cell.bn_uz))
            r = _sig(bn_eval(conv(x, w["w_r"]), cell.bn_wr)
                     + bn_eval(conv(hp, w["u_r"]), cell.bn_ur))
            cand = np.tanh(bn_eval(conv(x, w["w_h"]), cell.bn_wh)
                           + conv(r * hp, w["u_h"]))
            expected = (1 - z) * hp + z * cand
            assert np.abs(got - expected).max() <= 1e-5

    def test_conv_lstm_matches_reference_conv_plus_gate_oracle(self, rng):
        with T.use_dtype(np.float64):
            cell = R.ConvLSTMCell(2, 3, 2, _init(rng))
            x = rng.normal(size=(1, 5, 5, 2))
            hp = rng.normal(size=(1, 5, 5, 3))
            cp = rng.normal(size=(1, 5, 5, 3))
            h, c = cell.step(Tensor(x), (Tensor(hp), Tensor(cp)), 0, training=False,
                             joined=cell.join())

            w = _weights(cell)

            def bn_eval(pre, bn):
                return (pre / math.sqrt(1.0 + bn.eps)) * bn.gamma.data + bn.beta.data

            conv = ops.conv_nd_reference

            def path(g):
                return (bn_eval(conv(x, w["w_" + g]), getattr(cell, "bn_w" + g))
                        + bn_eval(conv(hp, w["u_" + g]), getattr(cell, "bn_u" + g)))

            i, f, o, g = _sig(path("i")), _sig(path("f")), _sig(path("o")), np.tanh(path("g"))
            c_exp = f * cp + i * g
            assert np.abs(c.data - c_exp).max() <= 1e-5
            assert np.abs(h.data - o * np.tanh(c_exp)).max() <= 1e-5

    def test_conv_lstm_unit_kernel_reduces_to_vector_cell(self, rng):
        init = _init(rng)
        vec = R.LSTMCell(2, 3, init)
        conv = R.ConvLSTMCell(2, 3, 3, init, k=1)
        _copy_params(vec, conv)
        x = rng.normal(size=(2, 2)).astype(np.float32)
        hv, cv = vec.step(Tensor(x), (Tensor.zeros((2, 3)), Tensor.zeros((2, 3))), 0, True,
                          joined=vec.join())
        zc = Tensor.zeros((2, 1, 1, 1, 3))
        hc, cc = conv.step(Tensor(x.reshape(2, 1, 1, 1, 2)), (zc, zc), 0, True, joined=conv.join())
        npt.assert_allclose(hc.data.reshape(2, 3), hv.data, atol=1e-6)
        npt.assert_allclose(cc.data.reshape(2, 3), cv.data, atol=1e-6)
        with pytest.raises(ValueError, match="rank"):
            R.unroll(conv, Tensor(x[:, None]))

    def test_saturated_forget_identity_conv_lstm(self, rng):
        cell = R.ConvLSTMCell(2, 3, 3, _init(rng))
        cell.bn_wf.beta.data[:] = 40.0
        cell.bn_uf.beta.data[:] = 40.0
        cell.bn_wi.beta.data[:] = -40.0
        cell.bn_ui.beta.data[:] = -40.0
        x = Tensor(rng.normal(size=(2, 4, 4, 4, 2)).astype(np.float32))
        hp = Tensor(rng.normal(size=(2, 4, 4, 4, 3)).astype(np.float32))
        cp = Tensor(rng.normal(size=(2, 4, 4, 4, 3)).astype(np.float32))
        _, c = cell.step(x, (hp, cp), 0, training=True, joined=cell.join())
        npt.assert_allclose(c.data, cp.data, atol=1e-6)


class TestRecurrentBatchNorm:
    def test_normalizes_to_beta_gamma(self, rng):
        bn = R.RecurrentBatchNorm(3)
        bn.gamma.data[:] = 0.5
        bn.beta.data[:] = 2.0
        x = Tensor((rng.normal(size=(64, 3)) * 4.0 + 9.0).astype(np.float32))
        out = bn(x, t=0, training=True).data
        npt.assert_allclose(out.mean(axis=0), 2.0, atol=1e-4)
        npt.assert_allclose(out.std(axis=0), 0.5, atol=1e-2)

    def test_distinct_running_stats_per_timestep(self, rng):
        bn = R.RecurrentBatchNorm(2, momentum=1.0)
        a = Tensor((rng.normal(size=(8, 2)) + 10.0).astype(np.float32))
        b = Tensor((rng.normal(size=(8, 2)) - 10.0).astype(np.float32))
        bn(a, t=0, training=True)
        bn(b, t=1, training=True)
        assert bn.running_mean[0][0] > 5.0 and bn.running_mean[1][0] < -5.0

    def test_timestep_cap_shares_statistics(self, rng):
        bn = R.RecurrentBatchNorm(2, t_cap=2, momentum=1.0)
        x = Tensor((rng.normal(size=(8, 2)) + 3.0).astype(np.float32))
        bn(x, t=7, training=True)  # t >= cap lands in the shared slot
        assert abs(bn.running_mean[2][0] - 3.0) < 1.0
        npt.assert_array_equal(bn.running_mean[0], 0.0)

    def test_gamma_initialized_small(self):
        bn = R.RecurrentBatchNorm(4)
        npt.assert_allclose(bn.gamma.data, 0.1)

    def test_per_timestep_stats_match_two_pass(self, rng):
        with T.use_dtype(np.float64):
            bn = R.RecurrentBatchNorm(3, momentum=1.0)
            seq = rng.normal(size=(4, 8, 3)) * 2.0 + 1.0
            for t in range(4):
                bn(Tensor(seq[t]), t=t, training=True)
            for t in range(4):
                mu = seq[t].mean(axis=0)
                var = ((seq[t] - mu) ** 2).mean(axis=0)
                npt.assert_allclose(bn.running_mean[t], mu, atol=1e-6)
                npt.assert_allclose(bn.running_var[t], var, atol=1e-6)

    def test_negative_timestep_rejected(self):
        bn = R.RecurrentBatchNorm(2)
        with pytest.raises(ValueError, match="timestep"):
            bn(Tensor(np.ones((4, 2))), t=-1, training=True)


class TestUnroll:
    def test_single_step_equals_step_call(self, rng):
        cell = R.GRUCell(3, 4, _init(rng))
        x = Tensor(rng.normal(size=(2, 1, 3)).astype(np.float32))
        via_unroll = R.unroll(cell, x, training=True).data
        direct = cell.step(x[:, 0], Tensor.zeros((2, 4)), 0, training=True,
                           joined=cell.join()).data
        npt.assert_array_equal(via_unroll, direct)

    def test_identity_cell_returns_h0(self, rng):
        cell = R.GRUCell(3, 4, _init(rng))
        cell.bn_wz.beta.data[:] = -40.0
        cell.bn_uz.beta.data[:] = -40.0
        x = Tensor(rng.normal(size=(2, 5, 3)).astype(np.float32))
        h0 = Tensor(rng.normal(size=(2, 4)).astype(np.float32))
        h = R.unroll(cell, x, h0=h0, training=True)
        npt.assert_allclose(h.data, h0.data, atol=1e-5)

    def test_bptt_gradient(self, rng):
        with T.use_dtype(np.float64):
            cell = R.GRUCell(2, 3, _init(rng))
            x = Tensor(rng.normal(size=(2, 4, 2)))
            params = [p for _, p in cell.named_params()]

            def f():
                h = R.unroll(cell, x, training=True)
                return T.tmean(h * h)

            assert T.finite_diff_check(f, params, eps=1e-4, max_elements=8) < 1e-4

    def test_return_sequence_shape(self, rng):
        cell = R.GRUCell(3, 4, _init(rng))
        x = Tensor(rng.normal(size=(2, 5, 3)).astype(np.float32))
        seq = R.unroll(cell, x, return_sequence=True, training=True)
        assert seq.shape == (2, 5, 4)


class TestInvariants:
    def test_hidden_magnitude_bound(self, rng):
        # convex mixing of h_prev with a tanh candidate keeps the sup norm
        # under max(|h0|_inf, 1)
        for trial in range(10):
            cell = R.GRUCell(3, 4, _init(rng, scale=1.5))
            x = Tensor(rng.normal(size=(2, 6, 3)).astype(np.float32) * 3.0)
            h0 = Tensor(rng.normal(size=(2, 4)).astype(np.float32))
            bound = max(float(np.abs(h0.data).max()), 1.0)
            h = R.unroll(cell, x, h0=h0, training=True)
            assert float(np.abs(h.data).max()) <= bound + 1e-6

    def test_gru_fewer_parameters_than_lstm(self, rng):
        init = _init(rng)
        for in_size, hidden in ((3, 4), (8, 16)):
            gru = R.GRUCell(in_size, hidden, init)
            lstm = R.LSTMCell(in_size, hidden, init)
            gru_expected = (3 * (in_size * hidden + hidden * hidden)
                            + 5 * 2 * hidden)  # 5 BN gamma/beta pairs
            lstm_expected = (4 * (in_size * hidden + hidden * hidden)
                             + 8 * 2 * hidden)
            gru_count = sum(p.size for _, p in gru.named_params())
            lstm_count = sum(p.size for _, p in lstm.named_params())
            assert gru_count == gru_expected
            assert lstm_count == lstm_expected
            assert gru_count < lstm_count


# -- fused gate maps against a per-gate reference ------------------------------------

_P = 3  # timesteps; with t_cap 2 the last one uses the shared statistics slot


def _make_cell(kind, rng):
    init, t_cap = _init(rng), 2
    return {
        "gru": lambda: R.GRUCell(3, 4, init, t_cap=t_cap),
        "lstm": lambda: R.LSTMCell(3, 4, init, t_cap=t_cap),
        "convgru": lambda: R.ConvGRUCell(2, 3, 3, init, t_cap=t_cap),
        "convlstm": lambda: R.ConvLSTMCell(2, 3, 2, init, t_cap=t_cap),
    }[kind]()


def _input_seq(kind, rng):
    lead = (2, _P)
    return rng.normal(size={"gru": lead + (3,), "lstm": lead + (3,),
                            "convgru": lead + (3, 3, 3, 2),
                            "convlstm": lead + (4, 4, 2)}[kind])


def _perturb_norms(cell, rng):
    # nontrivial gains, shifts, per-gate momentum and eps, and running
    # statistics in every slot
    for bn in _norms(cell).values():
        bn.gamma.data[:] = rng.uniform(0.5, 1.5, size=bn.channels)
        bn.beta.data[:] = rng.normal(size=bn.channels) * 0.3
        bn.momentum = rng.uniform(0.05, 0.5)
        bn.eps = rng.uniform(1e-3, 0.1)
        bn.running_mean[:] = rng.normal(size=bn.running_mean.shape) * 0.5
        bn.running_var[:] = rng.uniform(0.5, 2.0, size=bn.running_var.shape)


def _reference_unroll(cell, x, training, return_sequence, h0=None, c0=None):
    """One map and one norm per gate per timestep, from the numpy oracles
    (``conv_nd_reference``, ``_bn_train_oracle``, ``_sig``), on copies of the
    running statistics; returns (output, {bn name: (mean, var)})."""
    norms = _norms(cell)
    stats = {n: (bn.running_mean.copy(), bn.running_var.copy()) for n, bn in norms.items()}
    w = _weights(cell)
    conv = isinstance(cell, (R.ConvGRUCell, R.ConvLSTMCell))

    def fmap(a, name):
        return ops.conv_nd_reference(a, w[name]) if conv else a @ w[name]

    def norm(name, pre, t):
        bn, (rm, rv) = norms[name], stats[name]
        slot = min(t, bn.t_cap)
        if not training:
            return (pre - rm[slot]) / np.sqrt(rv[slot] + bn.eps) * bn.gamma.data + bn.beta.data
        axes = tuple(range(pre.ndim - 1))
        mu = pre.mean(axis=axes)
        rm[slot] += bn.momentum * (mu - rm[slot])
        rv[slot] += bn.momentum * (((pre - mu) ** 2).mean(axis=axes) - rv[slot])
        return _bn_train_oracle(pre, bn)

    shape = x.shape[:1] + x.shape[2:-1] + (cell.hidden,)
    h = np.zeros(shape) if h0 is None else h0
    c = np.zeros(shape) if c0 is None else c0
    outputs = []
    for t in range(x.shape[1]):
        xt = x[:, t]

        def path(g):
            return norm("w" + g, fmap(xt, "w_" + g), t) + norm("u" + g, fmap(h, "u_" + g), t)

        if isinstance(cell, R.LSTMCell):
            i, f, o, g = _sig(path("i")), _sig(path("f")), _sig(path("o")), np.tanh(path("g"))
            c = f * c + i * g
            h = o * np.tanh(c)
        else:
            z, r = _sig(path("z")), _sig(path("r"))
            cand = np.tanh(norm("wh", fmap(xt, "w_h"), t) + fmap(r * h, "u_h"))
            h = (1 - z) * h + z * cand
        outputs.append(h)
    return (np.stack(outputs, axis=1) if return_sequence else h), stats


def _count_calls(monkeypatch, owner, attr):
    calls = []
    inner = getattr(owner, attr)

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)
    return calls


class TestFusedGates:
    @pytest.mark.parametrize("return_sequence", [False, True])
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("kind", ["gru", "lstm", "convgru", "convlstm"])
    def test_zero_state_unroll_matches_per_gate_reference(self, rng, kind, training,
                                                          return_sequence):
        with T.use_dtype(np.float64):
            cell = _make_cell(kind, rng)
            _perturb_norms(cell, rng)
            x = _input_seq(kind, rng)
            expected, stats = _reference_unroll(cell, x, training, return_sequence)
            got = R.unroll(cell, Tensor(x), return_sequence=return_sequence,
                           training=training).data
            npt.assert_allclose(got, expected, rtol=0, atol=1e-12)
            for name, bn in _norms(cell).items():
                npt.assert_allclose(bn.running_mean, stats[name][0], rtol=0, atol=1e-12)
                npt.assert_allclose(bn.running_var, stats[name][1], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["gru", "lstm", "convgru", "convlstm"])
    def test_nonzero_h0_takes_the_map_path(self, rng, kind, monkeypatch):
        with T.use_dtype(np.float64):
            cell = _make_cell(kind, rng)
            x = _input_seq(kind, rng)
            h0 = rng.normal(size=x.shape[:1] + x.shape[2:-1] + (cell.hidden,))
            c0 = rng.normal(size=h0.shape) if "lstm" in kind else None
            state = Tensor(h0) if c0 is None else (Tensor(h0), Tensor(c0))
            expected, _ = _reference_unroll(cell, x, True, False, h0, c0)
            maps = _count_calls(monkeypatch, ops, "conv_spatial")
            got = R.unroll(cell, Tensor(x), h0=state, training=True).data
            npt.assert_allclose(got, expected, rtol=0, atol=1e-12)
            if kind.startswith("conv"):
                per_step = 3 if kind == "convgru" else 2
                assert len(maps) == per_step * _P

    @pytest.mark.parametrize("p", [1, 2, 5])
    def test_conv_gru_map_count(self, rng, p, monkeypatch):
        cell = R.ConvGRUCell(1, 4, 3, _init(rng))
        x = Tensor(rng.normal(size=(2, p, 4, 4, 4, 1)).astype(np.float32))
        maps = _count_calls(monkeypatch, ops, "conv_spatial")
        norms = _count_calls(monkeypatch, R.RecurrentBatchNorm, "__call__")
        R.unroll(cell, x, training=True)
        assert len(maps) == 1 + 3 * (p - 1)
        assert len(norms) == 2 * p

    # Graph nodes of one training unroll from the zero state: each side's
    # weights, gamma and beta joined once, the fused maps and norms per step,
    # then whole-block gate additions and activations with a single gate
    # sliced out only where it is consumed.
    @pytest.mark.parametrize("kind,nodes", [("gru", 74), ("lstm", 81),
                                            ("convgru", 74), ("convlstm", 81)])
    def test_unroll_graph_node_count(self, rng, kind, nodes):
        cell = _make_cell(kind, rng)
        h = R.unroll(cell, Tensor(_input_seq(kind, rng)), training=True)
        assert _graph_nodes(h) == nodes
