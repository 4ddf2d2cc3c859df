import numpy as np
import numpy.testing as npt
import pytest

from volforce import architectures as A
from volforce import reps
from volforce import tensor as T
from volforce.tensor import Tensor

from helpers import rewrite_checkpoint_config


def _tiny(family, rep, rnn="none", **kw):
    kw.setdefault("base_channels", 4)
    kw.setdefault("n_blocks", 2)
    kw.setdefault("spatial_output_stride", 2)
    kw.setdefault("history", 2)
    return A.ModelConfig(family, rep, rnn_kind=rnn, **kw)


def _batch_for(config, rng, batch=2, extent=8):
    if config.representation in ("4d-st", "ps-4d-st"):
        shape = (batch, config.history, extent, extent, extent, 1)
    elif config.representation == "3d-st":
        shape = (batch, config.history, extent, extent, 1)
    elif config.representation == "3d-s":
        shape = (batch, extent, extent, extent, 1)
    else:
        shape = (batch, extent, extent, 1)
    return rng.normal(size=shape).astype(np.float32)


# -- closed-form parameter counts (independent arithmetic) ---------------------------


def _conv_weights(kind, cin, cout, k=3):
    if kind in ("full4d",):
        return k ** 4 * cin * cout
    if kind in ("st3d", "conv3d"):
        return k ** 3 * cin * cout
    if kind == "conv2d":
        return k ** 2 * cin * cout
    raise ValueError(kind)


def _block_params(kind, cin, cout, strided, k=3):
    total = 2 * cin + 2 * cout  # two BN gamma/beta pairs
    if kind == "fac4d":
        total += k ** 3 * cin * cout + k * cout * cout      # factorized conv1
        total += k ** 3 * cout * cout + k * cout * cout     # factorized conv2
        proj = "full4d"
    elif kind == "fac3d":
        total += k ** 2 * cin * cout + k * cout * cout
        total += k ** 2 * cout * cout + k * cout * cout
        proj = "st3d"
    else:
        total += _conv_weights(kind, cin, cout, k) + _conv_weights(kind, cout, cout, k)
        proj = kind
    if strided or cin != cout:
        total += _conv_weights(proj, cin, cout, k=1)
    return total


def _backbone_params(kind, cin0, c, n_blocks, n_strided, cap, k=3):
    total = _conv_weights({"fac4d": "full4d", "fac3d": "st3d"}.get(kind, kind),
                          cin0, c, k)
    cin = c
    for i in range(n_blocks):
        strided = 1 <= i <= n_strided
        cout = min(cin * 2, cap) if strided else cin
        total += _block_params(kind, cin, cout, strided, k)
        cin = cout
    return total, cin


def _gru_params(in_size, hidden):
    return 3 * (in_size * hidden + hidden * hidden) + 5 * 2 * hidden


def _conv_gru_params(in_ch, hidden, k=3):
    return 3 * (k ** 3 * in_ch * hidden + k ** 3 * hidden * hidden) + 5 * 2 * hidden


class TestParamCounts:
    def test_dense_head_alone(self, rng):
        head = A._Head(16, lambda s: np.zeros(s, dtype=np.float32))
        assert sum(p.size for _, p in head.named_params()) == 17

    def test_single_full_4d_conv(self):
        from volforce import ops
        conv = ops.Conv("full4d", 1, 16, 1, lambda s: np.zeros(s, dtype=np.float32))
        assert conv.weight.size == 81 * 16 == 1296

    def test_base_config_has_four_stride2_blocks(self):
        cfg = A.ModelConfig("resnet", "4d-st")
        assert cfg.n_blocks == 5 and cfg.n_strided() == 4

    def test_resnet_families_match_closed_form(self):
        cfg = A.ModelConfig("resnet", "4d-st")
        expected, cf = _backbone_params("full4d", 1, 16, 5, 4, 64)
        assert A.build(cfg).param_count() == expected + cf + 1

        cfg = A.ModelConfig("fac_resnet", "4d-st")
        expected, cf = _backbone_params("fac4d", 1, 16, 5, 4, 64)
        assert A.build(cfg).param_count() == expected + cf + 1

        cfg = A.ModelConfig("resnet", "3d-st")
        expected, cf = _backbone_params("st3d", 1, 16, 5, 4, 64)
        assert A.build(cfg).param_count() == expected + cf + 1

    def test_recurrent_families_match_closed_form(self):
        cfg = A.ModelConfig("resnet_rnn", "4d-st", rnn_kind="gru")
        backbone, cf = _backbone_params("conv3d", 1, 16, 5, 4, 64)
        expected = backbone + 2 * _gru_params(cf, cf) + cf + 1
        assert A.build(cfg).param_count() == expected

        cfg = A.ModelConfig("convrnn_resnet", "4d-st", rnn_kind="gru")
        hidden = 4  # input channels x 4
        backbone, cf = _backbone_params("conv3d", hidden, 16, 5, 4, 64)
        expected = _conv_gru_params(1, hidden) + backbone + cf + 1
        assert A.build(cfg).param_count() == expected

    def test_factorized_strictly_fewer_than_full(self):
        full = A.build(A.ModelConfig("resnet", "4d-st")).param_count()
        fac = A.build(A.ModelConfig("fac_resnet", "4d-st")).param_count()
        assert fac < full

    def test_counts_in_reported_regime_with_reported_orderings(self):
        # the reference results put the 4D backbone around 1.5e6 parameters
        # with the wide 3D variant above it and the deep variant below it
        rn4d = A.build(A.ModelConfig("resnet", "4d-st")).param_count()
        wide = A.build(A.ModelConfig("resnet", "3d-st", capacity="wide")).param_count()
        deep = A.build(A.ModelConfig("resnet", "3d-st", capacity="deep")).param_count()
        base3d = A.build(A.ModelConfig("resnet", "3d-st")).param_count()
        assert 1.0e6 < rn4d < 2.5e6
        assert deep < rn4d < wide
        assert base3d < deep
        assert wide == pytest.approx(4 * base3d, rel=0.01)  # doubling c quadruples convs

    def test_lstm_variant_has_more_parameters(self):
        gru = A.build(A.ModelConfig("convrnn_resnet", "4d-st", rnn_kind="gru"))
        lstm = A.build(A.ModelConfig("convrnn_resnet", "4d-st", rnn_kind="lstm"))
        assert gru.param_count() < lstm.param_count()

    def test_registry_names_unique_and_param_count_sums(self):
        net = A.build(_tiny("convrnn_resnet", "4d-st", "gru"))
        names = [n for n, _ in net.named_params()]
        assert len(names) == len(set(names))
        assert net.param_count() == sum(p.size for _, p in net.named_params())


class TestBenchmarkPatchPoints:
    def test_tracer_names_see_the_recurrent_cell(self, rng, monkeypatch):
        # the benchmark's tracer wraps these names from outside the package;
        # a cell that called around them would silently blind its counts
        from volforce import ops, recurrent

        assert A.unroll is recurrent.unroll
        # the tracer patches the class's own __call__, never an inherited one
        assert "__call__" in vars(recurrent.RecurrentBatchNorm)
        assert issubclass(recurrent.RecurrentBatchNorm, ops.BatchNorm)
        net = A.build(_tiny("convrnn_resnet", "4d-st", "gru", base_channels=6, history=3))
        kernels, norms = [], []
        conv_spatial, norm_call = ops.conv_spatial, recurrent.RecurrentBatchNorm.__call__

        def counted_conv(x, K, stride=1):
            kernels.append(K.shape[-2:])
            return conv_spatial(x, K, stride)

        def counted_norm(self, *args):
            norms.append(self)
            return norm_call(self, *args)

        monkeypatch.setattr(ops, "conv_spatial", counted_conv)
        monkeypatch.setattr(recurrent.RecurrentBatchNorm, "__call__", counted_norm)
        net.forward(rng.normal(size=(2, 3, 4, 4, 4, 1)).astype(np.float32), training=True)
        # hidden 4: fused w_z|w_r|w_h (1 -> 12) per step, u_z|u_r (4 -> 8) and
        # u_h (4 -> 4) on the two steps after the zero state
        assert (kernels.count((1, 12)), kernels.count((4, 8)), kernels.count((4, 4))) == (3, 2, 2)
        assert len(norms) == 6


class TestConfigValidation:
    def test_capacity_presets(self):
        assert A.ModelConfig("resnet", "3d-st", capacity="wide").channels() == 32
        assert A.ModelConfig("resnet", "3d-st", capacity="deep").blocks() == 9
        base = A.ModelConfig("resnet", "3d-st")
        assert base.channels() == 16 and base.blocks() == 5

    def test_convrnn_needs_temporal_representation(self):
        with pytest.raises(ValueError, match="temporal"):
            A.ModelConfig("convrnn_resnet", "2d-s", rnn_kind="gru")

    def test_rnn_family_needs_rnn_kind(self):
        with pytest.raises(ValueError, match="rnn_kind"):
            A.ModelConfig("resnet_rnn", "4d-st")

    def test_fac_needs_temporal_representation(self):
        with pytest.raises(ValueError, match="temporal"):
            A.ModelConfig("fac_resnet", "3d-s")

    def test_too_many_stride_blocks_rejected(self):
        with pytest.raises(ValueError, match="stride-2"):
            A.ModelConfig("resnet", "4d-st", n_blocks=3, spatial_output_stride=16)

    def test_arch_name_resolution(self):
        cfg = A.config_from_arch("convgru-resnet3d", "4d-st")
        assert cfg.family == "convrnn_resnet" and cfg.rnn_kind == "gru"
        cfg = A.config_from_arch("resnet3d-st-w", "3d-st")
        assert cfg.capacity == "wide"
        cfg = A.config_from_arch("resnet2d-s-d", "2d-s")
        assert cfg.capacity == "deep"
        with pytest.raises(ValueError, match="representations"):
            A.config_from_arch("resnet4d", "2d-s")
        with pytest.raises(ValueError, match="unknown architecture"):
            A.config_from_arch("resnet9d", "4d-st")


class TestForward:
    def test_zero_head_outputs_bias(self, rng):
        net = A.build(_tiny("resnet", "4d-st"))
        net.head.W.data[:] = 0.0
        net.head.b.data[:] = 0.25
        out = net.forward(_batch_for(net.config, rng), training=True)
        npt.assert_allclose(out.data, 0.25, rtol=1e-6)

    def test_identical_samples_identical_outputs(self, rng):
        net = A.build(_tiny("fac_resnet", "4d-st"))
        one = _batch_for(net.config, rng, batch=1)
        batch = np.repeat(one, 3, axis=0)
        out = net.forward(batch, training=False).data
        npt.assert_allclose(out, np.broadcast_to(out[0], out.shape), rtol=1e-5)

    def test_all_4d_families_share_input_shape_and_emit_scalar(self, rng):
        x = None
        for family, rnn in (("resnet", "none"), ("fac_resnet", "none"),
                            ("resnet_rnn", "gru"), ("convrnn_resnet", "gru")):
            net = A.build(_tiny(family, "4d-st", rnn))
            if x is None:
                x = _batch_for(net.config, rng)
            out = net.forward(x, training=True)
            assert out.shape == (2, 1)

    def test_shape_validation(self, rng):
        net = A.build(_tiny("resnet", "4d-st"))
        with pytest.raises(ValueError, match="rank"):
            net.forward(np.zeros((2, 8, 8, 8, 1), dtype=np.float32))
        with pytest.raises(ValueError, match="history"):
            net.forward(np.zeros((2, 3, 8, 8, 8, 1), dtype=np.float32))
        with pytest.raises(ValueError, match="divisible"):
            net.forward(np.zeros((2, 2, 7, 7, 7, 1), dtype=np.float32))
        with pytest.raises(ValueError, match="channel"):
            net.forward(np.zeros((2, 2, 8, 8, 8, 2), dtype=np.float32))

    def test_batch_permutation_commutes_in_inference(self, rng):
        net = A.build(_tiny("resnet_rnn", "4d-st", "gru"))
        x = _batch_for(net.config, rng, batch=4)
        out = net.forward(x, training=False).data
        perm = np.array([2, 0, 3, 1])
        out_perm = net.forward(x[perm], training=False).data
        npt.assert_allclose(out_perm, out[perm], atol=1e-6)

    def test_shared_weights_give_identical_per_frame_features(self, rng):
        net = A.build(_tiny("resnet_rnn", "4d-st", "gru"))
        frame = rng.normal(size=(1, 8, 8, 8, 1)).astype(np.float32)
        stacked = Tensor(np.repeat(frame, 4, axis=0))
        with T.no_grad():
            feats = net.backbone(stacked, training=False).data
        npt.assert_allclose(feats, np.broadcast_to(feats[0], feats.shape), atol=1e-6)

    def test_accepts_frames_built_by_reps(self, rng):
        vols = rng.uniform(0.0, 1.0, size=(3, 8, 8, 32)).astype(np.float32)
        for rep in ("3d-st", "ps-4d-st"):
            frames = reps.frames_for(rep, vols, d_out=8)
            net = A.build(_tiny("resnet", rep, history=3))
            out = net.forward(frames[None, ...], training=False)
            assert out.shape == (1, 1)

    def test_tiny_gradient_check_one_family(self, rng):
        with T.use_dtype(np.float64):
            net = A.build(_tiny("resnet", "3d-st"), seed=4, init_std=0.05)
            x = rng.normal(size=(2, 2, 4, 4, 1))

            def f():
                return T.tmean(net.forward(x, training=True) ** 2.0)

            err = T.finite_diff_check(f, net.params(), eps=1e-4, max_elements=3)
            assert err < 1e-4


class TestCheckpoint:
    def test_round_trip(self, tmp_path, rng):
        net = A.build(_tiny("convrnn_resnet", "4d-st", "gru"), seed=2)
        x = _batch_for(net.config, rng)
        net.forward(x, training=True)  # populate running stats
        net.label_norm[:] = (120.0, 40.0)
        ema = {name: p.data * 0.5 for name, p in net.named_params()}
        path = tmp_path / "model.ckpt"
        A.save_checkpoint(path, net, ema)
        loaded, ema2 = A.load_checkpoint(path)
        assert loaded.config == net.config
        for (n1, p1), (n2, p2) in zip(net.named_params(), loaded.named_params()):
            assert n1 == n2
            npt.assert_array_equal(p1.data, p2.data)
        for (n1, b1), (n2, b2) in zip(net.all_named_buffers(),
                                      loaded.all_named_buffers()):
            assert n1 == n2
            npt.assert_allclose(b1, b2, atol=1e-6)
        for name in ema:
            npt.assert_array_equal(ema[name], ema2[name])
        npt.assert_array_equal(loaded.label_norm, [120.0, 40.0])

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            A.load_checkpoint(path)

    def test_truncated_rejected(self, tmp_path, rng):
        net = A.build(_tiny("resnet", "2d-s"))
        path = tmp_path / "model.ckpt"
        A.save_checkpoint(path, net, None)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(ValueError, match="truncated"):
            A.load_checkpoint(path)

    def test_every_sampled_prefix_rejected(self, tmp_path):
        net = A.build(_tiny("resnet", "2d-s"))
        path = tmp_path / "model.ckpt"
        A.save_checkpoint(path, net, None)
        data = path.read_bytes()
        cut = tmp_path / "cut.ckpt"
        # every length through the fixed header into the config JSON, then a
        # seeded sample of longer prefixes
        sampled = np.random.default_rng(31).integers(1, len(data), size=40)
        for n in sorted({*range(48), 8, 12, *sampled.tolist(), len(data) - 1}):
            cut.write_bytes(data[:n])
            with pytest.raises(ValueError):
                A.load_checkpoint(cut)

    @pytest.mark.parametrize("edit", [lambda cfg: dict(cfg, dropout=0.5),
                                      lambda cfg: dict(cfg, base_channels=4.5),
                                      lambda cfg: dict(cfg, history="2"),
                                      lambda cfg: list(cfg)],
                             ids=["unknown-key", "float-channels", "string-history", "list"])
    def test_bad_config_rejected(self, tmp_path, edit):
        net = A.build(_tiny("resnet", "2d-s"))
        path = tmp_path / "model.ckpt"
        A.save_checkpoint(path, net, None)
        rewrite_checkpoint_config(path, edit)
        with pytest.raises(ValueError, match="bad checkpoint config"):
            A.load_checkpoint(path)
