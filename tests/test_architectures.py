import hashlib

import numpy as np
import numpy.testing as npt
import pytest

from volforce import architectures as A
from volforce import reps
from volforce import tensor as T
from volforce import training as TR
from volforce.tensor import Tensor

from helpers import finite_diff_check, rewrite_checkpoint_config, square


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

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            A.ModelConfig("resnet", "3d-st", kernel=4)
        with pytest.raises(ValueError, match="odd"):
            A.ModelConfig("resnet", "3d-st", kernel=-1)

    def test_channel_counts_checked(self):
        with pytest.raises(ValueError, match="base_channels"):
            A.ModelConfig("resnet", "3d-st", base_channels=0)
        with pytest.raises(ValueError, match="max_channels"):
            A.ModelConfig("resnet", "3d-st", max_channels=-1)

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
                return T.tmean(square(net.forward(x, training=True)))

            params = [p for _, p in net.named_params()]
            err = finite_diff_check(f, params, eps=1e-4, max_elements=3)
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
        for (n1, b1), (n2, b2) in zip(net.named_buffers(), loaded.named_buffers()):
            assert n1 == n2
            npt.assert_allclose(b1, b2, atol=1e-6)
        for name in ema:
            npt.assert_array_equal(ema[name], ema2[name])
        npt.assert_array_equal(loaded.label_norm, [120.0, 40.0])

    @pytest.mark.parametrize("arch", ["convgru-resnet3d", "convlstm-resnet2d", "resnet3d-lstm"])
    def test_loaded_recurrent_network_evaluates_bitwise(self, tmp_path, rng, arch):
        # the cells' gate statistics are views of one array per side; the
        # load must write through them
        rep = A.ARCH_TABLE[arch][2][0]
        net = A.build(A.config_from_arch(arch, rep, history=2, base_channels=4, n_blocks=2,
                                         spatial_output_stride=2), seed=0)
        x = _batch_for(net.config, rng)
        net.forward(x, training=True)
        for _, buf in net.named_buffers():
            buf[...] = buf.astype(np.float32)  # as the file stores them
        path = tmp_path / "model.ckpt"
        A.save_checkpoint(path, net, None)
        loaded, _ = A.load_checkpoint(path)
        npt.assert_array_equal(loaded.forward(x, training=False).data,
                               net.forward(x, training=False).data)

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

    def test_config_without_d_out_reads_the_old_eval_default(self, tmp_path):
        net = A.build(_tiny("resnet", "2d-s", d_out=8))
        path = tmp_path / "model.ckpt"
        A.save_checkpoint(path, net, None)
        assert A.load_checkpoint(path)[0].config.d_out == 8
        rewrite_checkpoint_config(path, lambda cfg: {k: v for k, v in cfg.items() if k != "d_out"})
        assert A.load_checkpoint(path)[0].config.d_out == 16

    def test_even_kernel_in_config_rejected(self, tmp_path):
        net = A.build(_tiny("resnet", "2d-s"))
        path = tmp_path / "model.ckpt"
        A.save_checkpoint(path, net, None)
        rewrite_checkpoint_config(path, lambda cfg: dict(cfg, kernel=4))
        with pytest.raises(ValueError, match="kernel"):
            A.load_checkpoint(path)


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# Per ARCH_TABLE entry at a tiny config (seed 0): sha256 of the parameter
# "name:shape" lines, of the buffer "name:shape" lines, and of the
# checkpoint bytes (EMA shadows included).  A change to any name, their
# order, an init draw or the file layout changes one of them.
REGISTRY_PINS = {
    "convgru-resnet2d": ("0d2ae49a6e463c8555d76a2913ee332a4d86366cce07b0e85467fefab62b2a71",
                         "6bf2ab09a070ac18a907d760a981bec89722749962f325206b6b8d476fbaec40",
                         "a05a5c621cafd5cd59a422823e02f0c0a46ff4ebd6d659fe9c78ea641852d2a8"),
    "convgru-resnet3d": ("f2230d07fc587499a798d6eca3d03cb75817d1dfbbc7001585e602e698c6ab53",
                         "6bf2ab09a070ac18a907d760a981bec89722749962f325206b6b8d476fbaec40",
                         "57176af5e95864cd69687f4d6c786f958b7fa10b70f3a479c8a77b65d79f8df4"),
    "convlstm-resnet2d": ("9d9189fa1fe5cd6e2898c7ab255f6e790d644b0c85a5a840acf1ef8f5bfc3b33",
                          "a62ed20c1519bb8d41c206abc3fff9e0ff667c7ece751dda88ffbb9dde661521",
                          "b3786b462e0082c9d964e0e24ed35fffaf1512292ea0519f78d0ea8649889021"),
    "convlstm-resnet3d": ("266dd575c0ba652b1385e51a9c18d14c3fe16fa282d32db7715a99efe581dee2",
                          "a62ed20c1519bb8d41c206abc3fff9e0ff667c7ece751dda88ffbb9dde661521",
                          "9f982f4cd1eb41ebc5e3cc16e7456de77feb1d925819b3dfe8098bbd314a873b"),
    "facresnet3d": ("2734b320c1b5f65bb88eedd24a4e284589f824e118f31c0fa91dd8cdfb016f8e",
                    "a89155d95b685ab6c2244f1cf93c984cd47be6fbae48d2b913a4bde95e7ea941",
                    "331033613b16809326cae187e836e95aae08c59a085fb90e40812a1309c963e2"),
    "facresnet4d": ("095853b9d02f26ee5fe3e06c6272835adbfad768ea65f573310608272e9e4684",
                    "a89155d95b685ab6c2244f1cf93c984cd47be6fbae48d2b913a4bde95e7ea941",
                    "45e19468128d165c6f61f975cfa8f8c82abca0e168739f9a25c792358b726348"),
    "resnet2d-gru": ("32caddd21272ef89b7a36394e295ad53c6feb1ee1c89c6a79176b3eeec634a6e",
                     "369fd9b7dbd8d72591a556aedac4f5da0de2b1b7e44879ac876edc5856e6450b",
                     "58cbddedeb821fa776e5eb24d9c8831fa89a22631c5f16135f0d9874802814cb"),
    "resnet2d-lstm": ("8e319f8adf71bb089aad804c386b76a15bc83db386875a275e23b9d224cffba7",
                      "8caf0ba23e4c675409fa571945640058f5b24df722f92e619c642fc3185f6a75",
                      "46227ea7541e74183bdbb2ed717ec32e9825dcbfcaf51b5373704cc92d80088e"),
    "resnet2d-s": ("0fd3f87e945c55c5e95e47b2234e94e229ea88b439c334e5a41e2b433ec7d66b",
                   "a89155d95b685ab6c2244f1cf93c984cd47be6fbae48d2b913a4bde95e7ea941",
                   "a01aeddc223e48385e57c1d90547b67b1722f06d836be8a40f91f92e4245aaa1"),
    "resnet3d-gru": ("935c16b2f01a11d157371dae9ee95057849a44bcd1502480800561c916efbf67",
                     "369fd9b7dbd8d72591a556aedac4f5da0de2b1b7e44879ac876edc5856e6450b",
                     "75ec726d53870a4680b0349beb63977fe9f4eec09a9951751a86e2f3e83e3ea9"),
    "resnet3d-lstm": ("670f95690872bb2480290b0a6d6055b0e0640671d16e6c418071df225ca8edc0",
                      "8caf0ba23e4c675409fa571945640058f5b24df722f92e619c642fc3185f6a75",
                      "7ff8f5c485bd0773544b49130b9db7a19ce6d83f8fc54bfb8126dfdfe7ffbe10"),
    "resnet3d-s": ("583d5b25100a3558a3275e83f4c557f643288f50239003443fd622ff3d0dba14",
                   "a89155d95b685ab6c2244f1cf93c984cd47be6fbae48d2b913a4bde95e7ea941",
                   "618898bd6fd4f4c8aac8742cfbd4d807ba08ef7c1c9ab8494a099aa3b7b9d86a"),
    "resnet3d-st": ("583d5b25100a3558a3275e83f4c557f643288f50239003443fd622ff3d0dba14",
                    "a89155d95b685ab6c2244f1cf93c984cd47be6fbae48d2b913a4bde95e7ea941",
                    "4faca6934a7f3d6b0eafc5b6ccf75eceb0ab7d5a850eba3978d07b8200e2f3f8"),
    "resnet4d": ("56ddd35508937583140a1435545b66ffce9f7d607383fa2c0ef79e3f5d6b8a69",
                 "a89155d95b685ab6c2244f1cf93c984cd47be6fbae48d2b913a4bde95e7ea941",
                 "a91f3fbc6409c1aad65ebe0e50d00f30109a9c8a978c1b283754c1ce9eccd9fd"),
}


@pytest.mark.parametrize("arch", sorted(A.ARCH_TABLE))
def test_registry_and_checkpoint_bytes_pinned(arch, tmp_path):
    rep = A.ARCH_TABLE[arch][2][0]
    net = A.build(A.config_from_arch(arch, rep, history=2, base_channels=4, n_blocks=2,
                                     spatial_output_stride=2), seed=0)
    path = tmp_path / "model.ckpt"
    A.save_checkpoint(path, net, TR.Ema(net.named_params()).arrays())
    got = (_digest(f"{n}:{p.shape}" for n, p in net.named_params()),
           _digest(f"{n}:{b.shape}" for n, b in net.named_buffers()),
           hashlib.sha256(path.read_bytes()).hexdigest())
    assert got == REGISTRY_PINS[arch]
