import math
import os
import struct

import numpy as np
import numpy.testing as npt
import pytest

from volforce import phantom as P
from volforce import reps


def _small_cfg(kind="sinusoid", n=24, seed=0, noise=True, hard=False):
    return P.SimConfig(
        trajectory=P.TrajectoryConfig(kind=kind, n_samples=n, seed=seed),
        h=6, w=6, d_raw=32, noise=noise, hard_mode=hard)


class TestSinusoid:
    def test_peak_depth_matches_drawn_amplitude(self):
        cfg = P.TrajectoryConfig(n_samples=1200)
        params = {"amplitude": 2.5, "offset": 0.5, "frequency": 3.0, "phase": 0.0}
        delta, _ = P.sinusoid_trajectory(cfg, np.arange(1200), params)
        assert delta.max() == pytest.approx(2.0, abs=1e-3)  # A - offset

    def test_below_contact_gives_zero_depth_and_force(self):
        cfg = P.TrajectoryConfig()
        params = {"amplitude": 1.0, "offset": 0.5, "frequency": 3.0, "phase": 0.0}
        t = np.arange(40)
        delta, rate = P.sinusoid_trajectory(cfg, t, params)
        force = P.force_model(delta, rate)
        out_of_contact = delta == 0.0
        assert out_of_contact.any()
        npt.assert_array_equal(force[out_of_contact], 0.0)

    def test_closed_form_values_over_one_period(self):
        # 3 Hz at 60 Hz sampling: exactly 20 samples per period
        cfg = P.TrajectoryConfig()
        params = {"amplitude": 2.0, "offset": 0.7, "frequency": 3.0, "phase": 0.4}
        t = np.arange(20)
        delta, _ = P.sinusoid_trajectory(cfg, t, params)
        expected = np.clip(2.0 * np.sin(2 * math.pi * 3.0 * t / 60.0 + 0.4) - 0.7,
                           0.0, cfg.cap_mm)
        npt.assert_allclose(delta, expected, atol=1e-12)
        d2, _ = P.sinusoid_trajectory(cfg, t + 20, params)
        npt.assert_allclose(d2, delta, atol=1e-9)


class TestSpline:
    def test_equal_knots_give_constant_trajectory(self):
        cfg = P.TrajectoryConfig(kind="spline")
        kt = np.array([0.0, 1.0, 2.0, 3.0])
        kd = np.full(4, 1.3)
        delta, rate = P.spline_trajectory(cfg, np.arange(120), kt, kd)
        npt.assert_allclose(delta, 1.3, atol=1e-9)
        npt.assert_allclose(rate, 0.0, atol=1e-9)

    def test_two_knots_match_hand_solved_segment(self):
        # natural spline with two knots degenerates to the straight line
        # (both end second-derivatives are zero)
        cfg = P.TrajectoryConfig(kind="spline")
        kt = np.array([0.0, 2.0])
        kd = np.array([0.5, 1.5])
        t = np.arange(0, 120)
        delta, rate = P.spline_trajectory(cfg, t, kt, kd)
        expected = 0.5 + (1.5 - 0.5) * (t / 60.0) / 2.0
        npt.assert_allclose(delta, expected, atol=1e-9)
        npt.assert_allclose(rate, 0.5, atol=1e-9)

    def test_interpolates_knots_exactly(self, rng):
        cfg = P.TrajectoryConfig(kind="spline")
        kt = np.cumsum(rng.uniform(0.5, 1.5, size=6))
        kt -= kt[0]
        kd = rng.uniform(0.0, cfg.cap_mm, size=6)
        delta, _ = P.spline_trajectory(cfg, kt * cfg.rate_hz, kt, kd)
        npt.assert_allclose(delta, np.clip(kd, 0, cfg.cap_mm), atol=1e-9)

    def test_second_derivative_continuity(self, rng):
        # C2: second differences of a fine evaluation stay smooth at knots
        kt = np.array([0.0, 1.0, 2.0, 3.0])
        kd = np.array([0.2, 1.8, 0.4, 1.1])
        m = P.natural_cubic_coeffs(kt, kd)
        for knot in kt[1:-1]:
            left, _ = P.eval_natural_cubic(kt, kd, m, np.array([knot - 1e-6]))
            right, _ = P.eval_natural_cubic(kt, kd, m, np.array([knot + 1e-6]))
            assert abs(float(left[0] - right[0])) < 1e-5


class TestForceModel:
    def test_zero_indentation_zero_force(self):
        assert P.force_model(0.0, 0.0) == 0.0
        assert P.force_model(0.0, 5.0) == 0.0  # viscous term gated off

    def test_default_coefficients_at_one_mm(self):
        # 200 * 1 + 60 * 1 = 260 mN at zero velocity
        assert P.force_model(1.0, 0.0) == pytest.approx(260.0)

    def test_monotone_in_depth_at_zero_velocity(self):
        deltas = np.linspace(0.01, 3.0, 64)
        forces = P.force_model(deltas, np.zeros_like(deltas))
        assert np.all(np.diff(forces) > 0)

    def test_never_negative(self, rng):
        f = P.force_model(rng.uniform(0, 3, 100), rng.uniform(-200, 200, 100))
        assert f.min() >= 0.0


class TestRender:
    def test_flat_surface_when_not_indented(self):
        cfg = _small_cfg(noise=False)
        meta = P.ExperimentMeta(0, "sinusoid", "train", {}, None, None,
                                z0_mm=0.4, sigma_mm=0.7)
        vol = P.render_volume(0.0, meta, cfg)
        dm = reps.project_depth(vol)
        assert len(np.unique(dm)) == 1

    def test_bump_center_depth_increase_matches_geometry(self):
        cfg = _small_cfg(noise=False)
        mm_per_voxel = cfg.depth_fov_mm / (cfg.d_raw - 1)
        # put the resting surface exactly on a voxel boundary
        meta = P.ExperimentMeta(0, "sinusoid", "train", {}, None, None,
                                cx_mm=0.0, cy_mm=0.0, z0_mm=4 * mm_per_voxel,
                                sigma_mm=50.0)  # wide bump: center column at full depth
        delta = 1.0
        flat = reps.project_depth(P.render_volume(0.0, meta, cfg))
        dented = reps.project_depth(P.render_volume(delta, meta, cfg))
        center = (cfg.h // 2, cfg.w // 2)
        expected = int(math.floor(delta / mm_per_voxel + 0.5))
        assert dented[center] - flat[center] == expected

    def test_same_seed_bit_identical(self):
        cfg = _small_cfg(noise=True)
        meta = P.ExperimentMeta(0, "sinusoid", "train", {}, None, None)
        a = P.render_volume(1.0, meta, cfg, np.random.default_rng(9))
        b = P.render_volume(1.0, meta, cfg, np.random.default_rng(9))
        npt.assert_array_equal(a, b)

    def test_depth_map_peak_tracks_needle_position(self):
        cfg = _small_cfg(noise=True)
        rng = np.random.default_rng(5)
        meta = P.ExperimentMeta(0, "sinusoid", "train", {}, None, None,
                                cx_mm=0.5, cy_mm=-0.4, sigma_mm=0.5)
        vol = P.render_volume(1.2, meta, cfg, rng)
        dm = reps.project_depth(vol)
        iy, ix = np.unravel_index(np.argmax(dm), dm.shape)
        # convert needle mm position to the nearest lateral cell
        step = cfg.lateral_fov_mm / cfg.h
        ey = (meta.cy_mm + cfg.lateral_fov_mm / 2) / step - 0.5
        ex = (meta.cx_mm + cfg.lateral_fov_mm / 2) / step - 0.5
        assert abs(iy - ey) <= 1.5 and abs(ix - ex) <= 1.5


class TestGenerate:
    def test_split_apportionment(self):
        assert P.split_counts(12, (0.75, 0.08, 0.17)) == (9, 1, 2)
        assert P.split_counts(10, (0.5, 0.25, 0.25)) == (5, 3, 2)

    # each sums to 1 (or to NaN) with a fraction outside [0, 1]
    @pytest.mark.parametrize("fractions", [(1.5, -0.25, -0.25), (-0.5, 1.0, 0.5),
                                           (math.inf, -math.inf, 1.0),
                                           (math.nan, 0.0, 1.0)])
    def test_fraction_outside_unit_interval_rejected(self, fractions):
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            P.experiment_splits(4, fractions)

    @pytest.mark.parametrize("n", [0, -3])
    def test_sample_count_below_one_rejected(self, n):
        with pytest.raises(ValueError, match=f"at least 1, got {n}"):
            P.TrajectoryConfig(n_samples=n)

    def test_generate_is_deterministic(self):
        cfg = _small_cfg(n=10, seed=21)
        a = P.experiments(3, cfg, (0.4, 0.3, 0.3))
        b = P.experiments(3, cfg, (0.4, 0.3, 0.3))
        for ea, eb in zip(a, b):
            npt.assert_array_equal(ea.volumes, eb.volumes)
            npt.assert_array_equal(ea.forces, eb.forces)

    def test_experiments_differ_across_seeds(self):
        metas = [e.meta for e in P.experiments(4, _small_cfg(n=8, seed=2), (0.5, 0.25, 0.25))]
        params = {tuple(sorted(m.params.items())) for m in metas}
        assert len(params) == len(metas)

    def test_too_few_experiments_rejected(self):
        with pytest.raises(ValueError, match="at least 3"):
            P.experiments(2, _small_cfg())

    def test_sample_bookkeeping(self):
        exps = list(P.experiments(4, _small_cfg(n=12), (0.5, 0.25, 0.25)))
        assert sum(len(e.forces) for e in exps) == 4 * 12
        assert [e.meta.split for e in exps] == \
            ["train", "train", "val", "test"]

    def test_hard_mode_varies_stiffness(self):
        hard = P.experiments(4, _small_cfg(n=6, hard=True), (0.5, 0.25, 0.25))
        stiff = [e.meta.stiffness for e in hard]
        assert len(set(stiff)) == len(stiff)
        plain = P.experiments(4, _small_cfg(n=6), (0.5, 0.25, 0.25))
        assert all(e.meta.stiffness == 1.0 for e in plain)

    def test_label_volume_consistency_without_viscosity(self):
        # with the viscous term disabled, rendered indentation and force
        # must be related by a monotone map within one experiment
        cfg = P.SimConfig(
            trajectory=P.TrajectoryConfig(n_samples=60, seed=3),
            h=6, w=6, d_raw=64, noise=False,
            force=P.ForceParams(c=0.0))
        exp = next(P.experiments(3, cfg, (0.4, 0.3, 0.3)))
        excursion = reps.project_depth(exp.volumes).max(axis=(1, 2))
        by_exc = {}
        for e, f in zip(excursion, exp.forces):
            by_exc.setdefault(int(e), []).append(float(f))
        levels = sorted(by_exc)
        means = [np.mean(by_exc[l]) for l in levels]
        assert len(levels) > 3
        assert all(a < b for a, b in zip(means, means[1:]))


class TestFileFormat:
    def test_save_load_round_trip(self, tmp_path):
        cfg = _small_cfg(kind="spline", n=7, seed=5)
        path = tmp_path / "ds.oct4d"
        P.write_dataset_streamed(path, 3, cfg, (0.4, 0.3, 0.3))
        loaded = P.load_dataset(path)
        assert len(loaded.experiments) == 3
        for a, b in zip(P.experiments(3, cfg, (0.4, 0.3, 0.3)), loaded.experiments):
            npt.assert_array_equal(a.volumes, b.volumes)
            npt.assert_array_equal(a.forces, b.forces)
            npt.assert_array_equal(a.timestamps, b.timestamps)
            assert a.meta.split == b.meta.split
            assert a.meta.kind == b.meta.kind
            npt.assert_allclose(a.meta.knots_t, b.meta.knots_t)

    def test_config_round_trip_every_field(self, tmp_path):
        cfg = P.SimConfig(
            trajectory=P.TrajectoryConfig(kind="spline", amplitude_mm=(1.5, 2.5),
                                          frequency_hz=(2.0, 4.5), contact_mm=0.25,
                                          max_mm=3.0, rate_hz=30.0, n_samples=10, seed=7),
            h=4, w=5, d_raw=8, lateral_fov_mm=2.5, depth_fov_mm=3.25, decay_mm=0.5,
            noise=False, hard_mode=True, force=P.ForceParams(k1=150.0, k2=40.0, c=2.5))
        # every setting differs from its default, so one the file drops shows
        defaults = dict(P._config_fields(P.SimConfig()))
        assert all(value != defaults[name] for name, value in P._config_fields(cfg))
        path = tmp_path / "ds.oct4d"
        P.write_dataset_streamed(path, 3, cfg, (0.4, 0.3, 0.3))
        assert P.load_dataset(path).config == cfg

    def test_file_without_settings_loads_defaults(self, tmp_path, monkeypatch):
        # files written before every setting was recorded carry only these
        recorded = ("h", "w", "d_raw", "lateral_fov_mm", "depth_fov_mm", "rate_hz")
        config_fields = P._config_fields
        monkeypatch.setattr(P, "_config_fields", lambda cfg: (
            (name, value) for name, value in config_fields(cfg) if name in recorded))
        path = tmp_path / "ds.oct4d"
        P.write_dataset_streamed(path, 3, _small_cfg(kind="spline", n=4, seed=7, noise=False,
                                                     hard=True), (0.4, 0.3, 0.3))
        monkeypatch.undo()
        assert P.load_dataset(path).config == P.SimConfig(
            trajectory=P.TrajectoryConfig(kind="spline"), h=6, w=6, d_raw=32)

    def test_corrupted_magic_rejected(self, tmp_path):
        path = tmp_path / "ds.oct4d"
        P.write_dataset_streamed(path, 3, _small_cfg(n=4), (0.4, 0.3, 0.3))
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="magic"):
            P.load_dataset(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "ds.oct4d"
        P.write_dataset_streamed(path, 3, _small_cfg(n=4), (0.4, 0.3, 0.3))
        blob = path.read_bytes()
        path.write_bytes(blob[:-100])
        with pytest.raises(ValueError, match="truncated"):
            P.load_dataset(path)

    def test_stale_temp_name_does_not_break_writes(self, tmp_path):
        # a crashed or concurrent writer may leave "<path>.tmp" behind
        path = tmp_path / "ds.oct4d"
        (tmp_path / "ds.oct4d.tmp").mkdir()
        P.write_dataset_streamed(path, 3, _small_cfg(n=4), (0.4, 0.3, 0.3))
        P.atomic_write(tmp_path / "ds.oct4d.meta.txt", b"sidecar")
        assert len(P.load_dataset(path).experiments) == 3
        assert (tmp_path / "ds.oct4d.tmp").is_dir()

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        with pytest.raises(TypeError):
            P.atomic_write(tmp_path / "x.bin", "text, not bytes")
        generate = P.generate_experiment

        def fail_after_first(cfg, i, *args):
            if i > 0:
                raise RuntimeError("generation failed")
            return generate(cfg, i, *args)

        monkeypatch.setattr(P, "generate_experiment", fail_after_first)
        with pytest.raises(RuntimeError):
            P.write_dataset_streamed(tmp_path / "ds.oct4d", 3, _small_cfg(n=4))
        assert os.listdir(tmp_path) == []

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ds.oct4d"
        P.write_dataset_streamed(path, 3, _small_cfg(n=4), (0.4, 0.3, 0.3))
        blob = bytearray(path.read_bytes())
        blob[8:12] = struct.pack("<I", 99)
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="version"):
            P.load_dataset(path)

    def test_file_size_arithmetic(self, tmp_path):
        cfg = _small_cfg(n=5)
        path = tmp_path / "ds.oct4d"
        P.write_dataset_streamed(path, 3, cfg, (0.4, 0.3, 0.3))
        expected = len(P.MAGIC) + 4 + 4
        for exp in P.experiments(3, cfg, (0.4, 0.3, 0.3)):
            fields = P._meta_fields(exp, cfg)
            expected += 4 + sum(4 + len(f.encode()) for f in fields)
            expected += 4 + len(exp.forces) * (8 + 4 + cfg.h * cfg.w * cfg.d_raw * 4)
        assert path.stat().st_size == expected

    def test_sidecar_is_human_readable(self, tmp_path):
        path = tmp_path / "ds.oct4d"
        P.write_dataset_streamed(path, 3, _small_cfg(n=4), (0.4, 0.3, 0.3))
        text = (tmp_path / "ds.oct4d.meta.txt").read_text()
        assert "experiments=3" in text
        assert "samples=12" in text
        assert "split_experiments=1/1/1" in text
