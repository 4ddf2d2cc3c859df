from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest

from volforce import reps


class TestProjectDepth:
    def test_single_bright_voxel_per_column(self, rng):
        depths = rng.integers(0, 32, size=(4, 5))
        vol = np.zeros((4, 5, 32), dtype=np.float32)
        for i in range(4):
            for j in range(5):
                vol[i, j, depths[i, j]] = 1.0
        dm = reps.project_depth(vol)
        npt.assert_array_equal(dm.values, depths)
        assert dm.d_raw == 32

    def test_uniform_volume_ties_to_zero(self):
        dm = reps.project_depth(np.ones((3, 3, 16)))
        npt.assert_array_equal(dm.values, 0)

    def test_matches_exhaustive_scan(self, rng):
        vol = rng.normal(size=(6, 7, 20))
        dm = reps.project_depth(vol)
        for i in range(6):
            for j in range(7):
                best, best_z = -np.inf, 0
                for z in range(20):
                    if vol[i, j, z] > best:  # strict: keeps first maximum
                        best, best_z = vol[i, j, z], z
                assert dm.values[i, j] == best_z

    def test_non_finite_rejected(self):
        vol = np.ones((2, 2, 4))
        vol[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            reps.project_depth(vol)


class TestReprojectPseudo:
    def test_round_trip_identity(self, rng):
        for _ in range(50):
            d_raw = int(rng.integers(2, 64))
            dm = reps.DepthMap(rng.integers(0, d_raw, size=(5, 4)), d_raw)
            vol = reps.reproject_pseudo(dm, d_out=d_raw)
            back = reps.project_depth(vol)
            npt.assert_array_equal(back.values, dm.values)

    def test_constant_zero_depth_gives_first_slice(self):
        dm = reps.DepthMap(np.zeros((3, 3), dtype=np.int64), 128)
        vol = reps.reproject_pseudo(dm, d_out=16)
        npt.assert_array_equal(vol[:, :, 0], 1.0)
        assert vol.sum() == 9

    def test_columns_one_hot(self, rng):
        dm = reps.DepthMap(rng.integers(0, 128, size=(8, 8)), 128)
        vol = reps.reproject_pseudo(dm, d_out=32)
        sums = vol.sum(axis=-1)
        npt.assert_array_equal(sums, 1.0)
        assert set(np.unique(vol)) <= {0.0, 1.0}

    def test_scaling_matches_rational_arithmetic(self, rng):
        d_raw, d_out = 128, 32
        dm = reps.DepthMap(rng.integers(0, d_raw, size=(10, 10)), d_raw)
        vol = reps.reproject_pseudo(dm, d_out)
        got = np.argmax(vol, axis=-1)
        for i in range(10):
            for j in range(10):
                exact = Fraction(int(dm.values[i, j]) * (d_out - 1), d_raw - 1)
                expected = int(exact + Fraction(1, 2))  # round half up
                assert got[i, j] == expected


class TestWindow:
    @staticmethod
    def _experiment(n, rng, h=4, w=4, d_raw=16):
        """Raw volumes, forces 10 * i and timestamps i / 60 of one experiment."""
        vols = rng.uniform(0.2, 1.0, size=(n, h, w, d_raw)).astype(np.float32)
        return vols, 10.0 * np.arange(n), np.arange(n) / 60.0

    @staticmethod
    def _windowed(experiment, representation, p, f, d_out=16):
        vols, forces, stamps = experiment
        data = reps.WindowedData(representation, p, f)
        data.add_experiment(reps.frames_for(representation, vols, d_out), forces, stamps)
        return data

    def test_count_formula(self, rng):
        data = self._windowed(self._experiment(10, rng), "4d-st", p=6, f=0, d_out=8)
        assert len(data) == 10 - (6 - 1) - 0 == 5

    def test_horizon_trims_tail(self, rng):
        experiment = self._experiment(10, rng)
        data = self._windowed(experiment, "3d-st", p=2, f=4)
        # the last 4 frames can never be window ends: no label exists for them
        assert len(data) == 10 - 1 - 4
        assert data.windows[-1] == (0, 5)  # last admissible end index
        _, y = data.gather([len(data) - 1])
        assert y[0, 0] == experiment[1][9]  # label at end + f

    def test_hand_enumerated_pairs(self, rng):
        experiment = self._experiment(5, rng)
        data = self._windowed(experiment, "4d-st", p=2, f=1, d_out=8)
        # windows: frames (0,1) label force[2]; (1,2)->3; (2,3)->4
        x, y = data.gather(range(len(data)))
        assert len(data) == 3
        assert y[:, 0].tolist() == [20.0, 30.0, 40.0]
        frames = reps.frames_for("4d-st", experiment[0], 8)
        for k in range(3):
            npt.assert_array_equal(x[k], frames[k:k + 2])

    def test_spatial_representations_use_single_frames(self, rng):
        data = self._windowed(self._experiment(6, rng), "2d-s", p=4, f=1)
        assert len(data) == 6 - 1  # p ignored for -s reps
        x, _ = data.gather([0])
        assert x[0].shape == (4, 4, 1)

    def test_depth_inputs_normalized(self, rng):
        data = self._windowed(self._experiment(4, rng), "3d-st", p=2, f=0)
        x, _ = data.gather(range(len(data)))
        assert x.min() >= 0.0 and x.max() <= 1.0


class TestResample:
    def test_identity_when_sizes_match(self, rng):
        vol = rng.normal(size=(4, 4, 16)).astype(np.float32)
        npt.assert_array_equal(reps.resample_depth_axis(vol, 16), vol)

    def test_endpoints_preserved(self, rng):
        vol = rng.normal(size=(4, 4, 64)).astype(np.float32)
        out = reps.resample_depth_axis(vol, 16)
        npt.assert_allclose(out[..., 0], vol[..., 0], rtol=1e-6)
        npt.assert_allclose(out[..., -1], vol[..., -1], rtol=1e-6)

    def test_linear_profile_stays_linear(self):
        vol = np.broadcast_to(np.linspace(0, 1, 33), (2, 2, 33)).copy()
        out = reps.resample_depth_axis(vol, 17)
        npt.assert_allclose(out[0, 0], np.linspace(0, 1, 17), atol=1e-6)


class TestWindowedData:
    def test_no_window_crosses_experiment_boundary(self, rng):
        data = reps.WindowedData("4d-st", p=3, f=1)
        for n in (6, 8):
            frames = rng.normal(size=(n, 4, 4, 4, 1)).astype(np.float32)
            data.add_experiment(frames, np.arange(n, dtype=np.float64))
        # per experiment: n - (p-1) - f windows
        assert len(data) == (6 - 2 - 1) + (8 - 2 - 1)
        for e, end in data.windows:
            assert end - (3 - 1) >= 0
            assert end + 1 <= len(data.labels[e])

    def test_gather_hand_enumerated(self, rng):
        frames = rng.normal(size=(7, 4, 4, 8, 1)).astype(np.float32)
        data = reps.WindowedData("ps-4d-st", p=2, f=1)
        data.add_experiment(frames, 3.0 * np.arange(7))
        # window ends 1..5: frames (end-1, end), label force[end + 1]
        assert data.windows == [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]
        x, y = data.gather(range(len(data)))
        assert y[:, 0].tolist() == [6.0, 9.0, 12.0, 15.0, 18.0]
        for k, end in enumerate(range(1, 6)):
            npt.assert_array_equal(x[k], frames[end - 1:end + 1])

    def test_negative_horizon_or_empty_history_rejected(self):
        # a horizon of -1 would put a window end past the last frame, whose
        # history slice then comes back one frame short
        with pytest.raises(ValueError, match="horizon"):
            reps.WindowedData("4d-st", 2, -1)
        with pytest.raises(ValueError, match="history"):
            reps.WindowedData("4d-st", 0, 0)
