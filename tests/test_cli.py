import hashlib
import json
import os
import signal
import subprocess
import sys
import threading

import numpy.testing as npt
import pytest

from volforce import architectures as A
from volforce import cli
from volforce import metrics, phantom, reps, training

from helpers import rewrite_checkpoint_config


def _gen(tmp_path, name="ds.oct4d", seed="7", samples="24", experiments="4",
         kind="sinusoid"):
    rc = cli.main([
        "gen", "--kind", kind, "--experiments", experiments, "--samples", samples,
        "--seed", seed, "--height", "8", "--width", "8", "--d-raw", "32",
        "--fractions", "0.5,0.25,0.25", "--out", str(tmp_path), "--name", name])
    assert rc == 0
    return tmp_path / name


TINY = ["--d-out", "8", "--base-channels", "4", "--blocks", "2",
        "--output-stride", "2", "--batch-size", "8"]


def _train(tmp_path, ds, extra=(), arch="resnet2d-s", rep="2d-s",
           epochs="2", seed="3"):
    rc = cli.main([
        "train", "--dataset", str(ds), "--arch", arch, "--rep", rep,
        "--history", "2", "--horizon", "0", "--epochs", epochs,
        *TINY, "--seed", seed, "--out", str(tmp_path / "run"), *extra])
    assert rc == 0
    run_id = f"{arch}_{rep}_p2_f0_seed{seed}"
    return tmp_path / "run" / f"{run_id}.ckpt", run_id


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestGen:
    def test_reproducible_bytes(self, tmp_path):
        a = _gen(tmp_path, "a.oct4d")
        b = _gen(tmp_path, "b.oct4d")
        assert _sha(a) == _sha(b)

    def test_spline_kind(self, tmp_path, capsys):
        _gen(tmp_path, kind="spline")
        out = capsys.readouterr().out
        assert "4 experiments" in out and "96 samples" in out

    def test_no_temp_files_left(self, tmp_path):
        _gen(tmp_path)
        assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]

    def test_invalid_fractions_exit_nonzero(self, tmp_path, capsys):
        rc = cli.main(["gen", "--fractions", "0.5,0.5", "--out", str(tmp_path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("fractions", ["1.5,-0.25,-0.25", "-0.5,1.0,0.5", "inf,-inf,1"])
    def test_fraction_outside_unit_interval_exits_with_one_error_line(self, tmp_path, capsys,
                                                                      fractions):
        rc = cli.main(["gen", "--experiments", "4", "--samples", "4",
                       f"--fractions={fractions}", "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "[0, 1]" in err and err.count("\n") == 1
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("samples", ["0", "-2"])
    def test_sample_count_below_one_exits_with_one_error_line(self, tmp_path, capsys,
                                                              samples):
        rc = cli.main(["gen", "--experiments", "3", "--samples", samples,
                       "--out", str(tmp_path)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: samples per experiment must be at least 1, "
                                f"got {samples}\n")
        assert captured.out == "" and os.listdir(tmp_path) == []

    @pytest.mark.parametrize("flag,value", [("--d-raw", "1"), ("--height", "0"),
                                            ("--width", "0")])
    def test_bad_volume_extents_exit_with_one_error_line(self, tmp_path, capsys,
                                                         flag, value):
        rc = cli.main(["gen", "--experiments", "3", "--samples", "4", flag, value,
                       "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "extents" in err and err.count("\n") == 1
        assert os.listdir(tmp_path) == []


class TestTrain:
    def test_writes_checkpoint_and_loss_csv(self, tmp_path):
        ds = _gen(tmp_path)
        ckpt, run_id = _train(tmp_path, ds)
        assert ckpt.exists()
        loss = (tmp_path / "run" / f"{run_id}_loss.csv").read_text().splitlines()
        assert loss[0] == "epoch,train_mse,val_mse"
        assert len(loss) == 3  # header + 2 epochs

    def test_zero_lr_checkpoint_equals_initialization(self, tmp_path):
        ds = _gen(tmp_path)
        ckpt, _ = _train(tmp_path, ds, extra=["--lr", "0"], epochs="1", seed="5")
        net, _ = A.load_checkpoint(ckpt)
        fresh = A.build(net.config, seed=5)
        for (n1, p1), (n2, p2) in zip(net.named_params(), fresh.named_params()):
            assert n1 == n2
            npt.assert_array_equal(p1.data, p2.data)

    def test_incompatible_arch_rep_exits_nonzero(self, tmp_path, capsys):
        ds = _gen(tmp_path)
        rc = cli.main(["train", "--dataset", str(ds), "--arch", "resnet4d",
                       "--rep", "2d-s", "--out", str(tmp_path)])
        assert rc == 1
        assert "representations" in capsys.readouterr().err

    def test_comma_list_rejected(self, tmp_path, capsys):
        ds = _gen(tmp_path)
        for flag in ("--history", "--horizon"):
            rc = cli.main(["train", "--dataset", str(ds), "--arch", "resnet2d-s",
                           "--rep", "2d-s", flag, "2,4", "--out", str(tmp_path / "run")])
            assert rc == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and flag in err and len(err.splitlines()) == 1
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("flag,value,text", [
        ("--batch-size", "1", "batch size"), ("--batch-size", "0", "batch size"),
        ("--ema-decay", "5", "EMA decay"),
        ("--ema-decay", "-0.1", "EMA decay"), ("--ema-decay", "nan", "EMA decay")])
    def test_bad_train_settings_exit_with_one_error_line(self, tmp_path, capsys,
                                                         flag, value, text):
        ds = _gen(tmp_path)
        capsys.readouterr()
        rc = cli.main(["train", "--dataset", str(ds), "--arch", "resnet2d-s",
                       "--rep", "2d-s", *TINY, flag, value, "--epochs", "1",
                       "--out", str(tmp_path / "run")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and text in err and err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    def test_negative_checkpoint_every_exits_with_one_error_line(self, tmp_path, capsys):
        ds = _gen(tmp_path)
        capsys.readouterr()
        rc = cli.main(["train", "--dataset", str(ds), "--arch", "resnet2d-s",
                       "--rep", "2d-s", *TINY, "--checkpoint-every", "-1", "--epochs", "1",
                       "--out", str(tmp_path / "run")])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == "error: --checkpoint-every must be at least 0, got -1\n"
        assert captured.out == "" and not (tmp_path / "run").exists()

    def test_missing_dataset_exits_nonzero(self, tmp_path):
        rc = cli.main(["train", "--dataset", str(tmp_path / "nope.oct4d"),
                       "--arch", "resnet2d-s", "--rep", "2d-s",
                       "--out", str(tmp_path)])
        assert rc == 1

    def test_same_seed_reproducible_loss_csv(self, tmp_path):
        ds = _gen(tmp_path)
        _, run_id = _train(tmp_path, ds)
        first = (tmp_path / "run" / f"{run_id}_loss.csv").read_bytes()
        _, _ = _train(tmp_path, ds)
        second = (tmp_path / "run" / f"{run_id}_loss.csv").read_bytes()
        assert first == second


class TestEval:
    def test_report_schema_and_errors_file(self, tmp_path, capsys):
        ds = _gen(tmp_path)
        ckpt, run_id = _train(tmp_path, ds)
        rc = cli.main(["eval", "--dataset", str(ds), "--checkpoint", str(ckpt),
                       "--out", str(tmp_path / "ev"), "--plot"])
        assert rc == 0
        lines = (tmp_path / "ev" / "metrics.csv").read_text().splitlines()
        assert lines[0].split(",") == list(__import__(
            "volforce.metrics", fromlist=["REPORT_COLUMNS"]).REPORT_COLUMNS)
        assert len(lines[1].split(",")) == 12
        assert (tmp_path / "ev" / f"{run_id}.errors").exists()
        svg = (tmp_path / "ev" / f"{run_id}_regression.svg").read_text()
        assert svg.startswith("<svg") and "polyline" not in svg

    def test_compare_adds_wilcoxon_column(self, tmp_path):
        ds = _gen(tmp_path)
        ckpt, run_id = _train(tmp_path, ds)
        rc = cli.main(["eval", "--dataset", str(ds), "--checkpoint", str(ckpt),
                       "--out", str(tmp_path / "e1")])
        assert rc == 0
        errors = tmp_path / "e1" / f"{run_id}.errors"
        rc = cli.main(["eval", "--dataset", str(ds), "--checkpoint", str(ckpt),
                       "--out", str(tmp_path / "e2"),
                       "--compare", str(errors)])
        assert rc == 0
        lines = (tmp_path / "e2" / "metrics.csv").read_text().splitlines()
        assert lines[0].endswith("wilcoxon_p")
        assert len(lines[1].split(",")) == 13

    def test_depth_comes_from_the_checkpoint(self, tmp_path):
        # trained with --d-out 8 (TINY); eval has no --d-out and windows 8 deep
        ds = _gen(tmp_path)
        ckpt, run_id = _train(tmp_path, ds, arch="resnet3d-s", rep="3d-s")
        rc = cli.main(["eval", "--dataset", str(ds), "--checkpoint", str(ckpt),
                       "--out", str(tmp_path / "ev")])
        assert rc == 0
        net, ema = A.load_checkpoint(ckpt)
        splits = reps.windowed_splits(phantom.load_dataset(ds), "3d-s", 2, 0, 8)
        pred, target = training.predict(net, splits["test"], ema)
        errors = (tmp_path / "ev" / f"{run_id}.errors").read_text().split()
        assert [float(e) for e in errors] == [float(e) for e in abs(pred - target)]
        with pytest.raises(SystemExit):
            cli._parser().parse_args(["eval", "--checkpoint", str(ckpt), "--d-out", "8"])

    def test_missing_checkpoint_flag_exits_nonzero(self, tmp_path):
        rc = cli.main(["eval", "--dataset", "x", "--out", str(tmp_path)])
        assert rc == 1

    def test_bad_checkpoint_prints_error_not_traceback(self, tmp_path, capsys):
        ds = _gen(tmp_path)
        ckpt, _ = _train(tmp_path, ds)
        data = ckpt.read_bytes()
        (tmp_path / "cut8.ckpt").write_bytes(data[:8])
        (tmp_path / "cut12.ckpt").write_bytes(data[:12])
        rewrite_checkpoint_config(ckpt, lambda cfg: dict(cfg, dropout=0.5))
        for path in (tmp_path / "cut8.ckpt", tmp_path / "cut12.ckpt", ckpt):
            rc = cli.main(["eval", "--dataset", str(ds), "--checkpoint", str(path),
                           "--out", str(tmp_path / "ev")])
            err = capsys.readouterr().err
            assert rc == 1, path
            assert err.startswith("error:") and len(err.strip().splitlines()) == 1, err


    def test_cut_dataset_prints_error_not_traceback(self, tmp_path, capsys):
        ds = _gen(tmp_path, experiments="3")
        ckpt, _ = _train(tmp_path, ds)
        data = ds.read_bytes()
        for n in (10, 14):
            cut = tmp_path / f"cut{n}.oct4d"
            cut.write_bytes(data[:n])
            rc = cli.main(["eval", "--dataset", str(cut), "--checkpoint", str(ckpt),
                           "--out", str(tmp_path / "ev")])
            err = capsys.readouterr().err
            assert rc == 1, n
            assert err.startswith("error:") and len(err.strip().splitlines()) == 1, err


class TestAppendReport:
    def test_concurrent_appends_keep_one_header_and_every_row(self, tmp_path):
        path = tmp_path / "metrics.csv"
        workers, rows_each = 8, 25
        start = threading.Barrier(workers)

        def append(w):
            start.wait(timeout=60)  # all writers race for the first row
            for i in range(rows_each):
                report = metrics.MetricsReport(f"run{w}_{i}", "a", "r", 2, 0, 1.0, 0.5,
                                               1.5, 0.1, 0.9, 0.8, 10)
                cli._append_report(str(path), report)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=append, args=(w,)) for w in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        lines = path.read_text().splitlines()
        assert lines[0] == metrics.MetricsReport.csv_header(False)
        assert sorted(line.split(",")[0] for line in lines[1:]) == sorted(
            f"run{w}_{i}" for w in range(workers) for i in range(rows_each))
        assert all(len(line.split(",")) == 12 for line in lines[1:])


class TestSweep:
    def test_explicit_small_grid(self, tmp_path, capsys):
        ds = _gen(tmp_path)
        rc = cli.main(["sweep", "--dataset", str(ds), "--arch", "resnet2d-s",
                       "--rep", "2d-s", "--history", "2,4", "--horizon", "0",
                       "--epochs", "1", *TINY, "--out", str(tmp_path / "sw"),
                       "--seed", "1"])
        assert rc == 0
        lines = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 2  # header + one row per run
        assert (tmp_path / "sw" / "sweep.svg").read_text().startswith("<svg")

    def test_parallel_jobs_match_serial_results(self, tmp_path):
        ds = _gen(tmp_path)
        outs = {}
        for label, jobs in (("serial", "1"), ("parallel", "2")):
            rc = cli.main(["sweep", "--dataset", str(ds), "--arch", "resnet2d-s",
                           "--rep", "2d-s", "--history", "2", "--horizon", "0,1",
                           "--epochs", "1", *TINY, "--out", str(tmp_path / label),
                           "--jobs", jobs, "--seed", "2"])
            assert rc == 0
            outs[label] = (tmp_path / label / "sweep.csv").read_text()
        assert outs["serial"] == outs["parallel"]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failed_cell_keeps_the_finished_cells(self, tmp_path, capsys, jobs):
        # horizon 30 leaves no training window, so the first cell fails
        ds = _gen(tmp_path)
        rc = cli.main(["sweep", "--dataset", str(ds), "--arch", "resnet2d-s",
                       "--rep", "2d-s", "--history", "2", "--horizon", "30,0",
                       "--epochs", "1", *TINY, "--out", str(tmp_path / "sw"),
                       "--jobs", jobs, "--seed", "2"])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: p=2 f=30: training split is empty"]
        lines = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
        assert lines[0] == metrics.MetricsReport.csv_header()
        assert [line.split(",")[3:5] for line in lines[1:]] == [["2", "0"]]
        assert (tmp_path / "sw" / "sweep.svg").read_text().startswith("<svg")

    def test_no_finished_cell_writes_the_header_only(self, tmp_path, capsys):
        ds = _gen(tmp_path)
        rc = cli.main(["sweep", "--dataset", str(ds), "--arch", "resnet2d-s",
                       "--rep", "2d-s", "--history", "2", "--horizon", "30",
                       "--epochs", "1", *TINY, "--out", str(tmp_path / "sw")])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: p=2 f=30: training split is empty"]
        lines = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
        assert lines == [metrics.MetricsReport.csv_header()]
        assert (tmp_path / "sw" / "sweep.svg").read_text().startswith("<svg")

    @pytest.mark.parametrize("batch_size", ["0", "1"])
    def test_bad_batch_size_fails_every_cell(self, tmp_path, capsys, batch_size):
        ds = _gen(tmp_path)
        capsys.readouterr()
        rc = cli.main(["sweep", "--dataset", str(ds), "--arch", "resnet2d-s",
                       "--rep", "2d-s", "--history", "2", "--horizon", "0,1",
                       "--epochs", "1", *TINY, "--batch-size", batch_size,
                       "--out", str(tmp_path / "sw")])
        assert rc == 1
        reason = "need epochs >= 1 and batch size >= 2 (batch norm needs 2 samples)"
        assert capsys.readouterr().err.splitlines() == [
            f"error: p=2 f={f}: {reason}" for f in (0, 1)]
        lines = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
        assert lines == [metrics.MetricsReport.csv_header()]

    def test_parallel_jobs_after_the_fold_pool_ran(self, tmp_path):
        # the forked sweep workers inherit a copy of the parent's fold pool,
        # which has no threads.  A subprocess in its own session with a
        # timeout, so a worker that waits on that copy fails this test
        # instead of hanging the suite, and is killed with its parent
        ds = _gen(tmp_path)
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from volforce import cli, ops, tensor\n"
            "from volforce.tensor import Tensor\n"
            "tensor._workers, ops.POOL_MIN_BYTES = (lambda: 2), 0\n"
            "ops.conv_spatial(Tensor(np.ones((2, 8, 8, 8, 4), np.float32)),\n"
            "                 Tensor(np.ones((3, 3, 3, 4, 4), np.float32)))\n"
            "assert tensor._POOL\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen(
            [sys.executable, "-c", script, "sweep", "--dataset", str(ds),
             "--arch", "resnet2d-s", "--rep", "2d-s", "--history", "2", "--horizon", "0,1",
             "--epochs", "1", *TINY, "--out", str(tmp_path / "sw"), "--jobs", "2",
             "--seed", "2"], env=env, stderr=subprocess.PIPE, text=True,
            start_new_session=True)
        try:
            _, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the sweep and its forked workers
            proc.communicate()
            raise
        assert proc.returncode == 0, err
        assert len((tmp_path / "sw" / "sweep.csv").read_text().splitlines()) == 3

    def test_jobs_is_a_sweep_flag_only(self, capsys):
        assert cli._parser().parse_args(["sweep", "--jobs", "2"]).jobs == 2
        for command in ("gen", "train", "eval"):
            with pytest.raises(SystemExit) as exc:
                cli._parser().parse_args([command, "--jobs", "2"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_exits_with_one_error_line(self, tmp_path, capsys, jobs):
        ds = _gen(tmp_path)
        capsys.readouterr()
        rc = cli.main(["sweep", "--dataset", str(ds), "--arch", "resnet2d-s",
                       "--rep", "2d-s", "--history", "2", "--horizon", "0",
                       "--epochs", "1", *TINY, "--out", str(tmp_path / "sw"),
                       "--jobs", jobs])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: --jobs must be at least 1, got {jobs}\n"
        assert captured.out == "" and not (tmp_path / "sw").exists()

    def test_default_grid_is_twenty_cells(self):
        args = cli._parser().parse_args(["sweep", "--dataset", "x"])
        settings = cli._settings(args)
        ps = cli._int_list(settings["history"])
        fs = cli._int_list(settings["horizon"])
        assert ps == [2, 4, 6, 8]
        assert fs == [0, 1, 2, 3, 4]
        assert len(ps) * len(fs) == 20


class TestConfigPrecedence:
    def test_flags_override_config_file_overrides_defaults(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"samples": 10, "experiments": 5}))
        args = cli._parser().parse_args([
            "gen", "--config", str(cfg_path), "--samples", "12"])
        settings = cli._settings(args)
        assert settings["samples"] == 12       # flag wins
        assert settings["experiments"] == 5    # config beats default
        assert settings["height"] == 16        # default survives

    def test_unknown_config_keys_rejected(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"not_a_flag": 1}))
        rc = cli.main(["gen", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert rc == 1


class TestConfigValidation:
    @staticmethod
    def _run(tmp_path, capsys, command, config):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        rc = cli.main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        return rc, err

    @pytest.mark.parametrize("command, config", [
        ("gen", {"jobs": 4}), ("gen", {"epochs": 4}), ("train", {"kind": "spline"}),
        ("eval", {"command": "gen"}), ("gen", {"config": "other.json"}),
    ])
    def test_key_that_is_not_a_flag_of_the_command_rejected(self, tmp_path, capsys,
                                                            command, config):
        rc, err = self._run(tmp_path, capsys, command, config)
        assert rc == 1
        assert err.startswith("error: unknown keys") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("config", [5, [1, 2], "samples", None])
    def test_config_that_is_not_an_object_rejected(self, tmp_path, capsys, config):
        rc, err = self._run(tmp_path, capsys, "gen", config)
        assert rc == 1
        assert err.startswith("error: ") and "JSON object" in err and err.count("\n") == 1

    @pytest.mark.parametrize("config", [
        {"samples": "abc"}, {"samples": 4.5}, {"samples": True}, {"samples": None},
        {"kind": "wave"}, {"hard_mode": 1}, {"fractions": [0.5, 0.25, 0.25]},
    ])
    def test_value_the_flag_rejects_is_rejected(self, tmp_path, capsys, config):
        rc, err = self._run(tmp_path, capsys, "gen", config)
        assert rc == 1
        assert err.startswith("error: invalid config value for --") and err.count("\n") == 1

    def test_values_parse_as_their_flags(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"samples": "12", "hard_mode": True,
                                        "out": "elsewhere"}))
        gen = cli._settings(cli._parser().parse_args(["gen", "--config", str(cfg_path)]))
        assert gen["samples"] == 12 and gen["hard_mode"] is True
        assert gen["out"] == "elsewhere"
        cfg_path.write_text(json.dumps({"lr": 1, "history": 4}))
        train = cli._settings(cli._parser().parse_args(["train", "--config", str(cfg_path)]))
        assert train["lr"] == 1.0 and isinstance(train["lr"], float)
        assert train["history"] == "4"
