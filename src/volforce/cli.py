"""Command-line surface: gen | train | eval | sweep.

Flag precedence: command-line flags override values from a JSON --config
file, which override built-in defaults.  Every output is written
atomically (temp file + rename) and every run is reproducible from its
flags and seed; sidecar files may carry wall-clock timestamps but data
files never do.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import sys

import numpy as np

from volforce import architectures as arch_mod
from volforce import metrics as metrics_mod
from volforce import phantom, reps, svg, training
from volforce.phantom import SimConfig, TrajectoryConfig, atomic_write


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="volforce",
        description="Force estimation from simulated volume streams: generate "
                    "datasets, train and evaluate models, sweep history/horizon grids.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON file with defaults for these flags")
        sp.add_argument("--out", help="output directory (default .)")
        sp.add_argument("--seed", type=int, help="master seed (default 0)")

    gen = sub.add_parser("gen", help="generate a synthetic dataset file")
    common(gen)
    gen.add_argument("--kind", choices=("sinusoid", "spline"))
    gen.add_argument("--experiments", type=int)
    gen.add_argument("--samples", type=int, help="samples per experiment")
    gen.add_argument("--height", type=int)
    gen.add_argument("--width", type=int)
    gen.add_argument("--d-raw", type=int, dest="d_raw")
    gen.add_argument("--fractions", help="train,val,test split fractions")
    gen.add_argument("--hard-mode", action="store_true", default=None,
                     help="per-experiment stiffness variation")
    gen.add_argument("--no-noise", action="store_true", default=None,
                     help="disable speckle")
    gen.add_argument("--name", help="output file name")

    def model_flags(sp):
        sp.add_argument("--arch", help="architecture name, e.g. convgru-resnet3d")
        sp.add_argument("--rep", help="data representation, e.g. 4d-st")
        sp.add_argument("--history", help="temporal history p")
        sp.add_argument("--horizon", help="prediction horizon f")
        sp.add_argument("--d-out", type=int, dest="d_out",
                        help="volume depth after resampling (default 16)")
        sp.add_argument("--base-channels", type=int, dest="base_channels")
        sp.add_argument("--blocks", type=int, dest="n_blocks")
        sp.add_argument("--output-stride", type=int, dest="spatial_output_stride")
        sp.add_argument("--epochs", type=int)
        sp.add_argument("--batch-size", type=int, dest="batch_size")
        sp.add_argument("--lr", type=float)
        sp.add_argument("--ema-decay", type=float, dest="ema_decay")

    tr = sub.add_parser("train", help="train one model on a dataset file")
    common(tr)
    tr.add_argument("--dataset", help="dataset file from gen")
    model_flags(tr)
    tr.add_argument("--checkpoint-every", type=int, dest="checkpoint_every",
                    help="also write the checkpoint every k epochs")

    ev = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    common(ev)
    ev.add_argument("--dataset", help="dataset file from gen")
    ev.add_argument("--checkpoint", help="checkpoint file from train")
    ev.add_argument("--compare", help=".errors file of another run for a paired "
                                      "Wilcoxon test")
    ev.add_argument("--plot", action="store_true", default=None,
                    help="emit the regression/residual SVG")

    sw = sub.add_parser("sweep", help="train/eval one model per (history, horizon) cell")
    common(sw)
    sw.add_argument("--dataset", help="dataset file from gen")
    model_flags(sw)
    sw.add_argument("--jobs", type=int, help="parallel workers (default 1)")
    return parser


_DEFAULTS = {
    "out": ".", "seed": 0, "jobs": 1, "kind": "sinusoid", "experiments": 12,
    "samples": 500, "height": 16, "width": 16, "d_raw": 128, "fractions": "0.75,0.08,0.17",
    "hard_mode": False, "no_noise": False, "name": None,
    "arch": "convgru-resnet3d", "rep": "4d-st", "history": "6", "horizon": "0",
    "d_out": 16, "base_channels": 16, "n_blocks": 5, "spatial_output_stride": 16,
    "epochs": 100, "batch_size": None, "lr": None, "ema_decay": 0.999,
    "checkpoint_every": 0,
    "compare": None, "plot": False, "dataset": None, "checkpoint": None,
}


_SWEEP_DEFAULTS = {"history": "2,4,6,8", "horizon": "0,1,2,3,4"}


def _flags(command: str) -> dict[str, argparse.Action]:
    """dest -> argparse action, for each flag of ``command``."""
    commands = next(a for a in _parser()._actions if a.dest == "command").choices
    return {action.dest: action for action in commands[command]._actions}


def _config_value(action: argparse.Action, value):
    """``value`` from a config file as its flag parses it; ValueError where
    the flag would reject it."""
    bad = ValueError(f"invalid config value for {action.option_strings[-1]}: {value!r}")
    if action.nargs == 0:  # a switch: true or false
        if not isinstance(value, bool):
            raise bad
        return value
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise bad
    try:
        parsed = action.type(str(value)) if action.type else str(value)
    except ValueError:
        raise bad from None
    if action.choices is not None and parsed not in action.choices:
        raise bad
    return parsed


def _settings(args: argparse.Namespace) -> dict:
    """defaults <- config file <- explicit flags.

    A config file holds one JSON object whose keys are flags of the running
    command (by destination, e.g. ``d_raw``) and whose values each pass
    that flag's own parsing.
    """
    merged = dict(_DEFAULTS)
    if args.command == "sweep":
        merged.update(_SWEEP_DEFAULTS)
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError(f"config file {config_path} must hold a JSON object, "
                             f"got {type(loaded).__name__}")
        unknown = set(loaded) - (set(vars(args)) - {"command", "config"})
        if unknown:
            raise ValueError(f"unknown keys in config file for {args.command}: "
                             f"{sorted(unknown)}")
        flags = _flags(args.command)
        merged.update((key, _config_value(flags[key], value)) for key, value in loaded.items())
    for key, value in vars(args).items():
        if key in ("command", "config"):
            continue
        if value is not None:
            merged[key] = value
    return merged


def _fractions(text: str) -> tuple[float, float, float]:
    parts = tuple(float(v) for v in str(text).split(","))
    if len(parts) != 3:
        raise ValueError(f"expected three split fractions, got {text!r}")
    return parts


def _int_list(text) -> list[int]:
    return [int(v) for v in str(text).split(",")]


def _one_int(settings, key: str) -> int:
    values = _int_list(settings[key])
    if len(values) != 1:
        raise ValueError(f"train takes one --{key} value, got {settings[key]!r}; "
                         "sweep runs a grid")
    return values[0]


def _run_id(settings, p: int, f: int) -> str:
    return f"{settings['arch']}_{settings['rep']}_p{p}_f{f}_seed{settings['seed']}"


def cmd_gen(settings) -> int:
    os.makedirs(settings["out"], exist_ok=True)
    cfg = SimConfig(
        trajectory=TrajectoryConfig(kind=settings["kind"], n_samples=settings["samples"],
                                    seed=settings["seed"]),
        h=settings["height"], w=settings["width"], d_raw=settings["d_raw"],
        noise=not settings["no_noise"], hard_mode=settings["hard_mode"])
    name = settings["name"] or (
        f"{settings['kind']}_e{settings['experiments']}_n{settings['samples']}"
        f"_seed{settings['seed']}.oct4d")
    path = os.path.join(settings["out"], name)
    sizes = phantom.write_dataset_streamed(path, settings["experiments"], cfg,
                                           _fractions(settings["fractions"]))
    counts = {s: 0 for s in phantom.SPLITS}
    for split, _ in sizes:
        counts[split] += 1
    total = sum(n for _, n in sizes)
    print(f"wrote {path}: {settings['experiments']} experiments, {total} samples, "
          f"splits {counts['train']}/{counts['val']}/{counts['test']}")
    return 0


def _load_splits(settings, p: int, f: int):
    if not settings["dataset"]:
        raise ValueError("--dataset is required")
    dataset = phantom.load_dataset(settings["dataset"])
    return reps.windowed_splits(dataset, settings["rep"], p, f, settings["d_out"])


def _train_one(settings, p: int, f: int, splits=None, quiet=False):
    if splits is None:
        splits = _load_splits(settings, p, f)
    if "train" not in splits:
        raise ValueError("dataset has no train split")
    config = arch_mod.config_from_arch(
        settings["arch"], settings["rep"], history=p, horizon=f,
        base_channels=settings["base_channels"], n_blocks=settings["n_blocks"],
        spatial_output_stride=settings["spatial_output_stride"], d_out=settings["d_out"])
    bs_default, lr_default = training.defaults_for(settings["rep"])
    cfg = training.TrainConfig(
        epochs=settings["epochs"],
        batch_size=settings["batch_size"] if settings["batch_size"] is not None else bs_default,
        learning_rate=settings["lr"] if settings["lr"] is not None else lr_default,
        ema_decay=settings["ema_decay"],
        seed=settings["seed"])
    net = arch_mod.build(config, seed=cfg.seed)
    run_id = _run_id(settings, p, f)
    out_dir = settings["out"]
    os.makedirs(out_dir, exist_ok=True)
    ckpt_path = os.path.join(out_dir, run_id + ".ckpt")

    def on_epoch(epoch, result):
        if not quiet:
            row = result.history[-1]
            print(f"epoch {epoch}: train_mse {row['train_mse']:.6g} "
                  f"val_mse {row['val_mse']:.6g}", flush=True)
        every = settings["checkpoint_every"]
        if every and epoch % every == 0:
            arch_mod.save_checkpoint(ckpt_path, net, result.ema.arrays())

    result = training.train(net, splits["train"], cfg, splits.get("val"),
                            on_epoch=on_epoch)
    arch_mod.save_checkpoint(ckpt_path, net, result.ema.arrays())
    loss_lines = ["epoch,train_mse,val_mse"]
    loss_lines += [f"{e},{tr:.8g},{va:.8g}" for e, tr, va in result.loss_rows()]
    loss_path = os.path.join(out_dir, run_id + "_loss.csv")
    atomic_write(loss_path, ("\n".join(loss_lines) + "\n").encode())
    return net, result, splits, run_id, ckpt_path


def cmd_train(settings) -> int:
    every = settings["checkpoint_every"]
    if every < 0:
        raise ValueError(f"--checkpoint-every must be at least 0, got {every}")
    p, f = _one_int(settings, "history"), _one_int(settings, "horizon")
    _, _, _, run_id, ckpt = _train_one(settings, p, f)
    print(f"wrote {ckpt} and {run_id}_loss.csv")
    return 0


def _evaluate(net, ema, splits, settings, run_id, arch_name, p, f):
    if "test" not in splits or len(splits["test"]) == 0:
        raise ValueError("dataset has no test split")
    pred, target = training.predict(net, splits["test"], ema)
    report = metrics_mod.evaluate(pred, target, run_id=run_id, arch=arch_name,
                                  representation=settings["rep"], p=p, f=f)
    if settings.get("compare"):
        with open(settings["compare"], "r", encoding="utf-8") as fh:
            other = np.asarray([float(line) for line in fh if line.strip()])
        errors = np.abs(pred - target)
        _, pval, _ = metrics_mod.wilcoxon_signed_rank(errors, other)
        report.wilcoxon_p = pval
    return report, pred, target


def _append_report(path, report) -> None:
    """Append one CSV row, after the header if the file is empty, with one
    write on an O_APPEND descriptor.  An exclusive lock makes the header
    check and the write one step for concurrent evaluations."""
    header = metrics_mod.MetricsReport.csv_header(report.wilcoxon_p is not None)
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        text = ("" if os.fstat(fd).st_size else header + "\n") + report.csv_row() + "\n"
        data = text.encode()
        if os.write(fd, data) != len(data):
            raise OSError(f"short write appending to {path}")
    finally:
        os.close(fd)  # also releases the lock


def cmd_eval(settings) -> int:
    if not settings["checkpoint"]:
        raise ValueError("--checkpoint is required")
    net, ema = arch_mod.load_checkpoint(settings["checkpoint"])
    config = net.config
    settings = dict(settings, rep=config.representation, d_out=config.d_out)
    splits = _load_splits(settings, config.history, config.horizon)
    run_id = os.path.splitext(os.path.basename(settings["checkpoint"]))[0]
    report, pred, target = _evaluate(net, ema, splits, settings, run_id,
                                     arch_mod.arch_name_of(config),
                                     config.history, config.horizon)
    out_dir = settings["out"]
    os.makedirs(out_dir, exist_ok=True)
    _append_report(os.path.join(out_dir, "metrics.csv"), report)
    errors = np.abs(pred - target)
    atomic_write(os.path.join(out_dir, run_id + ".errors"),
                 ("\n".join(repr(float(e)) for e in errors) + "\n").encode())
    if settings["plot"]:
        slope, intercept, r2 = metrics_mod.linreg_r2(pred, target)
        atomic_write(os.path.join(out_dir, run_id + "_regression.svg"),
                     svg.regression_figure(pred, target, slope, intercept, r2).encode())
    print(f"{run_id}: mae {report.mae:.3f} mN, rmae {report.rmae:.4f}, "
          f"pcc {report.pcc:.4f}, n {report.n}"
          + (f", wilcoxon_p {report.wilcoxon_p:.4g}" if report.wilcoxon_p is not None
             else ""))
    return 0


def _sweep_cell(settings, p: int, f: int):
    cell = dict(settings, seed=int(np.random.SeedSequence((settings["seed"], p, f))
                                   .generate_state(1)[0] % (2 ** 31)))
    net, result, splits, run_id, _ = _train_one(cell, p, f, quiet=True)
    report, _, _ = _evaluate(net, result.ema.arrays(), splits, cell, run_id,
                             settings["arch"], p, f)
    return report


def _cell_outcome(run, *args):
    """A sweep cell's report, or the error (of a kind ``main`` reports) that ended it."""
    try:
        return run(*args)
    except (ValueError, OSError, FloatingPointError, KeyError) as exc:
        return exc


def cmd_sweep(settings) -> int:
    ps = _int_list(settings["history"])
    fs = _int_list(settings["horizon"])
    cells = [(p, f) for p in ps for f in fs]
    jobs = settings["jobs"]
    if jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {jobs}")
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_sweep_cell, settings, p, f) for p, f in cells]
            outcomes = [_cell_outcome(fut.result) for fut in futures]
    else:
        outcomes = [_cell_outcome(_sweep_cell, settings, p, f) for p, f in cells]
    reports = [r for r in outcomes if not isinstance(r, Exception)]
    out_dir = settings["out"]
    os.makedirs(out_dir, exist_ok=True)
    lines = [metrics_mod.MetricsReport.csv_header()]
    lines += [r.csv_row() for r in reports]
    atomic_write(os.path.join(out_dir, "sweep.csv"), ("\n".join(lines) + "\n").encode())
    rows = [{"p": r.p, "f": r.f, "mae": r.mae} for r in reports]
    atomic_write(os.path.join(out_dir, "sweep.svg"), svg.sweep_figure(rows).encode())
    for (p, f), r in zip(cells, outcomes):
        if isinstance(r, Exception):
            print(f"error: p={p} f={f}: {r}", file=sys.stderr)
        else:
            print(f"p={r.p} f={r.f}: mae {r.mae:.3f} mN, pcc {r.pcc:.4f}")
    print(f"wrote {os.path.join(out_dir, 'sweep.csv')} ({len(reports)} runs)")
    return int(len(reports) < len(cells))


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        settings = _settings(args)
        handler = {"gen": cmd_gen, "train": cmd_train,
                   "eval": cmd_eval, "sweep": cmd_sweep}[args.command]
        return handler(settings)
    except (ValueError, OSError, FloatingPointError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
