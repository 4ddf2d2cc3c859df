"""Tests of the benchmark itself: span accounting, bypass counts, seeding.

Run with ``python3 -m pytest volbench/tests`` from the repository root.
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import tracing
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# share of a traced step that the layer spans inside it must account for
COVERAGE_BOUND = 0.05


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced run per workload: one step (20 requests, one pass)."""
    outcomes = {}

    def get(name):
        if name not in outcomes:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(workloads, "SETUP_REPEATS", 2)
                mp.setattr(workloads, "MIN_PASSES", 1)
                outcomes[name] = workloads.run(
                    name, seed=3, seconds=1e-3, trace=True,
                    workdir=str(tmp_path_factory.mktemp(name)), min_requests=20)
        return outcomes[name]

    return get


@pytest.mark.parametrize("name", ["train-convgru3d", "train-resnet4d"])
def test_layer_times_account_for_traced_step(traced, name):
    outcome = traced(name)
    values = outcome.metrics
    assert values["trace.coverage_pct"] >= 100 * (1 - COVERAGE_BOUND)
    top_level = sum(values[k] for k in (
        "reps.WindowedData.gather.ms", "architectures.Network.forward.ms",
        "tensor.backward.ms", "training.Adam.step.ms", "training.Ema.update.ms"))
    step = values["trace.step_ms.p50"]
    assert abs(top_level - step) <= COVERAGE_BOUND * step
    # the self times of every span in a step partition the spans' union
    stats = tracing._group_stats(outcome.tracer)
    for group, names in stats.items():
        if group.startswith("step-"):
            self_sum = sum(e["self"] for n, e in names.items() if n != "step")
            assert self_sum == pytest.approx(names["step"]["total"] - names["step"]["self"])


def test_bypass_counts(traced):
    convgru = traced("train-convgru3d").metrics
    assert convgru["ops.conv_st.calls"] == 0
    assert convgru["ops.conv_spatial.calls"] == 51
    assert convgru["recurrent.RecurrentBatchNorm.calls"] > 0

    resnet4d = traced("train-resnet4d").metrics
    assert resnet4d["recurrent.RecurrentBatchNorm.calls"] == 0
    assert resnet4d["recurrent.unroll.self_ms"] == 0
    assert resnet4d["ops.conv_st.calls"] == 15
    assert resnet4d["ops.conv_spatial.calls"] == 37

    infer = traced("infer-stream").metrics
    assert infer["ops.conv_st.calls"] == 0
    assert infer["tensor.graph_nodes"] == 1
    assert infer["tensor.backward.ms"] == 0
    assert infer["training.Adam.step.ms"] == 0
    assert infer["recurrent.RecurrentBatchNorm.calls"] > 0
    assert infer["training.predict.s"] > 0


@pytest.mark.parametrize("name", ["train-convgru3d", "train-resnet4d", "infer-stream"])
def test_traced_run_passes_checks_and_reports_every_per_layer_metric(traced, name):
    outcome = traced(name)
    assert outcome.checks and all(outcome.checks.values()), outcome.checks
    assert outcome.failed == 0
    assert outcome.units == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(outcome.metrics) == set(outcome.units)


def test_seed_changes_inputs_not_metric_names(tmp_path):
    arch = workloads.WORKLOADS["train-convgru3d"][1]
    first = [workloads.set_up("train", arch, seed, str(tmp_path)).splits["train"]
             .gather(range(workloads.TRAIN_BATCH)) for seed in (1, 1, 2)]
    assert np.array_equal(first[0][0], first[1][0])
    assert not np.array_equal(first[0][0], first[2][0])
    assert not np.array_equal(first[0][1], first[2][1])

    names = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(workloads, "SETUP_REPEATS", 2)
        for seed in (1, 2):
            outcome = workloads.run("train-convgru3d", seed, 1e-3, False, str(tmp_path))
            assert outcome.failed == 0
            names.append(outcome.units)
    assert names[0] == names[1] == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def test_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "infer-stream",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
