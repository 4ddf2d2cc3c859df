"""Run every workload, untraced and traced, and print all metrics by name.

    python3 volbench/report.py [--seed 1] [--seconds S]

``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``.  Each
workload runs in its own process (``run.py``), so peak RSS is the
workload's own.  The untraced run gives the end-to-end metrics under
their workload-specific names, the traced run the per-layer metrics and
the tracing overhead.  Everything, with a block describing the machine,
is written to ``volbench/out/report.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

import run

LIMITS = ("Timings are wall clock (time.perf_counter) and memory is getrusage peak RSS "
          "of the workload's process; there are no hardware counters and no system-wide "
          "tracing.  BLAS threads are capped at the CPUs available; with 2 CPUs a BLAS "
          "thread-scaling study is not possible and none is made.")


def cgroup_cpu_limit() -> str:
    """The cgroup CPU quota as 'quota/period', 'max' when unlimited, read only."""
    try:
        with open("/sys/fs/cgroup/cpu.max", encoding="ascii") as fh:
            return fh.read().strip().replace(" ", "/")
    except OSError:
        pass
    try:
        with open("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", encoding="ascii") as fh:
            quota = fh.read().strip()
        with open("/sys/fs/cgroup/cpu/cpu.cfs_period_us", encoding="ascii") as fh:
            period = fh.read().strip()
    except OSError:
        return "unknown"
    return "max" if quota == "-1" else f"{quota}/{period}"


def machine() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "cgroup_cpu_limit": cgroup_cpu_limit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "thread_env": {var: os.environ.get(var) for var in run.THREAD_VARS},
        "limits": LIMITS,
    }


def main(argv=None) -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    run.cap_blas_threads()
    report = {"machine": machine(), "seed": args.seed, "seconds": args.seconds,
              "results": {}}
    print("machine " + json.dumps(report["machine"]))
    ok = True
    for workload in run.WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                                  timeout=900, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                print(f"error: {workload} --trace {trace} exited {proc.returncode}",
                      file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            report["results"].setdefault(workload, {})[f"trace{trace}"] = result
            if trace == 0:
                print("\n".join(lines[:-1]))
            for name, metric in result["metrics"].items():
                print(f"{workload}: {'trace' if trace else 'end_to_end'} {name} "
                      f"{metric['value']:.6g} {metric['unit']}")
    run.OUT.mkdir(exist_ok=True)
    path = run.OUT / "report.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"report written to {path.relative_to(run.ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
