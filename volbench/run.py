"""Run one benchmark workload and print its metrics.

    python3 volbench/run.py --workload train-convgru3d --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` next to this directory, never from an installed copy.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
A traced run also writes its spans to ``volbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("train-convgru3d", "train-resnet4d", "infer-stream")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def cap_blas_threads() -> None:
    """Cap BLAS threads at the CPUs this process may use; call before numpy loads."""
    ncpu = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= ncpu:
            os.environ[var] = str(ncpu)


def import_package():
    """Put the checkout's ``src/`` first on the path and import volforce from it."""
    src = ROOT / "src"
    if not (src / "volforce" / "__init__.py").is_file():
        raise SystemExit(f"error: no volforce sources under {src}")
    sys.path[:0] = [str(src), str(HERE)]
    import volforce

    if Path(volforce.__file__).resolve().parent != src / "volforce":
        raise SystemExit(f"error: volforce imported from {volforce.__file__}, not {src}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    cap_blas_threads()
    import_package()
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        outcome = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                                workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in outcome.lines:
        print(line)
    if outcome.tracer is not None:
        dump = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        outcome.tracer.dump(str(dump), {"workload": args.workload, "seed": args.seed,
                                        "seconds": args.seconds})
        print(f"spans written to {dump.relative_to(ROOT)}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": outcome.units[name]}
                    for name, value in outcome.metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
