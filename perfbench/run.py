"""Layered tune benchmark: one seeded tuning workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload citroen_gsm --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics (tune wall, set-up time,
speedup over -O3, peak memory); ``--trace 1`` prints the per-layer split
measured by wrapping each layer from outside the program.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records where the numbers
came from (host, versions, revision, a calibration loop) and diagnostics
that are not metrics.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

# numpy must not start its own BLAS/OpenMP threads: the workloads' own
# thread count is part of what they measure.  Set before anything imports it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
BENCH = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

END_TO_END_UNITS = {
    "tune_s": "s",
    "setup_s": "s",
    "speedup_vs_o3": "x",
    "peak_rss_mb": "MB",
}


def _source_digest() -> str:
    """SHA-256 over the program's sources, so a payload names its code even
    where there is no git checkout."""
    h = hashlib.sha256()
    for root, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _git_rev() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program sources at {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH)
    import numpy as np

    import bench_tune
    from bench_layers import PER_LAYER

    wl = bench_tune.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"unknown workload {args.workload!r}; have "
              f"{sorted(bench_tune.WORKLOADS)}", file=sys.stderr)
        return 2

    # run directories live in the checkout, one subdirectory per process
    work_dir = os.path.join(WORK_ROOT, str(os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    try:
        if args.trace:
            summary = bench_tune.measure_traced(wl, args.seed, args.seconds, work_dir)
            units = {name: unit for name, unit, _better in PER_LAYER}
        else:
            summary = bench_tune.measure_untraced(wl, args.seed, args.seconds, work_dir)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:  # another run still uses it
            pass

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "program": wl.program,
        "tuner": wl.tuner,
        "jobs": wl.jobs,
        "budget": wl.budget,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_rev": _git_rev(),
        "source_sha256": _source_digest(),
    }
    print(json.dumps({"perfbench": dict(provenance, **summary.diagnostics)}))
    if set(summary.metrics) != set(units):
        print("no metrics: every tune failed", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": summary.correct,
        "attempted": summary.attempted,
        "failed": summary.failed,
        "metrics": {
            name: {"value": summary.metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
