"""Seeded kill-and-resume chaos harness (not pytest-collected).

Runs one uninterrupted control tune, then — for each of ``--kills``
randomly drawn kill points — launches the same tune with
``--kill-after-iter N`` (the child SIGKILLs itself the instant the Nth
measurement's WAL record is durable), resumes the corpse with
``repro tune --resume``, and asserts the final ``result.json`` is
bit-identical to the control's (wall-clock ``timing`` excluded).  After
each resume, ``load_run`` (behind ``repro analyze``) and ``RunWatcher``
(behind ``repro watch``) must agree with the WAL on progress and report
epoch 2, and the progress must equal the budget.
``--compile-timeout S`` runs every tune with that compile timeout, and
``--jobs N`` with N compile workers to enforce it (the resumed run takes
both from the killed run's manifest), so the kill also orphans forked
compile workers; without a timeout every tune compiles in-line at any
``--jobs``.  ``--tuner`` picks the tuner (any of ``repro tune --tuner``;
the resumed run takes it from the manifest).

Exit 0 only if every kill point recovers bit-identically and its
readers agree.  CI runs this
as the blocking ``chaos-resume`` job, with CITROEN at ``--jobs 1`` and at
``--jobs 2 --compile-timeout 5`` and with the BOCA baseline, whose
control history includes a verdict-cache hit; locally::

    PYTHONPATH=src python tests/chaos_resume.py --jobs 2 --compile-timeout 5 \
        --out /tmp/chaos-runs
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC)  # the run readers are checked in this process


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _tune(args: argparse.Namespace, run_dir: Path, *extra: str) -> int:
    cmd = [
        sys.executable, "-m", "repro", "tune", args.program,
        "--tuner", args.tuner,
        "--budget", str(args.budget),
        "--seed", str(args.seed),
        "--seq-length", str(args.seq_length),
        "--jobs", str(args.jobs),
        "--trace-out", str(run_dir),
        "--log-level", "warning",
        *extra,
    ]
    if args.compile_timeout is not None:
        cmd += ["--compile-timeout", str(args.compile_timeout)]
    return subprocess.run(cmd, env=_env()).returncode


def _resume(run_dir: Path) -> int:
    cmd = [
        sys.executable, "-m", "repro", "tune",
        "--resume", str(run_dir),
        "--log-level", "warning",
    ]
    return subprocess.run(cmd, env=_env()).returncode


def _result_sans_timing(run_dir: Path) -> dict:
    data = json.loads((run_dir / "result.json").read_text())
    data.pop("timing", None)
    return data


def _readers_disagree(run_dir: Path, budget: int) -> str:
    """Why the run directory's readers disagree on a resumed, finished
    run (empty when they agree)."""
    sys.path.insert(0, SRC)
    from repro.core.wal import read_wal
    from repro.obs.analysis import load_run
    from repro.obs.stream import RunWatcher

    wal = read_wal(run_dir / "wal.jsonl")
    progress = max(
        sum(1 for r in wal if r.get("type") == kind) for kind in ("measure", "slot")
    )
    run, state = load_run(run_dir), RunWatcher(run_dir).refresh()
    seen = {
        "wal": (progress, 2),
        "load_run": (run.wal_measurements, run.epoch),
        "watch": (state.progress, state.epoch),
    }
    if len(set(seen.values())) > 1 or progress != budget:
        return f"(progress, epoch) {seen}, budget {budget}"
    return ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--program", default="security_sha")
    parser.add_argument("--tuner", default="citroen")
    parser.add_argument("--budget", type=int, default=24)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seq-length", type=int, default=10)
    parser.add_argument("--jobs", type=int, default=1,
                        help="compile workers of every tune (resume keeps them)")
    parser.add_argument("--compile-timeout", type=float, default=None,
                        help="compile timeout of every tune, enforced on "
                        "--jobs forked workers (resume keeps it)")
    parser.add_argument("--kills", type=int, default=3,
                        help="number of random kill points to test")
    parser.add_argument("--chaos-seed", type=int, default=7,
                        help="seeds the kill-point draw (reproducible chaos)")
    parser.add_argument("--out", default="chaos-runs",
                        help="parent directory for all run dirs")
    args = parser.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    control = out / "control"
    print(f"[chaos] control tune: {args.tuner} on {args.program} "
          f"budget={args.budget} seed={args.seed} jobs={args.jobs} "
          f"compile_timeout={args.compile_timeout}")
    rc = _tune(args, control)
    if rc != 0:
        print(f"[chaos] FAIL: control run exited {rc}")
        return 1
    expected = _result_sans_timing(control)

    # kill points strictly inside the budget so there is work both before
    # and after the kill (the seam is the interesting part)
    rng = random.Random(args.chaos_seed)
    points = sorted(rng.sample(range(2, args.budget - 1), k=args.kills))
    print(f"[chaos] kill points: {points}")

    failures = 0
    for k in points:
        run_dir = out / f"kill-{k}"
        rc = _tune(args, run_dir, "--kill-after-iter", str(k))
        if rc != -signal.SIGKILL and rc != 128 + signal.SIGKILL:
            print(f"[chaos] FAIL k={k}: expected SIGKILL death, got rc={rc}")
            failures += 1
            continue
        if (run_dir / "result.json").exists():
            print(f"[chaos] FAIL k={k}: killed run wrote a result.json")
            failures += 1
            continue
        rc = _resume(run_dir)
        if rc != 0:
            print(f"[chaos] FAIL k={k}: resume exited {rc}")
            failures += 1
            continue
        if _result_sans_timing(run_dir) != expected:
            print(f"[chaos] FAIL k={k}: resumed history diverged from control")
            failures += 1
            continue
        why = _readers_disagree(run_dir, args.budget)
        if why:
            print(f"[chaos] FAIL k={k}: run readers disagree: {why}")
            failures += 1
            continue
        print(f"[chaos] ok k={k}: resumed bit-identical to control, "
              "readers agree")

    if failures:
        print(f"[chaos] {failures}/{len(points)} kill points FAILED")
        return 1
    print(f"[chaos] all {len(points)} kill points recovered bit-identically")
    return 0


if __name__ == "__main__":
    sys.exit(main())
