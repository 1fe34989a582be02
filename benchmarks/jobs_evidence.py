"""Compare two checkouts on the perfbench workloads; writes a ``BENCH_*.json``.

The two checkouts are any two trees of this repository, typically the
parent commit (``--base``) and a change (``--head``).  Each run is
``perfbench/run.py --trace 0`` in one checkout, in a fresh process.  Runs
of the two checkouts alternate in pairs, and the order within a pair flips
every pair, so slow drift on the host hits both sides alike.  A
``--pairs`` entry ``workload@seed=N`` runs N pairs at that seed instead of
``--seed``.  Besides perfbench's own result, each run reports figures that
perfbench does not print, read from outside the program:

* ``compile_cpu_wall_ratio``: the engine's worker-timed compile seconds
  over the wall spent in engine calls (``compile_seconds /
  compile_wall_seconds`` from each task's ``timing_breakdown()``, summed
  over the run's tasks).  In a checkout that still compiles on a thread
  pool, each item's time includes waiting for the GIL, so there this
  ratio overstates the work done;
* ``compile_cores_used``: CPU seconds spent while ``compile_batch`` ran
  (this process, all threads, plus the CPU of the worker processes, read
  from ``getrusage(RUSAGE_CHILDREN)`` as each task closes and joins them)
  over that wall;
* ``workers_peak_rss_mb``: ``ru_maxrss`` of ``RUSAGE_CHILDREN`` after each
  task closes.  Linux counts a forked child's peak from the resident set
  it inherits, so any child (the run recorder's ``git rev-parse`` too)
  shows about its parent's size;
* ``worker_hwm_mb`` and ``worker_private_mb``: each live worker's
  ``VmHWM`` (shared copy-on-write pages included) and its private memory
  (``Private_Clean + Private_Dirty``), read just before the task closes,
  maximum over workers.  perfbench's ``peak_rss_mb`` counts its own
  process only;
* ``gc_s`` and ``gc_gen2_s``: time the cyclic garbage collector ran in the
  perfbench process (all generations, and full collections only);
* ``graph_*``: the compile-graph counters each task reports
  (``nodes`` and ``edges`` live in the perfbench process, ``passes_run``,
  ``passes_unchanged`` — runs that led back to the state they started
  from, nearly all settled by the pass reporting no change and never
  fingerprinted — and ``passes_skipped``), summed over the run's tasks.
  The pass counters include the task's process workers, which send
  theirs back with their journals; a checkout from before that counts
  the perfbench process only.  ``graph_rederived`` counts modules a
  state re-derived from its parent's after handing its own on.
  ``snapshot_*``: the prefix-snapshot counters of checkouts that predate
  the graph.  A checkout that reports neither shows 0;
* ``walked_share`` and ``dispatched_share``: the share of the run's
  compiles that the walk answered in the tuning process, and that were
  sent to a process worker (from ``compile_walked``,
  ``compile_dispatched`` and ``n_compiles``; 0 in a checkout from
  before the walk).  A checkout whose engine forks workers only to
  enforce a compile timeout, as this one does, dispatches nothing on
  the perfbench workloads, which set none: there ``dispatched_share``
  and the worker figures read 0 at any ``--jobs``.

Each ``--traced`` run per side is ``--trace 1``; it keeps the per-layer
metrics in ``TRACED`` (compile, measurement and write-path layers) and
``compiler.pass_total.s``, the sum of every ``compiler.pass.*.s``.

``--sweep`` adds a ``jobs_sweep`` record per side: in one process of
that checkout, CITROEN tunes of ``525.x264_r`` at seeds 1-3 (budget 40,
sequence length 16, platform ``arm-a57``) summed per jobs setting,
``--jobs 1`` and ``--jobs 2`` alternating over three repeats, plus the
seed-1 tune's compile-graph counters at each setting.  The sweep sets no
compile timeout, so in this checkout both settings compile in-line and
it compares a checkout that splits batches against that.

Run from the root of the checkout that holds this script::

    python3 benchmarks/jobs_evidence.py --base ../parent-checkout --head . \\
        --pairs citroen_x264_j2=10,citroen_x264_j2@7=3,citroen_gsm=3,random_mcf=3 \\
        --sweep --out BENCH_pool.json
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import runpy
import statistics
import subprocess
import sys
import time
from typing import Dict, List

END_TO_END = ("tune_s", "setup_s", "speedup_vs_o3", "peak_rss_mb")
#: per-layer metrics kept from traced runs
TRACED = ("bench.traced_tune_s", "eval_engine.compile_batch.s",
          "eval_engine.cores_used", "compiler.run_opt.calls", "compiler.run_opt.s",
          "compiler.clone.s", "compiler.pass_total.s", "eval_engine.compiles",
          "task.measure.s", "profiler.measure.s", "artifacts.harvest.s",
          "bytecode.compile_module.s", "fuse.fuse_module.s", "vm.run.calls",
          "vm.run.s", "vm.steps", "machine.estimate_cycles.s",
          "artifacts.ir_fingerprint.s", "cost_model.fit.s", "generator.ask.s",
          "wal.append.s", "recorder.write_event.s")
#: compile-cache counters summed from each task's ``timing_breakdown()``:
#: the compile graph's, and the prefix snapshots' it replaced
GRAPH_KEYS = ("graph_nodes", "graph_edges", "graph_passes_run",
              "graph_passes_unchanged", "graph_passes_skipped", "graph_rederived")
SNAPSHOT_KEYS = ("snapshot_lookups", "snapshot_hits", "snapshot_captures",
                 "snapshot_skipped_passes")
CACHE_KEYS = GRAPH_KEYS + SNAPSHOT_KEYS
#: compile counts summed from each task's ``timing_breakdown()``: all of
#: them, those the walk answered in the tuning process, and those sent to
#: a process worker (a checkout from before the walk reports 0 for both)
COMPILE_KEYS = ("n_compiles", "compile_walked", "compile_dispatched")
#: fields of the ``perfbench`` record kept with each run
PERFBENCH_KEPT = ("tunes", "calibration_s", "host_scale", "raw_wall_s", "digests",
                  "reproducible", "traced_identical", "git_rev", "source_sha256")
SINGLE_THREAD_ENV = {
    name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
}


def _worker_memory_mb(pid: int) -> Dict[str, float]:
    """A live worker's peak RSS (``VmHWM``, shared pages included) and its
    private memory (``Private_Clean + Private_Dirty``), in MB."""
    fields: Dict[str, float] = {}
    for name in ("status", "smaps_rollup"):
        try:
            with open(f"/proc/{pid}/{name}") as fh:
                for line in fh:
                    key, _, rest = line.partition(":")
                    if rest.strip().endswith("kB"):
                        fields[key] = float(rest.split()[0]) / 1024.0
        except OSError:
            pass
    return {
        "hwm": fields.get("VmHWM", 0.0),
        "private": fields.get("Private_Clean", 0.0) + fields.get("Private_Dirty", 0.0),
    }


def _worker_pids(engine) -> List[int]:
    """The pids of a compile engine's live process workers: its pipe
    workers, or a checkout's older process pool."""
    workers = getattr(engine, "_workers", None)
    if workers is not None:
        return [w.process.pid for w in workers]
    return list(getattr(getattr(engine, "_pool", None), "_processes", None) or {})


def probe(workload: str, seed: int, seconds: float, trace: int) -> int:
    """Run perfbench in the current directory, watching the compile engine
    and every task close."""
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from repro.core.eval_engine import CompileEngine
    from repro.core.task import AutotuningTask

    seen = {"tasks": 0, "compile_seconds": 0.0, "compile_wall_seconds": 0.0,
            "batch_wall": 0.0, "batch_cpu": 0.0, "worker_cpu": 0.0,
            "executors": set(), "workers_peak_rss_mb": 0.0,
            "worker_hwm_mb": 0.0, "worker_private_mb": 0.0,
            "gc_s": 0.0, "gc_gen2_s": 0.0,
            **dict.fromkeys(CACHE_KEYS + COMPILE_KEYS, 0)}
    compile_batch, close = CompileEngine.compile_batch, AutotuningTask.close
    gc_start = [0.0]

    def on_gc(phase, info):
        if phase == "start":
            gc_start[0] = time.perf_counter()
            return
        dt = time.perf_counter() - gc_start[0]
        seen["gc_s"] += dt
        if info["generation"] == 2:
            seen["gc_gen2_s"] += dt

    gc.callbacks.append(on_gc)

    def watched_batch(engine, *args, **kwargs):
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            return compile_batch(engine, *args, **kwargs)
        finally:
            seen["batch_wall"] += time.perf_counter() - t0
            seen["batch_cpu"] += time.process_time() - c0

    def watched_close(task):
        timing = task.timing_breakdown()
        seen["tasks"] += 1
        seen["compile_seconds"] += timing["compile_seconds"]
        seen["compile_wall_seconds"] += timing["compile_wall_seconds"]
        for key in CACHE_KEYS + COMPILE_KEYS:
            seen[key] += timing.get(key, 0)
        # a checkout that predates the "executor" key ran jobs>1 on threads
        seen["executors"].add(
            timing.get("executor") or ("serial" if task.jobs == 1 else "thread")
        )
        for pid in _worker_pids(task.engine):
            mem = _worker_memory_mb(pid)
            seen["worker_hwm_mb"] = max(seen["worker_hwm_mb"], mem["hwm"])
            seen["worker_private_mb"] = max(seen["worker_private_mb"], mem["private"])
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        close(task)  # joins the workers, so their usage is now counted
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        seen["worker_cpu"] += (after.ru_utime + after.ru_stime
                               - before.ru_utime - before.ru_stime)
        seen["workers_peak_rss_mb"] = max(
            seen["workers_peak_rss_mb"], after.ru_maxrss / 1024.0
        )

    CompileEngine.compile_batch = watched_batch
    AutotuningTask.close = watched_close
    sys.argv = ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace)]
    try:
        runpy.run_path("perfbench/run.py", run_name="__main__")
        code = 0
    except SystemExit as exc:
        code = int(exc.code or 0)
    wall = seen["compile_wall_seconds"]
    compiles = seen["n_compiles"]
    print(json.dumps({"probe": {
        "tasks": seen["tasks"],
        "executors": sorted(seen["executors"]),
        "compile_seconds": seen["compile_seconds"],
        "compile_wall_seconds": wall,
        "compile_cpu_wall_ratio": seen["compile_seconds"] / wall if wall else 0.0,
        "compile_cores_used": (seen["batch_cpu"] + seen["worker_cpu"])
        / seen["batch_wall"] if seen["batch_wall"] else 0.0,
        "workers_peak_rss_mb": seen["workers_peak_rss_mb"],
        "worker_hwm_mb": seen["worker_hwm_mb"],
        "worker_private_mb": seen["worker_private_mb"],
        "gc_s": seen["gc_s"],
        "gc_gen2_s": seen["gc_gen2_s"],
        "walked_share": seen["compile_walked"] / compiles if compiles else 0.0,
        "dispatched_share": seen["compile_dispatched"] / compiles if compiles else 0.0,
        **{key: seen[key] for key in CACHE_KEYS + COMPILE_KEYS},
    }}), flush=True)
    return code


def sweep_probe() -> int:
    """Run in a checkout: summed x264 tunes at ``--jobs 1`` and ``2``."""
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from repro import AutotuningTask, Citroen, spec_program

    out: Dict[str, object] = {"jobs1_s": [], "jobs2_s": [], "seed1_graph": {}}
    for repeat in range(3):
        for jobs in ((1, 2) if repeat % 2 == 0 else (2, 1)):
            total = 0.0
            for seed in (1, 2, 3):
                task = AutotuningTask(spec_program("525.x264_r"), platform="arm-a57",
                                      seed=seed, seq_length=16, jobs=jobs)
                try:
                    start = time.perf_counter()
                    Citroen(task, seed=seed).tune(40)
                    total += time.perf_counter() - start
                    if seed == 1:
                        timing = task.timing_breakdown()
                        out["seed1_graph"][f"jobs{jobs}"] = {
                            key: timing.get(key, 0) for key in GRAPH_KEYS}
                finally:
                    task.close()
            out[f"jobs{jobs}_s"].append(total)
    print(json.dumps({"jobs_sweep": out}), flush=True)
    return 0


def run_sweep(checkout: str) -> Dict:
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--sweep-probe"],
        cwd=checkout, env=dict(os.environ, **SINGLE_THREAD_ENV),
        capture_output=True, text=True, check=True,
    )
    sweep = json.loads(out.stdout.strip().splitlines()[-1])["jobs_sweep"]
    for jobs in (1, 2):
        sweep[f"jobs{jobs}"] = spread(sweep[f"jobs{jobs}_s"])
    return sweep


def run_once(checkout: str, workload: str, seed: int, seconds: float,
             trace: int = 0) -> Dict:
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--probe", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, env=dict(os.environ, **SINGLE_THREAD_ENV),
        capture_output=True, text=True, check=True,
    )
    records = [json.loads(line) for line in out.stdout.splitlines()
               if line.startswith("{")]
    run = {"metrics": {}, "perfbench": {}, "probe": {}}
    for rec in records:
        if "perfbench" in rec:
            run["perfbench"] = {k: v for k, v in rec["perfbench"].items()
                                if k in PERFBENCH_KEPT}
        elif "probe" in rec:
            run["probe"] = rec["probe"]
        elif "metrics" in rec:
            run["metrics"] = {k: v["value"] for k, v in rec["metrics"].items()}
            if trace:
                run["metrics"]["compiler.pass_total.s"] = sum(
                    v for k, v in run["metrics"].items()
                    if k.startswith("compiler.pass.")
                )
            run["correct"] = rec["correct"]
            run["failed"] = rec["failed"]
            run["attempted"] = rec["attempted"]
    return run


def spread(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and range."""
    if len(values) < 2:
        values = values * 2  # one run: no spread
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / med if med else 0.0,
            "min": min(values), "max": max(values)}


def summarize(runs: List[Dict]) -> Dict:
    ok = [r for r in runs if r["metrics"]]
    out = {name: spread([r["metrics"][name] for r in ok]) for name in END_TO_END}
    out["failed"] = sum(r.get("failed", 1) for r in runs)
    out["correct"] = all(r.get("correct", False) for r in runs)
    out["raw_tune_s"] = spread([r["perfbench"]["raw_wall_s"]["tune_s"] for r in ok])
    out["digests"] = sorted({json.dumps(r["perfbench"]["digests"], sort_keys=True)
                             for r in ok})
    out["executors"] = sorted({e for r in ok for e in r["probe"]["executors"]})
    out["compile_cpu_wall_ratio"] = spread(
        [r["probe"]["compile_cpu_wall_ratio"] for r in ok])
    for name in ("compile_seconds", "compile_wall_seconds",
                 "compile_cores_used", "workers_peak_rss_mb", "worker_hwm_mb",
                 "worker_private_mb", "gc_s", "gc_gen2_s", "walked_share",
                 "dispatched_share") + CACHE_KEYS + COMPILE_KEYS:
        out[name] = spread([r["probe"][name] for r in ok])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--probe", help=argparse.SUPPRESS)
    parser.add_argument("--base", help="checkout measured as the baseline")
    parser.add_argument("--head", help="checkout measured as the change")
    parser.add_argument("--pairs",
                        default="citroen_x264_j2=10,citroen_gsm=3,random_mcf=3",
                        help="workload[@seed]=pairs,...")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--traced", type=int, default=1,
                        help="traced (--trace 1) runs per side and workload")
    parser.add_argument("--out", help="payload to write (required to compare)")
    parser.add_argument("--sweep", action="store_true",
                        help="also time x264 tunes at --jobs 1 and 2 in each checkout")
    parser.add_argument("--sweep-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        return probe(args.probe, args.seed, args.seconds, args.trace)
    if args.sweep_probe:
        return sweep_probe()
    if not (args.base and args.head and args.out):
        parser.error("--base, --head and --out are required")

    sides = {"base": os.path.abspath(args.base), "head": os.path.abspath(args.head)}
    payload: Dict[str, object] = {"workloads": {}}
    for spec in args.pairs.split(","):
        entry, n_pairs = spec.split("=")
        workload, _, seed = entry.partition("@")
        seed = int(seed) if seed else args.seed
        runs: Dict[str, List[Dict]] = {"base": [], "head": []}
        for i in range(int(n_pairs)):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                t0 = time.perf_counter()
                run = run_once(sides[side], workload, seed, args.seconds)
                runs[side].append(run)
                print(f"{entry} pair {i} {side}: tune_s "
                      f"{run['metrics'].get('tune_s', float('nan')):.3f} "
                      f"({time.perf_counter() - t0:.0f} s)", flush=True)
        pairs = list(zip(runs["base"], runs["head"]))
        base, head = summarize(runs["base"]), summarize(runs["head"])
        payload["workloads"][entry] = {
            "workload": workload,
            "seed": seed,
            "base": base,
            "head": head,
            "tune_s_change": head["tune_s"]["median"] / base["tune_s"]["median"] - 1.0,
            "head_faster_pairs": sum(
                h["metrics"]["tune_s"] < b["metrics"]["tune_s"] for b, h in pairs
            ),
            "pairs": len(pairs),
            "digests_identical": base["digests"] == head["digests"],
            "speedup_identical": base["speedup_vs_o3"]["median"]
            == head["speedup_vs_o3"]["median"],
            "runs": runs,
        }
        traced: Dict[str, List[Dict]] = {"base": [], "head": []}
        for i in range(args.traced):
            for side in (("base", "head") if i % 2 == 0 else ("head", "base")):
                run = run_once(sides[side], workload, seed, args.seconds, trace=1)
                traced[side].append({
                    "failed": run.get("failed"),
                    "traced_identical": run["perfbench"].get("traced_identical"),
                    "metrics": {k: run["metrics"].get(k) for k in TRACED},
                    "probe": run["probe"],
                })
        payload["workloads"][entry]["traced"] = traced
    if args.sweep:
        payload["jobs_sweep"] = {side: run_sweep(path) for side, path in sides.items()}
    payload["provenance"] = {
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {args.seconds:g} --trace 0",
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
