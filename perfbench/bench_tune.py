"""The three tuning workloads and the tune runner behind ``run.py``.

Each workload is one seeded phase-ordering search, driven through the
public Python API with the arguments ``repro tune`` would pass (platform
``arm-a57``, sequence length 16 as in ``repro bench``).  Why each workload
was chosen, and the layer shares a traced run measures on it, are in
``README.md`` beside this file.
"""

from __future__ import annotations

import gc
import hashlib
import os
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro import (
    AutotuningTask,
    Citroen,
    RandomSearchTuner,
    cbench_names,
    cbench_program,
    spec_program,
)
from repro.compiler.opt_tool import run_opt
from repro.machine.interp import Interpreter
from repro.obs import RunRecorder

from bench_layers import PER_LAYER, LayerTrace

PLATFORM = "arm-a57"
SEQ_LENGTH = 16

#: median of :func:`calibration_seconds` on the 2-core x86-64 host the
#: README's figures come from; end-to-end times are scaled to this speed
CALIBRATION_REFERENCE_S = 0.0103
#: calibration samples taken before each tune
CALIBRATION_SAMPLES = 8


@dataclass(frozen=True)
class Workload:
    program: str
    tuner: str  # "citroen" or "random"
    jobs: int
    budget: int
    #: tuner seeds per run: the workload seed plus ``panel - 1`` derived
    #: ones.  Search cost differs by seed, so averaging over a fixed panel
    #: keeps one run's figures comparable with the next run's.
    panel: int
    #: record into a run directory with the WAL armed (``--trace-out``)
    record: bool = False


WORKLOADS: Dict[str, Workload] = {
    "citroen_gsm": Workload("telecom_gsm", "citroen", jobs=1, budget=60, panel=6),
    "random_mcf": Workload("505.mcf_r", "random", jobs=1, budget=400, panel=8),
    "citroen_x264_j2": Workload(
        "525.x264_r", "citroen", jobs=2, budget=40, panel=3, record=True
    ),
}


def panel_seeds(seed: int, size: int) -> List[int]:
    """``seed`` itself followed by ``size - 1`` seeds derived from it."""
    derived = np.random.SeedSequence(seed).generate_state(max(size - 1, 1))
    return [int(seed)] + [int(s) for s in derived[: size - 1]]


def _load_program(name: str):
    return cbench_program(name) if name in cbench_names() else spec_program(name)


def history_digest(result) -> str:
    """SHA-256 over the canonical ``(runtime, status)`` history.

    ``float.hex`` keeps every bit of each runtime; Python's ``hash()`` is
    salted per process and so cannot compare runs."""
    h = hashlib.sha256()
    for m in result.measurements:
        h.update(f"{float(m.runtime).hex()}|{m.status};".encode())
    return h.hexdigest()


def oracle_check(program, task, best_config) -> bool:
    """Recompile the best configuration and run it on the tree-walking
    :class:`Interpreter`; its output must equal the -O0 reference.

    Modules the tuner did not tune are linked at -O3, as the tuner
    measured them."""
    linked = []
    for mod in program.modules:
        seq = best_config.get(mod.name)
        if seq is None:
            linked.append(task.o3_module(mod.name))
        else:
            linked.append(run_opt(mod, list(seq), target=task.target).module)
    out = Interpreter(linked, fuel=program.fuel).run(program.entry)
    return out.output_signature() == program.reference_output().output_signature()


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, f))
        for root, _dirs, files in os.walk(path)
        for f in files
    )


@dataclass
class TuneRun:
    """One setup + tune of a workload at one tuner seed."""

    seed: int
    setup_s: float
    tune_s: float
    speedup: float
    digest: str
    correct: bool
    time_to_97_s: Optional[float]
    layers: Dict[str, float] = field(default_factory=dict)


def run_tune(
    wl: Workload,
    seed: int,
    work_root: str,
    trace: Optional[LayerTrace] = None,
    budget: Optional[int] = None,
) -> TuneRun:
    """Set up and tune once; with ``trace``, collect per-layer metrics over
    the window from the first tuner call to ``tune()`` returning."""
    budget = wl.budget if budget is None else budget
    gc.collect()
    run_dir = tempfile.mkdtemp(dir=work_root) if wl.record else None
    recorder = wal = task = None
    try:
        t0 = time.perf_counter()
        program = _load_program(wl.program)
        if run_dir is not None:
            recorder = RunRecorder(
                run_dir,
                manifest={
                    "command": "tune", "program": wl.program, "tuner": wl.tuner,
                    "budget": budget, "seed": seed, "platform": PLATFORM,
                    "seq_length": SEQ_LENGTH, "jobs": wl.jobs,
                },
            )
            wal = recorder.open_wal()
        task = AutotuningTask(
            program,
            platform=PLATFORM,
            seed=seed,
            seq_length=SEQ_LENGTH,
            jobs=wl.jobs,
            tracer=recorder.tracer if recorder is not None else None,
            metrics=recorder.registry if recorder is not None else None,
            wal=wal,
        )
        setup_s = time.perf_counter() - t0

        stamps: List[float] = []
        measure = task.measure

        def stamped_measure(*args, **kwargs):
            out = measure(*args, **kwargs)
            stamps.append(time.perf_counter())
            return out

        task.measure = stamped_measure
        before = _tune_counters(task)
        gc.collect()
        if trace is not None:
            trace.active = True
        start = time.perf_counter()
        if wl.tuner == "citroen":
            tuner = Citroen(task, seed=seed)
        else:
            tuner = RandomSearchTuner(task, seed=seed)
        result = tuner.tune(budget)
        tune_s = time.perf_counter() - start
        if trace is not None:
            trace.active = False

        run_dir_bytes = 0
        if recorder is not None:
            recorder.write_result(result)
            recorder.write_metrics()
            wal.close()
            recorder.close()
            run_dir_bytes = _dir_bytes(run_dir)
        layers = (
            layer_metrics(trace, task, tuner, result, before, tune_s, run_dir_bytes)
            if trace is not None
            else {}
        )
        correct = (
            not result.interrupted
            and len(result.measurements) == budget
            and oracle_check(program, task, result.best_config)
        )
        return TuneRun(
            seed=seed,
            setup_s=setup_s,
            tune_s=tune_s,
            speedup=result.speedup_over_o3(),
            digest=history_digest(result),
            correct=correct,
            time_to_97_s=_time_to_97(result, stamps, start),
            layers=layers,
        )
    finally:
        if trace is not None:
            trace.active = False
        if task is not None:
            task.close()
        if wal is not None:
            wal.close()
        if recorder is not None:
            recorder.close()
        if run_dir is not None:
            shutil.rmtree(run_dir, ignore_errors=True)


def _time_to_97(result, stamps: List[float], start: float) -> Optional[float]:
    """Seconds from tune start to the first measurement reaching 97% of the
    run's final best speedup (``None`` if the stamps cannot be matched to
    measurements, e.g. when a candidate failed before measuring)."""
    if len(stamps) != len(result.measurements):
        return None
    target = result.best_runtime / 0.97
    for m, stamp in zip(result.measurements, stamps):
        if m.runtime <= target:
            return stamp - start
    return None


def _tune_counters(task) -> Dict[str, float]:
    """Counters the task accumulates during set-up too, taken at tune start
    so the per-layer figures cover the tune window only."""
    store = task.artifacts.stats() if task.artifacts is not None else {}
    return {
        "artifact_hits": store.get("hits", 0),
        "artifact_misses": store.get("misses", 0),
        "memo_hits": task.profiler.execution_memo_hits,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    trace: LayerTrace, task, tuner, result, before, tune_s: float, run_dir_bytes: int
) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric for one traced tune (0 for a layer the
    workload does not exercise)."""
    t = trace
    timing = task.timing_breakdown()
    store = task.artifacts.stats() if task.artifacts is not None else {}
    art_hits = store.get("hits", 0) - before["artifact_hits"]
    art_misses = store.get("misses", 0) - before["artifact_misses"]
    memo_hits = task.profiler.execution_memo_hits - before["memo_hits"]
    batch_wall = t.seconds_of("eval_engine.compile_batch")
    model = getattr(tuner, "model", None)
    out = {
        "compiler.run_opt.calls": t.calls_of("compiler.run_opt"),
        "compiler.run_opt.s": t.seconds_of("compiler.run_opt"),
        "compiler.clone.s": t.seconds_of("compiler.clone"),
        "eval_engine.compile_batch.s": batch_wall,
        "eval_engine.candidates": t.calls_of("eval_engine.candidates"),
        "eval_engine.compiles": timing["n_compiles"],
        "eval_engine.cache_hit_ratio": timing["compile_cache_hit_rate"],
        # mean per compiled candidate: in a serial batch each item waits for
        # all items before it, so the sum grows with the square of the batch
        "eval_engine.queue_wait_s": task.metrics.histogram(
            "engine.queue_wait_seconds"
        ).mean,
        "eval_engine.cores_used": _ratio(
            t.counts.get("eval_engine.compile_batch.cpu", 0.0), batch_wall
        ),
        "artifacts.ir_fingerprint.calls": t.calls_of("artifacts.ir_fingerprint"),
        "artifacts.ir_fingerprint.s": t.seconds_of("artifacts.ir_fingerprint"),
        "artifacts.harvest.s": t.seconds_of("artifacts.harvest"),
        "artifacts.hit_ratio": _ratio(art_hits, art_hits + art_misses),
        "task.measure.calls": t.calls_of("task.measure"),
        "task.measure.s": t.seconds_of("task.measure"),
        "task.measure_cache_hit_ratio": _ratio(
            task.metrics.counter("task.measure_cache_hits").value,
            t.calls_of("task.measure"),
        ),
        "task.infeasible_share": _ratio(result.n_infeasible, len(result.measurements)),
        "profiler.measure.s": t.seconds_of("profiler.measure"),
        "profiler.memo_hit_ratio": _ratio(memo_hits, t.calls_of("profiler.measure")),
        "bytecode.compile_module.s": t.seconds_of("bytecode.compile_module"),
        "fuse.fuse_module.s": t.seconds_of("fuse.fuse_module"),
        "vm.run.calls": t.calls_of("vm.run"),
        "vm.run.s": t.seconds_of("vm.run"),
        "vm.steps": t.calls_of("vm.steps"),
        "machine.estimate_cycles.s": t.seconds_of("machine.estimate_cycles"),
        "cost_model.fit.s": t.seconds_of("cost_model.fit"),
        "cost_model.refits": model.n_refits if model is not None else 0,
        "cost_model.extends": model.n_extends if model is not None else 0,
        "cost_model.add_observation.s": t.seconds_of("cost_model.add_observation"),
        "cost_model.predict_merged.s": t.seconds_of("cost_model.predict_merged"),
        "cost_model.coverage_many.s": t.seconds_of("cost_model.coverage_many"),
        "generator.ask.s": t.seconds_of("generator.ask"),
        "generator.candidates": t.calls_of("generator.candidates"),
        "citroen.dedup_hits": int(result.extras.get("dedup_hits", 0)),
        "wal.append.calls": t.calls_of("wal.append"),
        "wal.append.s": t.seconds_of("wal.append"),
        "recorder.write_event.s": t.seconds_of("recorder.write_event"),
        "recorder.run_dir_bytes": run_dir_bytes,
        "bench.traced_tune_s": tune_s,
    }
    for name, _unit, _better in PER_LAYER:
        if name.startswith("compiler.pass."):
            out[name] = t.seconds_of(name[: -len(".s")])
    return out


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (``ru_maxrss`` is KiB on
    Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: str, value: int) -> None:
        self.key = key
        self.value = value


def calibration_seconds(n: int = 10_000) -> float:
    """Wall time of a fixed pure-Python loop that allocates small objects,
    formats strings and hashes them into a dict, as the compiler's passes
    do.  It runs no program code, so it tracks the host's speed only."""
    t0 = time.perf_counter()
    table: Dict[str, int] = {}
    for i in range(n):
        cell = _Cell(f"v{i % 509}", i * 7 % 1013)
        table[cell.key] = table.get(cell.key, 0) + cell.value
    return time.perf_counter() - t0


@dataclass
class RunSummary:
    """What one benchmark invocation measured."""

    attempted: int
    failed: int
    correct: bool
    metrics: Dict[str, float]
    diagnostics: Dict[str, object]


def _per_seed(runs: List[TuneRun], attr: str) -> Dict[int, List[float]]:
    grouped: Dict[int, List[float]] = {}
    for r in runs:
        grouped.setdefault(r.seed, []).append(getattr(r, attr))
    return grouped


def measure_untraced(
    wl: Workload, seed: int, seconds: float, work_root: str,
    budget: Optional[int] = None,
) -> RunSummary:
    """Cycle through the seed panel until ``seconds`` have passed (and at
    least once through it, plus a repeat of the first seed so every run
    checks that one seed reproduces its history)."""
    seeds = panel_seeds(seed, wl.panel)
    runs: List[TuneRun] = []
    calibration: List[float] = []
    failed = 0
    rss = None
    start = time.perf_counter()
    i = 0
    while i <= len(seeds) or time.perf_counter() - start < seconds:
        s = seeds[i % len(seeds)]
        i += 1
        calibration.extend(calibration_seconds() for _ in range(CALIBRATION_SAMPLES))
        try:
            run = run_tune(wl, s, work_root, budget=budget)
        except Exception as exc:  # noqa: BLE001 - a failed run is counted, not fatal
            failed += 1
            print(f"run failed at seed {s}: {type(exc).__name__}: {exc}", flush=True)
            continue
        runs.append(run)
        if not run.correct:
            failed += 1
        if i == len(seeds):
            rss = peak_rss_mb()
    digests = {s: set(d) for s, d in _per_seed(runs, "digest").items()}
    reproducible = all(len(d) == 1 for d in digests.values())
    metrics: Dict[str, float] = {}
    raw: Dict[str, float] = {}
    host_scale = CALIBRATION_REFERENCE_S / statistics.median(calibration)
    if runs:
        # speedup is deterministic per seed (the digests check it), so one
        # value per seed; the median ignores a seed whose search has not
        # converged within the budget
        speedups = [v[0] for v in _per_seed(runs, "speedup").values()]
        raw = {
            "tune_s": statistics.fmean(
                statistics.median(v) for v in _per_seed(runs, "tune_s").values()
            ),
            "setup_s": statistics.median(r.setup_s for r in runs),
        }
        metrics = {
            "tune_s": raw["tune_s"] * host_scale,
            "setup_s": raw["setup_s"] * host_scale,
            "speedup_vs_o3": statistics.median(speedups),
            "peak_rss_mb": rss if rss is not None else peak_rss_mb(),
        }
    t97 = [r.time_to_97_s for r in runs if r.time_to_97_s is not None]
    return RunSummary(
        attempted=i,
        failed=failed,
        correct=bool(runs) and failed == 0 and reproducible,
        metrics=metrics,
        diagnostics={
            "seeds": seeds,
            "tunes": len(runs),
            "calibration_s": statistics.median(calibration),
            "host_scale": host_scale,
            "raw_wall_s": raw,
            "reproducible": reproducible,
            "digests": {str(s): sorted(d) for s, d in digests.items()},
            "error_rate": failed / i,
            "time_to_97_s": statistics.median(t97) if t97 else None,
        },
    )


def measure_traced(
    wl: Workload, seed: int, seconds: float, work_root: str,
    budget: Optional[int] = None,
) -> RunSummary:
    """Per seed: an untraced tune, then a traced one whose history must be
    bit-identical to it.  Per-layer figures are medians over traced tunes."""
    seeds = panel_seeds(seed, wl.panel)
    traced: List[TuneRun] = []
    overheads: List[float] = []
    calibration: List[float] = []
    failed = 0
    identical = True
    start = time.perf_counter()
    i = 0
    while i < 1 or time.perf_counter() - start < seconds:
        s = seeds[i % len(seeds)]
        i += 1
        calibration.extend(calibration_seconds() for _ in range(CALIBRATION_SAMPLES))
        trace = LayerTrace()
        try:
            plain = run_tune(wl, s, work_root, budget=budget)
            with trace:
                run = run_tune(wl, s, work_root, trace=trace, budget=budget)
        except Exception as exc:  # noqa: BLE001 - a failed run is counted, not fatal
            failed += 1
            print(f"run failed at seed {s}: {type(exc).__name__}: {exc}", flush=True)
            continue
        same = run.digest == plain.digest
        identical = identical and same
        if not (run.correct and plain.correct and same and trace.restored):
            failed += 1
        traced.append(run)
        overheads.append(run.tune_s - plain.tune_s)
    metrics: Dict[str, float] = {}
    if traced:
        for name, _unit, _better in PER_LAYER:
            if name != "bench.tracing_overhead_s":
                metrics[name] = statistics.median(r.layers[name] for r in traced)
        metrics["bench.tracing_overhead_s"] = statistics.median(overheads)
    return RunSummary(
        attempted=i,
        failed=failed,
        correct=bool(traced) and failed == 0,
        metrics=metrics,
        diagnostics={
            "seeds": [r.seed for r in traced],
            "tunes": len(traced),
            "calibration_s": statistics.median(calibration),
            "traced_identical": identical,
            "error_rate": failed / i,
        },
    )
