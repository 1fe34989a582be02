"""The autotuning task framework (§5.3.6 and the practicality contribution).

``AutotuningTask`` owns everything a tuner needs and nothing more:

* **hot-module identification** — a one-off profile of the ``-O3`` binary
  (our ``perf`` stand-in) selects the modules covering 90% of runtime;
* **cheap compilation** — ``compile_batch`` applies pass sequences to
  source modules and returns their statistics (``opt -stats-json``),
  a whole candidate population at a time, through the
  :class:`~repro.core.eval_engine.CompileEngine` — a walk of the
  compile graph first, within-batch dedup, and ``jobs=N`` process
  workers under a compile timeout (§5.3's "cheap and parallelisable"
  compiles);
* **expensive measurement** — ``measure`` links per-module binaries and
  runs the program on the simulated platform with noisy timing, with
  memoisation keyed by the full configuration and, below it, the
  profiler's fingerprint-keyed measurement store;
* **correctness** — differential testing of every measured binary against
  the unoptimised program's output (§1.1);
* **one budget slot** — ``evaluate`` compiles a configuration over the
  tuner's incumbent, measures it once, and records the slot (the
  :class:`~repro.core.result.Measurement` and its WAL ``slot`` record):
  CITROEN and every baseline only propose configurations.

Users point it at a :class:`~repro.workloads.Program`; no re-implementation
of the build process is needed — the practicality barrier of §1.2.3.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import warnings
from collections import deque
from functools import partial
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.compiler.ir import Module
from repro.compiler.opt_tool import CompileGraph, Miss, run_opt
from repro.compiler.pass_manager import PassTrace, TargetInfo
from repro.compiler.pipelines import SEARCH_PASSES, pipeline
from repro.core.eval_engine import CompileEngine, CompileOutcome
from repro.core.faults import FaultInjector, corrupt_module, parse_fault_kinds
from repro.core.result import Measurement, TuningResult
from repro.machine.interp import InterpError
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.machine.artifacts import ArtifactStore, CompiledModule
from repro.machine.platforms import Platform, get_platform
from repro.machine.profiler import Profiler
from repro.utils.rng import SeedLike, as_generator
from repro.workloads.program import Program

__all__ = ["AutotuningTask"]


def _corrupt_compiled(compiled: CompiledModule) -> CompiledModule:
    """The fault injector's ``miscompile`` hook for the task's compile
    results."""
    return CompiledModule(*corrupt_module(compiled))


def _compile_candidate(
    program: Program,
    target: TargetInfo,
    graph: CompileGraph,
    module_name: str,
    seq: Sequence[str],
    stats_only: bool = False,
    miss: Optional[Miss] = None,
) -> CompiledModule:
    """The raw compile of a decoded pass-name sequence — a pure function
    of its arguments, as the engine's dedup and process workers both
    require (``graph`` only saves work).  Module-level and bound with
    ``functools.partial`` over picklable values only, so a process worker
    started without fork can still be handed it.  ``stats_only`` returns
    ``CompiledModule(None, stats)``; ``miss``, where walking this same
    candidate through ``graph`` stopped, continues the compile from there."""
    src = program.get_module(module_name)
    cr = run_opt(src, seq, target=target, graph=graph, stats_only=stats_only, resume=miss)
    return CompiledModule(cr.module, cr.stats_json())


def _walk_candidate(
    program: Program,
    target: TargetInfo,
    graph: CompileGraph,
    module_name: str,
    seq: Sequence[str],
    stats_only: bool = False,
) -> Tuple[Optional[CompiledModule], int, Optional[Callable[..., CompiledModule]]]:
    """The engine's walk: :func:`_compile_candidate`'s result when
    ``graph`` already knows every pass of ``seq``; else ``None``, the
    passes left, and the compile function that finishes the compile from
    where the walk stopped."""
    out = graph.walk(program.get_module(module_name), seq, target, stats_only)
    if isinstance(out, Miss):
        finish = partial(
            _compile_candidate, program, target, graph, stats_only=stats_only, miss=out
        )
        return None, out.left, finish
    return CompiledModule(out.module, out.stats_json()), 0, None


class AutotuningTask:
    """Compile/measure/verify interface over one program on one platform."""

    #: profiler runs per measurement (their noisy timings are averaged)
    repeats = 3

    def __init__(
        self,
        program: Program,
        platform: str = "arm-a57",
        seed: SeedLike = None,
        passes: Optional[Sequence[str]] = None,
        seq_length: int = 32,
        objective: str = "runtime",
        jobs: int = 1,
        fault_injector: Optional[FaultInjector] = None,
        compile_timeout: Optional[float] = None,
        compile_retries: int = 2,
        retry_backoff: float = 0.01,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        metrics_every: int = 0,
        pipeline_trace: str = "off",
        wal: Optional["WriteAheadLog"] = None,  # noqa: F821 (forward ref)
        kill_after_iter: Optional[int] = None,
    ) -> None:
        """``objective``: ``"runtime"`` (the paper's focus) or ``"codesize"``
        (the simpler static objective discussed in §1 — evaluated without
        executing the program, though differential testing still runs it
        once for correctness).

        ``jobs`` is the worker count of the
        :class:`~repro.core.eval_engine.CompileEngine` behind
        :meth:`compile_batch`.  This process walks every candidate
        through the compile graph first.  Without a ``compile_timeout``
        it compiles the rest in a deterministic serial loop at any
        ``jobs``; with one, every compile that has a pass to run goes
        to ``jobs`` forked workers, which can be killed when a compile
        overruns, and all of them walk one compile graph.

        ``fault_injector`` wraps candidate compiles with seeded chaos
        (:mod:`repro.core.faults`); ``compile_timeout``/``compile_retries``/
        ``retry_backoff`` are the engine's per-candidate timeout and
        retry-with-backoff knobs.  Absent an explicit injector, the
        ``REPRO_INJECT_FAULTS``/``REPRO_FAULT_RATE``/``REPRO_FAULT_SEED``/
        ``REPRO_FAULT_HANG_SECONDS`` environment variables build one — the
        hook CI's chaos job uses to run whole suites under fault injection.
        Faults are a pure function of each candidate
        (:meth:`~repro.core.faults.FaultInjector.fault_for`), so they hit
        alike in whichever process a candidate compiles; their effect is
        counted by the engine's failure, timeout, retry and quarantine
        counters and by ``measure_incorrect``.

        ``tracer``/``metrics`` wire the observability stack
        (:mod:`repro.obs`) through the task: measurement spans and
        ``task.*`` metrics are recorded here, and both are shared with the
        :class:`~repro.core.eval_engine.CompileEngine` so compile-batch
        spans land in the same trace and the engine's ``engine.*``
        counters in the same registry.  ``metrics_every=N`` emits a
        ``metrics`` trace event (plus a debug log line) every N
        measurements.  Defaults are the disabled
        :data:`~repro.obs.trace.NULL_TRACER` and a private registry —
        tracing consumes no RNG, so instrumented and uninstrumented runs
        produce bit-identical tuner histories at the same seed.

        Measurements run on the profiler's translated bytecode: each
        function compiled once into one generated Python function, served
        per IR fingerprint by its
        :class:`~repro.machine.artifacts.ArtifactStore` together with the
        recorded outcome of every execution.  Set-up executes the program
        once, for the -O3 anchor: the -O0 anchor replays the tree-walking
        reference run (:meth:`Program.reference_output`, also the bit-exact
        test oracle), and the -O3 profile replays the -O3 measurement.

        ``pipeline_trace`` samples per-pass compiler observability
        (``"off"``/``"incumbents"``/``"all"``): after a live measurement,
        the measured configuration's modules are recompiled once more with
        a :class:`~repro.compiler.pass_manager.PassTrace` and the per-pass
        timeline lands in the trace as the ``pass.*`` span family
        (``pass.trace`` > ``pass.pipeline`` > ``pass.run``).
        ``"incumbents"`` (the bounded default for traced tunes) traces
        only measurements that improve the task's best feasible runtime so
        far; ``"all"`` traces every live measurement.  The replay consumes
        no RNG and never touches the measurement path, so tuner histories
        are bit-identical across all three modes.

        ``wal`` attaches a :class:`~repro.core.wal.WriteAheadLog`: every
        live measurement appends one fsync'd ``measure`` record (verdict +
        profiler-RNG checkpoint) and tuners log one ``slot`` record per
        budget slot via :meth:`wal_slot` — the durable state ``repro tune
        --resume`` replays through :meth:`start_replay`.  ``kill_after_iter``
        is the chaos-test hook: SIGKILL this process the moment the Nth
        *live* measurement's WAL record is durable (so the harness kills at
        a point the log provably covers)."""
        if objective not in ("runtime", "codesize"):
            raise ValueError(f"unknown objective {objective!r}")
        # fault injection: an explicit injector wins; otherwise the chaos
        # environment variables may build one (CI's chaos job)
        if fault_injector is None:
            env_kinds = parse_fault_kinds(os.environ.get("REPRO_INJECT_FAULTS", ""))
            if env_kinds:
                fault_injector = FaultInjector(
                    rate=float(os.environ.get("REPRO_FAULT_RATE", "0.02")),
                    kinds=env_kinds,
                    seed=int(os.environ.get("REPRO_FAULT_SEED", "0")),
                    hang_seconds=float(
                        os.environ.get("REPRO_FAULT_HANG_SECONDS", "0.05")
                    ),
                )
        self.objective = objective
        self.program = program
        self.platform: Platform = get_platform(platform)
        self.target = self.platform.target_info()
        self.profiler = Profiler(
            self.platform, seed=as_generator(seed), fuel=program.fuel
        )
        self.artifacts: ArtifactStore = self.profiler.artifacts
        self.passes: List[str] = list(passes) if passes is not None else list(SEARCH_PASSES)
        self.seq_length = seq_length

        # one-off reference + O3/O0 anchors
        reference = program.reference_output()
        self._reference_sig = reference.output_signature()
        self._o3: Dict[str, CompiledModule] = {}
        o3 = pipeline("-O3")
        for mod in program.modules:
            cr = run_opt(mod, o3, target=self.target)
            self._o3[mod.name] = CompiledModule(cr.module, cr.stats_json())
        o3_linked = [self._o3[m.name].module for m in program.modules]
        # the -O3 binaries are linked into every measurement: fingerprint
        # them once, here
        o3_fps = [self._o3[m.name].fingerprint for m in program.modules]
        if self.objective == "codesize":
            self.o3_runtime = float(sum(m.num_instrs() for m in o3_linked))
            self.o0_runtime = float(sum(m.num_instrs() for m in program.modules))
        else:
            self.o3_runtime = self.profiler.measure(
                o3_linked, repeats=self.repeats, fingerprints=o3_fps
            ).seconds
            # the reference run is the -O0 program's execution: the -O0
            # measurement replays it (and draws its noise as a live run)
            o0_linked = list(program.modules)
            self.profiler.record(o0_linked, reference, entry=program.entry)
            self.o0_runtime = self.profiler.measure(o0_linked, repeats=self.repeats).seconds

        # hot module identification from the -O3 profile (perf stand-in),
        # served by the execution memo when -O3 was just measured
        prof = self.profiler.function_profile(o3_linked, fingerprints=o3_fps)
        self.hot_modules: List[str] = prof.hot_modules()
        self.module_weights: Dict[str, float] = {
            name: prof.module_seconds.get(name, 0.0) / max(prof.total_seconds, 1e-12)
            for name in self.hot_modules
        }

        self.fault_injector = fault_injector
        if fault_injector is not None and fault_injector.corrupt_fn is None:
            fault_injector.corrupt_fn = _corrupt_compiled
        # candidate compiles run each pass once per distinct IR state; the
        # engine walks the graph before it compiles, and keeps the copies
        # of its process workers in sync.  Faults are injected on the
        # compile path, so a task with an injector walks nothing.
        self.graph = CompileGraph()
        self._graph_reported: Dict[str, int] = {}
        compile_fn = partial(_compile_candidate, program, self.target, self.graph)
        walk_fn = partial(_walk_candidate, program, self.target, self.graph)
        if fault_injector is not None:
            compile_fn, walk_fn = fault_injector.wrap(compile_fn), None

        # observability: one tracer + one registry shared with the engine,
        # so compile spans and engine counters land in the run's artifacts
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.metrics_every = int(metrics_every)
        self._m_measurements = self.metrics.counter("task.measurements")
        self._m_measure_cache_hits = self.metrics.counter("task.measure_cache_hits")
        self._m_replayed = self.metrics.counter("task.measure_replayed")
        self._m_crashes = self.metrics.counter("task.measure_crashes")
        self._m_incorrect = self.metrics.counter("task.measure_incorrect")
        self._m_memo_hits = self.metrics.counter("task.execution_memo_hits")
        self._m_measure_hist = self.metrics.histogram("task.measure_seconds")

        # compile engine: parallel workers, dedup within each batch.  The
        # task decodes each candidate once per batch and hands the engine
        # pass-name tuples, so distinct index encodings of the same
        # pipeline dedup (and quarantine) together.
        self.jobs = int(jobs)
        self.engine = CompileEngine(
            compile_fn,
            jobs=self.jobs,
            timeout=compile_timeout,
            max_retries=compile_retries,
            retry_backoff=retry_backoff,
            metrics=self.metrics,
            tracer=self.tracer,
            graph=self.graph,
            walk=walk_fn,
        )

        # pipeline observability: sampled per-pass trace replays
        if pipeline_trace not in ("off", "incumbents", "all"):
            raise ValueError(
                f"unknown pipeline_trace mode {pipeline_trace!r}; "
                "expected off, incumbents, or all"
            )
        self.pipeline_trace = pipeline_trace
        self._trace_best = float("inf")
        self.n_pass_traces = 0
        self.pass_trace_seconds = 0.0

        # bookkeeping / statistics the benches report (Fig 5.12);
        # n_compiles/compile_seconds live in the engine (thread-safe)
        self.n_measurements = 0
        self.n_incorrect = 0
        self.n_crashes = 0
        self.measure_seconds = 0.0
        self.last_failure = ""
        # config-keyed verdicts, failures included: a revisited
        # configuration is never re-measured, and on resume the WAL replay
        # stays in 1:1 lockstep with the live run's profiler measurements
        self._measure_cache: Dict[Tuple, Tuple[float, bool, str]] = {}

        # durable sessions: write-ahead log, replay stream, stop flag
        self.wal = wal
        if wal is not None and not wal.resume:
            # one anchor record up front: the -O3/-O0 runtimes that turn a
            # raw measured runtime into a speedup.  `repro watch` reads it
            # to render live speedup curves before result.json exists.
            # Replay ignores it (split_wal keeps measure/slot only).
            wal.append(
                {
                    "type": "anchor",
                    "o3_runtime": self.o3_runtime,
                    "o0_runtime": self.o0_runtime,
                    "hot_modules": list(self.hot_modules),
                }
            )
        self.kill_after_iter = (
            int(kill_after_iter) if kill_after_iter is not None else None
        )
        self._stop = threading.Event()
        self._replay: Deque[Dict[str, object]] = deque()
        self._suppress_slots = 0

    # -- lifecycle ---------------------------------------------------------------
    def close(self) -> None:
        """Shut the compile engine's workers down (idempotent)."""
        self.engine.close()

    # -- durable sessions --------------------------------------------------------
    def request_stop(self) -> None:
        """Ask the tuner loop to stop at the next budget-slot boundary.

        Signal-handler safe (sets a :class:`threading.Event`); tuners poll
        :attr:`stop_requested` between measurements, finish the in-flight
        slot, and return a partial — but valid and resumable — result."""
        self._stop.set()

    @property
    def stop_requested(self) -> bool:
        return self._stop.is_set()

    @property
    def replaying(self) -> bool:
        """True while measurements are being served from a WAL replay."""
        return bool(self._replay)

    def start_replay(self, records: Sequence[Dict[str, object]]) -> int:
        """Arm WAL replay: the next ``len(measure records)`` non-cached
        measurements return recorded verdicts instead of running the
        profiler, and an equal number of tuner ``slot`` records are
        suppressed (the re-executed loop re-produces them verbatim).

        When the replay stream drains, the profiler's measurement-noise RNG
        is restored from the last record's checkpoint, so live measurements
        continue the exact noise stream of the killed run.  Returns the
        number of measurements that will be replayed."""
        from repro.core.wal import split_wal

        measures, slots = split_wal(list(records))
        self._replay = deque(measures)
        # suppress exactly the slot records already on disk — counting, not
        # a boolean, so a kill between a measure record and its slot record
        # re-logs only the genuinely missing slot
        self._suppress_slots = len(slots)
        return len(measures)

    def wal_slot(self, record: Dict[str, object]) -> None:
        """Tuner hook: log one budget slot to the WAL (no-op without one).

        During replay the first :attr:`_suppress_slots` calls are dropped —
        they duplicate records already recovered from disk."""
        if self._suppress_slots > 0:
            self._suppress_slots -= 1
            return
        if self.wal is not None:
            self.wal.append(dict(record, type="slot"))

    def __enter__(self) -> "AutotuningTask":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- sequence plumbing -----------------------------------------------------
    @property
    def alphabet(self) -> int:
        return len(self.passes)

    @property
    def penalty_runtime(self) -> float:
        """Finite fitness assigned to infeasible candidates (compile
        failures, crashes, miscompilations) — bad enough that no search
        strategy pursues them, finite so generator/surrogate updates stay
        numerically sane (AutoPhase-style invalid-sequence masking)."""
        return 10.0 * max(self.o3_runtime, self.o0_runtime)

    def decode(self, seq_indices: Sequence[int]) -> List[str]:
        """Map integer gene indices to pass names."""
        return [self.passes[int(i)] for i in seq_indices]

    def o3_sequence(self, rng: np.random.Generator) -> np.ndarray:
        """The -O3 pipeline encoded in the search alphabet, repeated or cut
        to the search length: every tuner's first configuration.

        With a pass alphabet disjoint from the -O3 pipeline (custom or
        reduced subsets, cf. the Fig 5.10 LLVM-10-like config) there is
        nothing to encode; this warns and draws a random sequence from the
        tuner's ``rng`` instead."""
        index = {p: i for i, p in enumerate(self.passes)}
        ids = [index[p] for p in pipeline("-O3") if p in index]
        if not ids:
            warnings.warn(
                "no -O3 pipeline pass is in the search alphabet; "
                "seeding with a random sequence instead",
                stacklevel=2,
            )
            return rng.integers(0, self.alphabet, size=self.seq_length)
        reps = ids * (self.seq_length // len(ids) + 1)
        return np.asarray(reps[: self.seq_length], dtype=int)

    # -- cheap compilation --------------------------------------------------------
    def compile_batch(
        self,
        items: Sequence[Tuple[str, Sequence[int]]],
        stats_only: bool = False,
    ) -> List[CompileOutcome]:
        """Compile a batch of ``(module_name, sequence)`` candidates.

        Returns one :class:`~repro.core.eval_engine.CompileOutcome` per
        item, in input order regardless of ``jobs``, so tuner behaviour
        is bit-identical at any parallelism level.  Candidate failures
        (crash/timeout/quarantine) are returned, not raised; an ok
        outcome's ``value`` is a
        :class:`~repro.machine.artifacts.CompiledModule`, which unpacks
        as ``module, stats``.  Returned modules must be treated as
        immutable.  With ``stats_only=True`` each result carries
        ``module=None``: no module is built, in-line or in a process
        worker; :meth:`evaluate` recompiles the one a tuner measures.  A task with a fault injector
        ignores the flag, since the injector's ``miscompile`` fault
        corrupts the module."""
        return self.engine.compile_batch(
            [(name, tuple(self.decode(seq))) for name, seq in items],
            stats_only=stats_only and self.fault_injector is None,
        )

    def o3_module(self, module_name: str) -> Module:
        """The module's reference -O3 binary."""
        return self._o3[module_name].module

    def o3_stats(self, module_name: str) -> Dict[str, int]:
        """Compilation statistics of the module's -O3 build."""
        return self._o3[module_name].stats

    # -- expensive measurement ------------------------------------------------------
    def _link(
        self, compiled: Dict[str, Union[CompiledModule, Module]]
    ) -> Tuple[List[Module], List[Optional[str]]]:
        """The linked module list and each module's IR fingerprint (``None``
        for a bare :class:`Module`, which the profiler fingerprints)."""
        modules: List[Module] = []
        fps: List[Optional[str]] = []
        for m in self.program.modules:
            c = compiled.get(m.name, self._o3[m.name])
            if isinstance(c, CompiledModule):
                modules.append(c.module)
                fps.append(c.fingerprint)
            else:
                modules.append(c)
                fps.append(None)
        return modules, fps

    def measure(
        self,
        compiled: Dict[str, Union[CompiledModule, Module]],
        config_key: Optional[Tuple] = None,
        sequences: Optional[Dict[str, Tuple[str, ...]]] = None,
    ) -> Tuple[float, bool]:
        """Link ``compiled`` modules over the -O3 defaults and measure.

        ``compiled`` maps module names to compile results (or bare
        modules); modules not present use their -O3 binary (the default for
        non-hot modules).  Returns ``(seconds, outputs_ok)``.  Each compile
        result's IR fingerprint is computed here, on its first live
        measurement, and kept on the result.  ``sequences`` (module name ->
        decoded pass tuple) names the configuration for pipeline tracing.

        A binary that crashes or exhausts its fuel during execution
        (``InterpError``/``FuelExhausted`` — rare pass orders really do
        this, §1.1) is an *infeasible verdict*, not a tuner-killing
        exception: the return is ``(penalty_runtime, False)`` and
        :attr:`last_failure` is set to ``"crash"`` (``"incorrect"`` for
        differential-test mismatches).  Failure verdicts are cached under
        ``config_key`` alongside successes, so a known-bad configuration is
        never re-measured on a revisit.
        """
        if config_key is not None and config_key in self._measure_cache:
            value, ok, self.last_failure = self._measure_cache[config_key]
            self._m_measure_cache_hits.inc()
            self.tracer.event(
                "measure_cached", status=self.last_failure or "ok"
            )
            return value, ok
        if self._replay:
            # resume path: serve the recorded verdict instead of measuring.
            # Cache hits never reach here (checked above, and the rebuilt
            # cache replays them too), so live and replayed runs consume
            # WAL records in 1:1 lockstep.
            rec = self._replay.popleft()
            value = float(rec["value"])
            ok = bool(rec["ok"])
            failure = str(rec.get("status") or "")
            self.n_measurements += 1
            # metrics epoch accounting: a replayed verdict is NOT a fresh
            # profiler measurement — it was counted by the epoch that
            # performed it (and, resumed-run metrics being merged across
            # epochs, summing `task.measurements` must not double-count).
            # `task.measure_replayed` tracks the replay volume instead.
            self._m_replayed.inc()
            if failure == "incorrect":
                self.n_incorrect += 1
            elif failure == "crash":
                self.n_crashes += 1
            self.last_failure = failure
            if config_key is not None:
                self._measure_cache[config_key] = (value, ok, failure)
            self.tracer.event(
                "measure_replayed", n=self.n_measurements, status=failure or "ok"
            )
            if not self._replay:
                # seam: continue the killed run's measurement-noise stream
                state = rec.get("rng")
                if state is not None:
                    self.profiler.rng.bit_generator.state = state
            return value, ok
        t0 = time.perf_counter()
        with self.tracer.span(
            "measure", modules=len(compiled), repeats=self.repeats
        ) as sp:
            linked, fps = self._link(compiled)
            failure = ""
            memo0 = self.profiler.execution_memo_hits
            try:
                if self.objective == "codesize":
                    value = float(sum(mod.num_instrs() for mod in linked))
                    # still verify semantics once
                    run = self.profiler.execute(linked, fingerprints=fps)
                else:
                    m = self.profiler.measure(
                        linked, repeats=self.repeats, fingerprints=fps
                    )
                    value, run = m.seconds, m.result
                ok = run.output_signature() == self._reference_sig
                if not ok:
                    failure = "incorrect"
                    self.n_incorrect += 1
                    self._m_incorrect.inc()
            except InterpError:  # includes FuelExhausted
                value, ok, failure = self.penalty_runtime, False, "crash"
                self.n_crashes += 1
                self._m_crashes.inc()
            # deltas span the crash path too: a memoized crash is still a
            # memo hit, and the counters must say so
            memo_d = self.profiler.execution_memo_hits - memo0
            if memo_d:
                self._m_memo_hits.inc(memo_d)
            sp.set(status=failure or "ok", memo_hits=memo_d)
        dt = time.perf_counter() - t0
        self.n_measurements += 1
        self.measure_seconds += dt
        self._m_measurements.inc()
        self._m_measure_hist.observe(dt)
        self.last_failure = failure
        if config_key is not None:
            self._measure_cache[config_key] = (value, ok, failure)
        if self.wal is not None:
            # the verdict plus the post-measurement RNG checkpoint: enough
            # to replay this measurement AND to resume the noise stream if
            # this turns out to be the last record before a kill
            self.wal.append(
                {
                    "type": "measure",
                    "n": self.n_measurements,
                    "value": value,
                    "ok": ok,
                    "status": failure,
                    "rng": self.profiler.rng.bit_generator.state,
                }
            )
        if (
            self.kill_after_iter is not None
            and self.n_measurements >= self.kill_after_iter
        ):
            # chaos-harness hook: die hard (no cleanup, no atexit) right
            # after the Nth live measurement is durable in the WAL
            os.kill(os.getpid(), signal.SIGKILL)
        if self.metrics_every and self.n_measurements % self.metrics_every == 0:
            self._sync_graph_metrics()
            flat = self.metrics.flat()
            self.tracer.event(
                "metrics", n_measurements=self.n_measurements, metrics=flat
            )
            get_logger(__name__).debug(
                "metrics @ %d measurements: %s", self.n_measurements, flat
            )
        if self.pipeline_trace != "off" and sequences:
            improved = ok and value < self._trace_best
            if improved:
                self._trace_best = value
            if improved or self.pipeline_trace == "all":
                self._emit_pass_trace(
                    sequences, runtime=value,
                    reason="incumbent" if improved else "all",
                )
        return value, ok

    def _emit_pass_trace(
        self,
        sequences: Dict[str, Tuple[str, ...]],
        runtime: float,
        reason: str,
    ) -> None:
        """Recompile a just-measured configuration with per-pass tracing.

        Runs *outside* the measurement path, after the verdict (and its
        WAL record) are final: the compile engine, the profiler's RNG, and
        the measure cache are untouched, so sampled tracing cannot perturb
        the search.  Emits one ``pass.trace`` span holding
        a ``pass.pipeline`` span per module with nested ``pass.run``
        spans — each carrying the pass's ``changed`` flag, statistics
        delta, and IR fingerprint delta."""
        if not self.tracer.enabled:
            return
        t0 = time.perf_counter()
        with self.tracer.span(
            "pass.trace",
            n=self.n_measurements,
            runtime=runtime,
            reason=reason,
            modules=len(sequences),
        ):
            for name in sorted(sequences):
                seq_names = list(sequences[name])
                trace = PassTrace()
                with self.tracer.span(
                    "pass.pipeline", module=name, length=len(seq_names)
                ) as sp:
                    base = self.tracer.now()
                    run_opt(
                        self.program.get_module(name), seq_names,
                        target=self.target, trace=trace,
                    )
                    for e in trace.entries:
                        self.tracer.span_event(
                            "pass.run",
                            wall=e.wall,
                            cpu=e.cpu,
                            ts=base + e.offset,
                            index=e.index,
                            module=name,
                            changed=e.changed,
                            stats_delta=e.stats_delta,
                            ir_delta=e.ir_delta(),
                            **{"pass": e.name},
                        )
                    sp.set(**trace.summary())
        self.n_pass_traces += 1
        self.pass_trace_seconds += time.perf_counter() - t0

    def evaluate(
        self,
        result: TuningResult,
        config: Dict[str, np.ndarray],
        winner: str,
        module: Optional[str] = None,
        coverage: float = float("nan"),
        incumbent: Optional[Dict[str, np.ndarray]] = None,
        incumbent_compiled: Optional[Dict[str, CompiledModule]] = None,
        compiled: Optional[CompiledModule] = None,
        cache: bool = False,
    ) -> Tuple[Measurement, Dict[str, CompiledModule]]:
        """Spend one budget slot on ``config`` and record it.

        ``config`` maps modules to index sequences (other modules link at
        -O3); ``module`` names the module a tuner changed (``None`` for a
        whole-configuration slot, recorded as ``"all"``).  A module whose
        sequence equals the tuner's ``incumbent`` reuses its
        ``incumbent_compiled`` module, and ``compiled`` (the changed
        module's compile result, unless stats-only) is used as it is;
        every other module compiles in one batch.  A failed compile makes
        the slot infeasible with the first failing status, unmeasured.
        Otherwise :meth:`measure` runs once, its verdict cached under the
        configuration when ``cache`` is set (a revisit is then never
        re-measured).

        Appends the slot's :class:`~repro.core.result.Measurement` to
        ``result`` and logs its WAL ``slot`` record.  Returns that
        measurement and the configuration's compiled modules."""
        incumbent = incumbent or {}
        incumbent_compiled = incumbent_compiled or {}
        modules: Dict[str, CompiledModule] = {}
        missing: List[Tuple[str, np.ndarray]] = []
        for name, seq in config.items():
            if name == module and compiled is not None and compiled.module is not None:
                modules[name] = compiled
            elif name in incumbent_compiled and np.array_equal(seq, incumbent[name]):
                modules[name] = incumbent_compiled[name]
            else:
                missing.append((name, seq))
        status = "ok"
        if missing:
            for (name, _seq), outcome in zip(
                missing, self.compile_batch(missing)
            ):
                if outcome.ok:
                    modules[name] = outcome.value
                elif status == "ok":
                    status = outcome.status
        sequences = {name: tuple(self.decode(seq)) for name, seq in config.items()}
        if status == "ok":
            key = None
            if cache:
                key = tuple(
                    sorted((n, tuple(int(i) for i in s)) for n, s in config.items())
                )
            runtime, ok = self.measure(modules, config_key=key, sequences=sequences)
            if not ok:
                status = self.last_failure or "incorrect"
        else:
            runtime, ok = self.penalty_runtime, False
        if module is not None:
            changed, flat = module, sequences[module]
        else:
            # a whole-configuration slot: the flat field holds every
            # module's passes, in module-name order
            changed = "all"
            flat = tuple(p for name in sorted(sequences) for p in sequences[name])
        meas = Measurement(
            index=len(result.measurements),
            module=changed,
            sequence=flat,
            runtime=runtime if ok else float("inf"),
            speedup_vs_o3=self.o3_runtime / runtime if ok else 0.0,
            correct=ok,
            sequences=sequences,
            status=status,
        )
        result.measurements.append(meas)
        # one durable slot record per budget slot: what was tried and what
        # came back — the audit trail `repro analyze` reads off an
        # interrupted run (no-op without a WAL; suppressed during replay)
        self.wal_slot(
            {
                "index": meas.index,
                "module": changed,
                "winner": winner,
                "sequences": {n: list(s) for n, s in sequences.items()},
                "runtime": meas.runtime,
                "correct": ok,
                "status": status,
                "coverage": coverage,
            }
        )
        return meas, modules

    def _sync_graph_metrics(self) -> Dict[str, int]:
        """Set the ``compiler.graph_nodes``/``graph_edges`` gauges and add
        the pass applications run and skipped since the last sync to the
        ``compiler.graph_passes_*`` counters (process workers' included);
        returns the graph's counters."""
        stats = self.graph.stats()
        for key, value in stats.items():
            if key in ("nodes", "edges"):
                self.metrics.gauge(f"compiler.graph_{key}").set(value)
            else:
                reported = self._graph_reported.get(key, 0)
                self.metrics.counter(f"compiler.graph_{key}").inc(value - reported)
                self._graph_reported[key] = value
        return stats

    def timing_breakdown(self) -> Dict[str, float]:
        """Compile/measure time and counts (Fig 5.12).

        ``compile_seconds`` is the cumulative per-candidate compile time
        (timed inside each worker, summed across workers);
        ``compile_wall_seconds`` is wall clock spent inside the engine —
        under process workers their ratio is the parallel speedup (each
        item's time is its wall time, so it also counts time a process
        waited for a core).  ``executor`` names how the compiles ran
        (``serial`` or ``process``, the engine's ``kind``).  Within-batch
        duplicates compile once, so ``n_compiles`` counts real work only;
        ``compile_walked`` of them were answered by walking the compile
        graph in this process, and ``compile_dispatched`` were sent to a
        process worker.
        The fault-tolerance counters
        (failures/timeouts/retries/quarantine from the engine, plus crashed
        and incorrect measurements) make chaos runs auditable.

        ``graph_*`` are the :class:`~repro.compiler.opt_tool.CompileGraph`
        counters (also in the registry as ``compiler.graph_*``): live
        ``nodes`` and ``edges`` of this process's copy, and pass
        applications run (``passes_run``), skipped along known edges
        (``passes_skipped``), and run but led back to the state they
        started from (``passes_unchanged``: a pass that reports no change
        is taken at its word and not fingerprinted), summed over this
        process and its process workers, which send theirs back with
        their journals."""
        graph = self._sync_graph_metrics()
        engine = self.engine.stats()
        requests = engine["cache_hits"] + engine["cache_misses"]
        return {
            "compile_seconds": engine["compile_cpu_seconds"],
            "measure_seconds": self.measure_seconds,
            "n_compiles": engine["n_compiles"],
            "n_measurements": self.n_measurements,
            "compile_wall_seconds": engine["compile_wall_seconds"],
            "compile_cache_hits": engine["cache_hits"],
            "compile_cache_misses": engine["cache_misses"],
            "compile_cache_hit_rate": (
                engine["cache_hits"] / requests if requests else 0.0
            ),
            "compile_walked": engine["walked"],
            "compile_dispatched": engine["dispatched"],
            "jobs": self.jobs,
            "executor": engine["executor"],
            "compile_failures": engine["compile_failures"],
            "compile_timeouts": engine["compile_timeouts"],
            "compile_retries": engine["compile_retries"],
            "quarantine_size": engine["quarantine_size"],
            "quarantine_hits": engine["quarantine_hits"],
            "measure_crashes": self.n_crashes,
            "measure_incorrect": self.n_incorrect,
            "bytecode_compiles": self.artifacts.misses,
            "bytecode_cache_hits": self.artifacts.hits,
            "execution_memo_hits": self.profiler.execution_memo_hits,
            "functions_translated": self.profiler.functions_translated,
            "pipeline_trace": self.pipeline_trace,
            "n_pass_traces": self.n_pass_traces,
            "pass_trace_seconds": self.pass_trace_seconds,
            **{f"graph_{key}": value for key, value in graph.items()},
        }
