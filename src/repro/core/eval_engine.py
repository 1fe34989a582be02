"""Parallel compile-and-featurize evaluation engine (§5.3's practicality claim).

The paper argues candidate compilation is "cheap and parallelisable": every
iteration CITROEN compiles ``per_strategy x strategies x hot_modules``
candidate sequences before a single expensive measurement, so the compile
stage is an embarrassingly parallel batch.  :class:`CompileEngine` makes
that batch explicit:

* **batch evaluation** — :meth:`compile_batch` takes ``(module_name,
  sequence)`` pairs and returns results *in input order* regardless of
  execution order, so tuner behaviour is identical at any ``jobs`` setting
  (the compile function must be a pure function of its inputs);
* **configurable executor** — ``jobs=1`` is a deterministic serial loop
  (no pool, no threads); ``jobs>1`` fans out over a warm process pool by
  default (``executor="auto"``), or a thread pool on request
  (``executor="thread"``, for compile functions that cannot cross a
  process boundary).  Process workers are forked lazily, on the first
  batch with two or more items to compile, and receive the compile
  function once, through the pool initializer; each submit then carries
  only ``(module_name, sequence)``;
* **stats-only compiles** — ``compile_batch(..., stats_only=True)``
  calls the compile function as ``compile_fn(name, seq,
  stats_only=True)``, on every executor alike: a compile function that
  can leave the module out of its result (the task's returns
  ``CompiledModule(None, stats)``) builds none, and a process worker
  pickles only the statistics back;
* **within-batch dedup** — candidates sharing a key (``(module_name,
  decoded-sequence)`` by default) compile once per batch; the duplicates
  count as ``cache_hits``.  Nothing is kept across batches: a compiled
  module lives only as long as its caller holds it (repeated candidates
  across iterations are rare, and the task's verdict cache already spares
  their measurement);
* **honest timing** — cumulative per-candidate compile seconds
  (``cpu_seconds``, summed across workers) versus wall-clock spent inside
  engine calls (``wall_seconds``), plus hit/miss counters, so
  ``timing_breakdown()``/Fig 5.12 can report the parallel speedup rather
  than pretending the batch ran serially;
* **fault tolerance** — real phase orders crash compilers, hang them, and
  fail transiently.  Every candidate runs through a bounded
  retry-with-backoff loop, an optional per-candidate ``timeout``, and a
  *quarantine*: keys that failed deterministically (crashed through every
  retry, or timed out) are never compiled again — later requests get
  their failure back instantly.  ``compile_batch(..., outcomes=True)``
  returns a :class:`CompileOutcome` per candidate instead of raising, so
  one failing worker can neither drop sibling results nor skew counters;
  failure/timeout/retry/quarantine counts flow into :meth:`stats`.

All counters and the quarantine are guarded by one lock; the engine is
safe to call from concurrent client threads (compiling the same key twice
in a race is harmless — the compile function is pure — and counters stay
consistent).

Observability: the counters live in a
:class:`~repro.obs.metrics.MetricsRegistry` (``engine.*`` names, including
streaming histograms of per-candidate compile seconds, per-batch wall
time, and queue wait), and every :meth:`compile_batch` runs inside a
``compile_batch`` span on the engine's
:class:`~repro.obs.trace.Tracer` carrying that batch's dedup/fault
deltas.  The legacy attribute counters (``engine.hits``,
``engine.n_compiles``, ...) are retained as read-only properties over the
registry — prefer ``engine.metrics``/:meth:`stats` in new code.
"""

from __future__ import annotations

import multiprocessing
import signal
import sys
import time
from collections import OrderedDict
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from dataclasses import dataclass
from functools import partial
from threading import Lock
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer

__all__ = ["CompileEngine", "CompileOutcome", "CompileError"]


@dataclass
class CompileOutcome:
    """One candidate's compile result, failure included.

    ``status`` is ``"ok"``, ``"error"`` (raised through every retry),
    ``"timeout"`` (tripped the per-candidate timeout), or ``"quarantined"``
    (a key that already failed deterministically; never recompiled).
    ``attempts`` counts compile attempts actually made (0 for quarantine
    hits); ``seconds`` is the worker time spent on them.
    """

    status: str
    value: object = None
    error: str = ""
    attempts: int = 0
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class CompileError(RuntimeError):
    """A candidate failed to compile (legacy raising interface).

    Raised by ``compile_batch(..., outcomes=False)`` after the whole batch
    has been processed — the failure is quarantined and every counter
    updated, so nothing is lost besides this call's return value.
    Prefer ``outcomes=True`` to handle failures gracefully.
    """

    def __init__(self, outcome: CompileOutcome) -> None:
        super().__init__(f"compile {outcome.status}: {outcome.error}")
        self.outcome = outcome


def _attempt_invoke(
    fn: Callable, max_retries: int, backoff: float, submit_t: float, name: str, seq
) -> Tuple[str, object, str, int, float, float]:
    """Run ``fn(name, seq)`` with bounded retry-with-backoff, inside the
    worker (module-level so process pools can pickle it).

    Returns ``(status, value, error, attempts, seconds, queue_wait)`` —
    never raises, so one bad candidate cannot take its batch siblings down
    with it.  ``queue_wait`` is how long the item sat between batch submit
    (``submit_t``, the caller's ``perf_counter``) and its worker picking it
    up — on Linux ``perf_counter`` is ``CLOCK_MONOTONIC``, comparable
    across processes; clamped at zero elsewhere.
    """
    t0 = time.perf_counter()
    wait = max(0.0, t0 - submit_t)
    attempts = 0
    while True:
        attempts += 1
        try:
            out = fn(name, seq)
        except Exception as exc:  # noqa: BLE001 - fault boundary by design
            if attempts > max_retries:
                err = f"{type(exc).__name__}: {exc}"
                return ("error", None, err, attempts, time.perf_counter() - t0, wait)
            time.sleep(backoff * (2 ** (attempts - 1)))
            continue
        return ("ok", out, "", attempts, time.perf_counter() - t0, wait)


#: Process workers are forked on Linux: a forked worker inherits the
#: compile function, the program it closes over and any pass registered at
#: run time, and starts in milliseconds, where a spawned one re-imports the
#: package on every pool start.  A fork is safe while no other thread holds
#: a lock the compile needs: the package runs no threads besides its
#: compile pools, and a fork-context pool forks every worker before it
#: starts its own manager thread.  Elsewhere (where fork is unsafe or
#: missing) the platform's default start method is used.
_POOL_CONTEXT = (
    multiprocessing.get_context("fork") if sys.platform.startswith("linux") else None
)

#: Pool batches go out in about this many chunks per worker.
_CHUNKS_PER_WORKER = 4

#: The compile function of this process, when it is a pool worker.
_worker_fn: Optional[Callable] = None


def _install_worker(fn: Callable) -> None:
    """Process-pool initializer: keep ``fn`` for every later submit.

    The worker ignores SIGINT: Ctrl-C is the parent's to handle (a graceful
    stop, then ``KeyboardInterrupt`` on the second press), and the parent
    shuts its workers down when it closes the engine."""
    global _worker_fn
    _worker_fn = fn
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _flagged(fn: Callable, stats_only: bool) -> Callable:
    """``fn``, told to build no module when only statistics are wanted."""
    return partial(fn, stats_only=True) if stats_only else fn


def _pool_invoke(
    max_retries: int, backoff: float, submit_t: float, stats_only: bool, name: str, seq
) -> Tuple[str, object, str, int, float, float]:
    """:func:`_attempt_invoke` on the worker's installed compile function."""
    fn = _flagged(_worker_fn, stats_only)
    return _attempt_invoke(fn, max_retries, backoff, submit_t, name, seq)


def _resolve_executor(executor: str, jobs: int, timeout: Optional[float]) -> str:
    """The executor that actually serves compiles: ``"serial"``,
    ``"thread"`` or ``"process"``.

    One worker is a serial loop, unless a timeout needs a pool to enforce
    it: then a single worker thread serves the compiles.  ``"auto"`` at
    ``jobs>1`` is the process pool."""
    if executor == "serial" or jobs <= 1:
        return "serial" if timeout is None else "thread"
    return "process" if executor == "auto" else executor


class CompileEngine:
    """Batch compiler with within-batch dedup and a pluggable executor.

    Parameters
    ----------
    compile_fn:
        ``compile_fn(module_name, sequence) -> result``; must be pure
        (deterministic, no observable side effects) — dedup, the
        quarantine and the parallel executor all assume call order is
        irrelevant.
    jobs:
        worker count; ``1`` selects the deterministic serial path.
    executor:
        ``"auto"`` (serial at ``jobs=1``, a process pool otherwise),
        ``"serial"``, ``"thread"``, or ``"process"``.  The executor that
        actually serves compiles is :attr:`kind`.
    key_fn:
        maps ``(module_name, sequence)`` to the hashable dedup/quarantine key;
        defaults to ``(module_name, tuple(sequence))``.
    timeout:
        per-candidate compile timeout in seconds (``None`` disables).
        Enforcing a timeout requires a pool, so when set the serial path
        routes through a single worker thread; a candidate that trips it
        is quarantined (a deterministic hang would only hang again) and
        its worker is abandoned — the pool is replaced and still-queued
        siblings are rescued onto the fresh one, so a hung candidate
        cannot starve the rest of the batch into spurious timeouts.
    max_retries:
        extra compile attempts for a candidate whose compile *raised*
        (transient faults); a candidate still failing after the last retry
        is quarantined.  Timeouts are never retried.
    retry_backoff:
        base sleep between attempts, doubled each retry.
    metrics:
        the :class:`~repro.obs.metrics.MetricsRegistry` holding the
        engine's counters/histograms (``engine.*`` names); defaults to a
        private registry.  Sharing a task-wide registry here makes the
        engine's numbers land in the run's ``metrics.json``.
    tracer:
        the :class:`~repro.obs.trace.Tracer` receiving per-batch
        ``compile_batch`` spans; defaults to the disabled
        :data:`~repro.obs.trace.NULL_TRACER` (zero overhead).
    """

    def __init__(
        self,
        compile_fn: Callable[[str, Sequence[int]], object],
        jobs: int = 1,
        executor: str = "auto",
        key_fn: Optional[Callable[[str, Sequence[int]], Hashable]] = None,
        timeout: Optional[float] = None,
        max_retries: int = 2,
        retry_backoff: float = 0.01,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if executor not in ("auto", "serial", "thread", "process"):
            raise ValueError(f"unknown executor {executor!r}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive or None, got {timeout}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.compile_fn = compile_fn
        self.jobs = int(jobs)
        #: the resolved executor: ``"serial"``, ``"thread"`` or ``"process"``
        self.kind = _resolve_executor(executor, self.jobs, timeout)
        self.key_fn = key_fn or (lambda name, seq: (name, tuple(int(i) for i in seq)))
        self.timeout = timeout
        self.max_retries = int(max_retries)
        self.retry_backoff = float(retry_backoff)

        self._quarantine: Dict[Hashable, CompileOutcome] = {}
        self._lock = Lock()
        self._pool: Optional[Executor] = None

        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        m = self.metrics
        self._m_compiles = m.counter("engine.compiles")
        self._m_cpu = m.counter("engine.compile_cpu_seconds")
        self._m_wall = m.counter("engine.compile_wall_seconds")
        self._m_hits = m.counter("engine.cache_hits")
        self._m_misses = m.counter("engine.cache_misses")
        self._m_failures = m.counter("engine.compile_failures")
        self._m_timeouts = m.counter("engine.compile_timeouts")
        self._m_retries = m.counter("engine.compile_retries")
        self._m_qhits = m.counter("engine.quarantine_hits")
        self._m_qsize = m.gauge("engine.quarantine_size")
        self._m_compile_hist = m.histogram("engine.compile_seconds")
        self._m_batch_wall = m.histogram("engine.batch_wall_seconds")
        self._m_batch_size = m.histogram("engine.batch_size")
        self._m_queue_wait = m.histogram("engine.queue_wait_seconds")

    # -- legacy counter attributes (now registry-backed, read-only) ------------
    # Deprecated: these exist for back-compat with pre-observability callers;
    # prefer `engine.metrics` / `stats()`.
    @property
    def n_compiles(self) -> int:
        return int(self._m_compiles.value)

    @property
    def cpu_seconds(self) -> float:
        """Cumulative per-candidate compile time (sum over workers)."""
        return self._m_cpu.value

    @property
    def wall_seconds(self) -> float:
        """Wall clock spent inside engine calls."""
        return self._m_wall.value

    @property
    def hits(self) -> int:
        return int(self._m_hits.value)

    @property
    def misses(self) -> int:
        return int(self._m_misses.value)

    @property
    def n_failures(self) -> int:
        """Candidates that raised through every retry."""
        return int(self._m_failures.value)

    @property
    def n_timeouts(self) -> int:
        """Candidates that tripped the per-candidate timeout."""
        return int(self._m_timeouts.value)

    @property
    def n_retries(self) -> int:
        """Extra attempts beyond the first, across all candidates."""
        return int(self._m_retries.value)

    @property
    def quarantine_hits(self) -> int:
        """Requests served a stored failure without compiling."""
        return int(self._m_qhits.value)

    # -- executor plumbing ------------------------------------------------------
    def _get_pool(self) -> Executor:
        """The worker pool, started on first use."""
        if self._pool is None:
            if self.kind == "process":
                self._pool = ProcessPoolExecutor(
                    max_workers=self.jobs,
                    mp_context=_POOL_CONTEXT,
                    initializer=_install_worker,
                    initargs=(self.compile_fn,),
                )
            else:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.jobs, thread_name_prefix="compile-engine"
                )
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down (idempotent; engine stays usable —
        the pool is recreated on demand)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "CompileEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- dedup ------------------------------------------------------------------
    def hit_rate(self) -> float:
        """Fraction of requests served by within-batch dedup (0.0 when
        none yet)."""
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    # -- quarantine -------------------------------------------------------------
    def in_quarantine(self, module_name: str, seq: Sequence[int]) -> bool:
        """Whether this candidate's key holds a stored deterministic failure."""
        with self._lock:
            return self.key_fn(module_name, seq) in self._quarantine

    @property
    def quarantine_size(self) -> int:
        with self._lock:
            return len(self._quarantine)

    def quarantine_clear(self) -> None:
        with self._lock:
            self._quarantine.clear()

    def stats(self) -> Dict[str, float]:
        """Counters for ``timing_breakdown()`` / Fig 5.12 reporting.

        Reads from :attr:`metrics` (the
        :class:`~repro.obs.metrics.MetricsRegistry`); the dict keys are
        the historical ones, so Fig 5.12 tooling needs no changes."""
        with self._lock:
            qsize = len(self._quarantine)
        return {
            "n_compiles": self.n_compiles,
            "compile_cpu_seconds": self.cpu_seconds,
            "compile_wall_seconds": self.wall_seconds,
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "jobs": self.jobs,
            "executor": self.kind,
            "compile_failures": self.n_failures,
            "compile_timeouts": self.n_timeouts,
            "compile_retries": self.n_retries,
            "quarantine_size": qsize,
            "quarantine_hits": self.quarantine_hits,
        }

    # -- evaluation -------------------------------------------------------------------
    def compile_one(self, module_name: str, seq: Sequence[int], outcomes: bool = False):
        """Compile a single candidate (a batch of one)."""
        return self.compile_batch([(module_name, seq)], outcomes=outcomes)[0]

    def compile_batch(
        self,
        items: Sequence[Tuple[str, Sequence[int]]],
        outcomes: bool = False,
        stats_only: bool = False,
    ) -> List[object]:
        """Compile a batch of ``(module_name, sequence)`` candidates.

        Results come back in input order.  Duplicates within the batch and
        quarantined keys are served without compiling; the remaining unique
        keys run on the configured executor with retry, timeout and
        quarantine handling.

        With ``outcomes=True`` every slot is a :class:`CompileOutcome`
        (failures included) and nothing raises.  With ``outcomes=False``
        (legacy) slots are the raw compile results; if any candidate
        failed, :class:`CompileError` is raised — but only *after* the
        whole batch ran, so the failure is quarantined and all counters
        stay consistent.

        With ``stats_only=True`` every candidate compiles as
        ``compile_fn(name, seq, stats_only=True)``, whichever executor
        serves it (the compile function must accept the keyword).
        """
        t_wall = time.perf_counter()
        span = self.tracer.span("compile_batch", size=len(items))
        span.__enter__()
        results: List[Optional[CompileOutcome]] = [None] * len(items)
        # key -> result slots it must fill; insertion order == first-seen order
        pending: "OrderedDict[Hashable, List[int]]" = OrderedDict()
        work: List[Tuple[str, Sequence[int]]] = []
        b_hits = b_misses = b_qhits = 0  # this batch's deltas (span attrs)
        b_compiles = b_failures = b_timeouts = b_retries = 0
        b_cpu = b_wait = 0.0
        with self._lock:
            for i, (name, seq) in enumerate(items):
                key = self.key_fn(name, seq)
                if key in self._quarantine:
                    results[i] = self._quarantine[key]
                    b_qhits += 1
                elif key in pending:
                    pending[key].append(i)
                    b_hits += 1  # within-batch duplicate: compiled once
                else:
                    pending[key] = [i]
                    work.append((name, seq))
                    b_misses += 1
        self._m_hits.inc(b_hits)
        self._m_misses.inc(b_misses)
        self._m_qhits.inc(b_qhits)

        if work:
            attempt = (self.max_retries, self.retry_backoff, time.perf_counter())
            fn = _flagged(self.compile_fn, stats_only)
            if self.kind == "process":
                worker = partial(_pool_invoke, *attempt, stats_only)
            else:
                worker = partial(_attempt_invoke, fn, *attempt)
            if self.timeout is None:
                if self.kind == "serial" or len(work) == 1:
                    # one item: compiling it here beats a round trip
                    outs = [_attempt_invoke(fn, *attempt, n, s) for n, s in work]
                else:
                    # a few chunks per worker: one pickled round trip per
                    # item costs as much as the compile itself, while
                    # chunks too big to share out leave a worker idle
                    chunk = -(-len(work) // (_CHUNKS_PER_WORKER * self.jobs))
                    pool = self._get_pool()
                    outs = list(pool.map(worker, *zip(*work), chunksize=chunk))
            else:
                outs = self._run_with_timeout(worker, work)
            with self._lock:
                for (key, slots), (status, out, err, attempts, dt, wait) in zip(
                    pending.items(), outs
                ):
                    b_cpu += dt
                    b_wait += wait
                    b_retries += max(0, attempts - 1)
                    self._m_compile_hist.observe(dt)
                    self._m_queue_wait.observe(wait)
                    if status == "ok":
                        b_compiles += 1
                        outcome = CompileOutcome("ok", value=out, attempts=attempts, seconds=dt)
                    else:
                        if status == "timeout":
                            b_timeouts += 1
                        else:
                            b_failures += 1
                        outcome = CompileOutcome(status, error=err, attempts=attempts, seconds=dt)
                        # deterministic failure: compiling this key again
                        # would fail again — store the verdict instead
                        self._quarantine[key] = CompileOutcome(
                            "quarantined", error=err, attempts=0, seconds=0.0
                        )
                    for i in slots:
                        results[i] = outcome
                self._m_qsize.set(len(self._quarantine))
            self._m_cpu.inc(b_cpu)
            self._m_compiles.inc(b_compiles)
            self._m_failures.inc(b_failures)
            self._m_timeouts.inc(b_timeouts)
            self._m_retries.inc(b_retries)

        batch_wall = time.perf_counter() - t_wall
        self._m_wall.inc(batch_wall)
        self._m_batch_wall.observe(batch_wall)
        self._m_batch_size.observe(len(items))
        span.set(
            compiles=b_compiles,
            cache_hits=b_hits,
            cache_misses=b_misses,
            failures=b_failures,
            timeouts=b_timeouts,
            retries=b_retries,
            quarantine_hits=b_qhits,
            worker_seconds=b_cpu,
            queue_wait_seconds=b_wait,
        )
        span.__exit__(None, None, None)
        if outcomes:
            return results
        failed = next((o for o in results if not o.ok), None)
        if failed is not None:
            raise CompileError(failed)
        return [o.value for o in results]

    def compile_configs(
        self,
        configs: Sequence[Dict[str, Sequence[int]]],
        outcomes: bool = True,
    ) -> List[Dict[str, object]]:
        """Compile many per-module configurations in ONE batch dispatch.

        Flattens every ``{module_name: sequence}`` mapping into a single
        :meth:`compile_batch` call — duplicates across configurations are
        deduped by the batch's pending-key machinery and the whole
        population pays one pool dispatch — then regroups the results per
        configuration, preserving each config's key order."""
        flat: List[Tuple[str, Sequence[int]]] = []
        spans: List[Tuple[int, List[str]]] = []
        for cfg in configs:
            names = list(cfg.keys())
            spans.append((len(flat), names))
            flat.extend((name, cfg[name]) for name in names)
        flat_results = self.compile_batch(flat, outcomes=outcomes)
        grouped: List[Dict[str, object]] = []
        for start, names in spans:
            grouped.append(
                {name: flat_results[start + i] for i, name in enumerate(names)}
            )
        return grouped

    def _run_with_timeout(
        self, worker: Callable, work: List[Tuple[str, Sequence[int]]]
    ) -> List[Tuple[str, object, str, int, float, float]]:
        """Run work items as individual futures with a per-candidate timeout.

        The timeout clock for item *i* starts when the engine begins
        waiting on it (items are awaited in input order, so earlier waits
        already covered most of its queue time).  On a timeout the pool is
        replaced and still-queued futures are resubmitted to the fresh
        one — the abandoned worker finishes (or sleeps) in the background
        without blocking anyone, and its late result is discarded.
        """
        pool = self._get_pool()
        futs = [pool.submit(worker, n, s) for n, s in work]
        outs: List[Tuple[str, object, str, int, float, float]] = [None] * len(work)
        for i in range(len(work)):
            try:
                outs[i] = futs[i].result(timeout=self.timeout)
            except _FuturesTimeout:
                outs[i] = (
                    "timeout",
                    None,
                    f"compile timed out after {self.timeout:.4g}s",
                    1,
                    float(self.timeout),
                    0.0,
                )
                with self._lock:
                    old, self._pool = self._pool, None
                pool = self._get_pool()
                for j in range(i + 1, len(futs)):
                    if futs[j].cancel():
                        futs[j] = pool.submit(worker, work[j][0], work[j][1])
                if old is not None:
                    old.shutdown(wait=False)
        return outs
