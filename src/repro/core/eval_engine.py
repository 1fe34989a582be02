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
  (no pool, no threads); ``jobs>1`` fans out over a thread pool by
  default, or a process pool when ``executor="process"`` and the compile
  function is picklable;
* **compilation cache** — a bounded LRU keyed by ``(module_name,
  decoded-sequence)`` so repeated candidates from DES/GA never recompile
  (distinct from statistics-signature dedup, which collapses *different*
  sequences producing identical binaries);
* **honest timing** — cumulative per-candidate compile seconds
  (``cpu_seconds``, summed across workers) versus wall-clock spent inside
  engine calls (``wall_seconds``), plus hit/miss/eviction counters, so
  ``timing_breakdown()``/Fig 5.12 can report the parallel speedup and the
  cache's contribution rather than pretending the batch ran serially;
* **fault tolerance** — real phase orders crash compilers, hang them, and
  fail transiently.  Every candidate runs through a bounded
  retry-with-backoff loop, an optional per-candidate ``timeout``, and a
  *quarantine*: keys that failed deterministically (crashed through every
  retry, or timed out) are never compiled again — later requests get
  their failure back instantly.  ``compile_batch(..., outcomes=True)``
  returns a :class:`CompileOutcome` per candidate instead of raising, so
  one failing worker can neither drop sibling results nor skew counters;
  failure/timeout/retry/quarantine counts flow into :meth:`stats`.

All counters, the cache and the quarantine are guarded by one lock; the
engine is safe to call from concurrent client threads (compiling the same
key twice in a race is harmless — the compile function is pure — and
counters stay consistent).

Observability: the counters live in a
:class:`~repro.obs.metrics.MetricsRegistry` (``engine.*`` names, including
streaming histograms of per-candidate compile seconds, per-batch wall
time, and queue wait), and every :meth:`compile_batch` runs inside a
``compile_batch`` span on the engine's
:class:`~repro.obs.trace.Tracer` carrying that batch's cache/fault
deltas.  The legacy attribute counters (``engine.hits``,
``engine.n_compiles``, ...) are retained as read-only properties over the
registry — prefer ``engine.metrics``/:meth:`stats` in new code.
"""

from __future__ import annotations

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
    ``attempts`` counts compile attempts actually made (0 for cache and
    quarantine hits); ``seconds`` is the worker time spent on them.
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
    has been processed — sibling results are already cached and every
    counter updated, so nothing is lost besides this call's return value.
    Prefer ``outcomes=True`` to handle failures gracefully.
    """

    def __init__(self, outcome: CompileOutcome) -> None:
        super().__init__(f"compile {outcome.status}: {outcome.error}")
        self.outcome = outcome


def _timed_invoke(fn: Callable, name: str, seq) -> Tuple[object, float]:
    """Run ``fn(name, seq)`` and time it *inside the worker*, so the sum
    over workers is the cumulative compute the batch really consumed
    (module-level so process pools can pickle it)."""
    t0 = time.perf_counter()
    out = fn(name, seq)
    return out, time.perf_counter() - t0


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


class CompileEngine:
    """Batch compiler with a bounded LRU cache and a pluggable executor.

    Parameters
    ----------
    compile_fn:
        ``compile_fn(module_name, sequence) -> result``; must be pure
        (deterministic, no observable side effects) — the cache and the
        parallel executor both assume call order is irrelevant.
    jobs:
        worker count; ``1`` selects the deterministic serial path.
    cache_size:
        maximum cached results (``0`` disables caching).
    executor:
        ``"auto"`` (serial at ``jobs=1``, threads otherwise), ``"serial"``,
        ``"thread"``, or ``"process"``.
    key_fn:
        maps ``(module_name, sequence)`` to the hashable cache key;
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
        cache_size: int = 2048,
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
        self.cache_size = int(cache_size)
        self.executor = executor
        self.key_fn = key_fn or (lambda name, seq: (name, tuple(int(i) for i in seq)))
        self.timeout = timeout
        self.max_retries = int(max_retries)
        self.retry_backoff = float(retry_backoff)

        self._cache: "OrderedDict[Hashable, object]" = OrderedDict()
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
        self._m_evictions = m.counter("engine.cache_evictions")
        self._m_failures = m.counter("engine.compile_failures")
        self._m_timeouts = m.counter("engine.compile_timeouts")
        self._m_retries = m.counter("engine.compile_retries")
        self._m_qhits = m.counter("engine.quarantine_hits")
        self._m_qsize = m.gauge("engine.quarantine_size")
        self._m_cache_len = m.gauge("engine.cache_size")
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
    def evictions(self) -> int:
        return int(self._m_evictions.value)

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
    def _serial(self) -> bool:
        return self.executor == "serial" or self.jobs <= 1

    def _get_pool(self) -> Executor:
        if self._pool is None:
            if self.executor == "process":
                self._pool = ProcessPoolExecutor(max_workers=self.jobs)
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

    def __getstate__(self):  # allow pickling compile_fn closures over us (process mode)
        state = self.__dict__.copy()
        state["_lock"] = None
        state["_pool"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = Lock()
        self._pool = None

    # -- cache ----------------------------------------------------------------------
    def _cache_put(self, key: Hashable, value: object) -> None:
        if self.cache_size <= 0:
            return
        self._cache[key] = value
        self._cache.move_to_end(key)
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)
            self._m_evictions.inc()
        self._m_cache_len.set(len(self._cache))

    def cache_clear(self) -> None:
        with self._lock:
            self._cache.clear()

    def cache_info(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._cache),
                "maxsize": self.cache_size,
            }

    def hit_rate(self) -> float:
        """Fraction of requests served from cache (0.0 when none yet)."""
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
            "cache_evictions": self.evictions,
            "jobs": self.jobs,
            "compile_failures": self.n_failures,
            "compile_timeouts": self.n_timeouts,
            "compile_retries": self.n_retries,
            "quarantine_size": qsize,
            "quarantine_hits": self.quarantine_hits,
        }

    # -- evaluation -------------------------------------------------------------------
    def compile_one(self, module_name: str, seq: Sequence[int], outcomes: bool = False):
        """Compile a single candidate (through the cache)."""
        return self.compile_batch([(module_name, seq)], outcomes=outcomes)[0]

    def compile_batch(
        self, items: Sequence[Tuple[str, Sequence[int]]], outcomes: bool = False
    ) -> List[object]:
        """Compile a batch of ``(module_name, sequence)`` candidates.

        Results come back in input order.  Cache hits (including duplicates
        *within* the batch) are served without recompiling; the remaining
        unique misses run on the configured executor with retry, timeout
        and quarantine handling.

        With ``outcomes=True`` every slot is a :class:`CompileOutcome`
        (failures included) and nothing raises.  With ``outcomes=False``
        (legacy) slots are the raw compile results; if any candidate
        failed, :class:`CompileError` is raised — but only *after* the
        whole batch ran, so sibling results are cached and all counters
        stay consistent.
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
                if key in self._cache:
                    self._cache.move_to_end(key)
                    results[i] = CompileOutcome("ok", value=self._cache[key])
                    b_hits += 1
                elif key in self._quarantine:
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
            worker = partial(
                _attempt_invoke,
                self.compile_fn,
                self.max_retries,
                self.retry_backoff,
                time.perf_counter(),
            )
            if self.timeout is None:
                if self._serial() or len(work) == 1:
                    outs = [worker(n, s) for n, s in work]
                else:
                    pool = self._get_pool()
                    outs = list(pool.map(worker, *zip(*work)))
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
                        self._cache_put(key, out)
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
