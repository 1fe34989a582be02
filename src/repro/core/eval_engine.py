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
* **two ways to run a batch** — in-line, or on forked process workers.
  ``jobs=1`` without a timeout is a deterministic serial loop in this
  process (no workers); ``jobs>1`` shares each batch between this
  process and ``jobs-1`` forked workers.  Workers are forked lazily, on
  the first batch with two or more items to compile (any batch, under a
  timeout), and inherit the compile function; each sits on one duplex
  pipe.  Each batch is split round-robin, and the caller compiles the
  first share in-line while the workers compile theirs;
* **one compile graph** — a compile function that grows a
  :class:`~repro.compiler.opt_tool.CompileGraph` (the ``graph``
  argument) would otherwise grow one private copy per process.  Each
  batch message carries the graph's journal: the edges and states the
  other processes added since that worker's last batch, and each worker
  answers with its own, which this process merges (pass counters
  included).  Every process then walks one logical graph;
* **stats-only compiles** — ``compile_batch(..., stats_only=True)``
  calls the compile function as ``compile_fn(name, seq,
  stats_only=True)``, in-line and in the workers alike: a compile
  function that can leave the module out of its result (the task's
  returns ``CompiledModule(None, stats)``) builds none, and a process
  worker pickles only the statistics back;
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
  retry-with-backoff loop, an optional per-candidate ``timeout``
  (enforced by killing the worker that overran), and a *quarantine*:
  keys that failed deterministically (crashed through every retry, or
  timed out) are never compiled again — later requests get their
  failure back instantly.  ``compile_batch(..., outcomes=True)``
  returns a :class:`CompileOutcome` per candidate instead of raising, so
  one failing worker can neither drop sibling results nor skew counters;
  failure/timeout/retry/quarantine counts flow into :meth:`stats`.

All counters and the quarantine are guarded by one lock; the engine is
safe to call from concurrent client threads (compiling the same key twice
in a race is harmless — the compile function is pure — and counters stay
consistent; batches take turns on the process workers).

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

import gc
import multiprocessing
import os
import pickle
import signal
import sys
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from functools import partial
from multiprocessing.connection import Connection, wait as _wait_any
from threading import Lock
from typing import TYPE_CHECKING, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer

if TYPE_CHECKING:
    from repro.compiler.opt_tool import CompileGraph

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
    """Run ``fn(name, seq)`` with bounded retry-with-backoff, in whichever
    process or thread compiles the item.

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
#: compile function, the program it closes over, the compile graph as it
#: stands and any pass registered at run time, and starts in
#: milliseconds, where a spawned one re-imports the package.  A fork is
#: safe while no other thread holds a lock the compile needs: the package
#: starts no threads, and the compile graph re-arms its lock in the
#: child.  Elsewhere (where fork is unsafe or missing) the platform's
#: default start method is used, and the compile function must pickle.
_POOL_CONTEXT = (
    multiprocessing.get_context("fork") if sys.platform.startswith("linux") else None
)

#: This process's ends of every worker pipe.  A forked worker closes the
#: copies it inherits, so each worker sees end-of-file as soon as the
#: process that forked it closes its end or dies.
_PARENT_ENDS: "weakref.WeakSet[Connection]" = weakref.WeakSet()

_Out = Tuple[str, object, str, int, float, float]


def _flagged(fn: Callable, stats_only: bool) -> Callable:
    """``fn``, told to build no module when only statistics are wanted."""
    return partial(fn, stats_only=True) if stats_only else fn


def _serve(
    conn: Connection,
    fn: Callable,
    graph: Optional["CompileGraph"],
    max_retries: int,
    backoff: float,
) -> None:
    """A process worker's loop: one batch message in, its results out.

    A message is ``(journals, stats_only, stream, submit_t, items)``: the
    worker merges the pickled journals into its copy of ``graph``,
    compiles its share ``items`` in order through :func:`_attempt_invoke`
    and answers ``("done", outs, journal, counts)`` with its own journal
    (pickled once, so the caller can pass it on as it is) and pass
    counters.  With ``stream`` set it sends ``("item", out)`` as each
    item finishes instead, so the caller can time each one, and ``outs``
    is empty.

    The worker ignores SIGINT (Ctrl-C is the caller's to handle) and
    freezes the objects it inherited, so its collector does not copy
    every page it shares with the caller.  It exits on end-of-file."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    gc.freeze()
    for end in list(_PARENT_ENDS):
        end.close()
    try:
        while True:
            journals, stats_only, stream, submit_t, items = conn.recv()
            for journal in journals:
                graph.merge(pickle.loads(journal))
            call = _flagged(fn, stats_only)
            outs = []
            for name, seq in items:
                out = _attempt_invoke(call, max_retries, backoff, submit_t, name, seq)
                if stream:
                    conn.send(("item", out))
                else:
                    outs.append(out)
            entries, counts = graph.take_journal() if graph is not None else ([], None)
            journal = pickle.dumps(entries, pickle.HIGHEST_PROTOCOL) if entries else None
            conn.send(("done", outs, journal, counts))
    except (EOFError, OSError):
        return  # the caller closed the pipe, or died


class _Worker:
    """A forked compile worker: its process, this process's end of its
    pipe, and the pickled journals of the other processes it has yet to
    receive."""

    __slots__ = ("process", "conn", "outbox")

    def __init__(self, process, conn: Connection) -> None:
        self.process = process
        self.conn = conn
        self.outbox: List[bytes] = []

    def stop(self, kill: bool = False) -> None:
        """Close the pipe (the worker exits on end-of-file) and reap the
        worker; ``kill`` it first when it may be busy."""
        if kill:
            self.process.kill()
        self.conn.close()
        self.process.join(timeout=5)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()


#: The result of an item whose worker died before answering.
_LOST: _Out = ("error", None, "compile worker exited before answering", 1, 0.0, 0.0)


class CompileEngine:
    """Batch compiler with within-batch dedup, run in-line or on forked
    process workers.

    Parameters
    ----------
    compile_fn:
        ``compile_fn(module_name, sequence) -> result``; must be pure
        (deterministic, no observable side effects) — dedup, the
        quarantine and the process workers all assume call order is
        irrelevant.
    jobs:
        process count; ``1`` without a timeout selects the deterministic
        serial path.  It counts this process: ``jobs-1`` workers are
        forked (``jobs`` with a timeout set, as this process then
        compiles nothing in-line).  How batches run is :attr:`kind`.
    key_fn:
        maps ``(module_name, sequence)`` to the hashable dedup/quarantine key;
        defaults to ``(module_name, tuple(sequence))``.
    timeout:
        per-candidate compile timeout in seconds (``None`` disables).
        Enforcing a timeout needs a worker that can be killed, so when
        set every batch runs on ``jobs`` process workers (one at
        ``jobs=1``), each streaming one result per item.  A candidate
        that trips it is quarantined (a deterministic hang would only
        hang again), and its worker is killed and forked afresh, and its
        unfinished items are sent to the new worker, so a hung candidate
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
    graph:
        the :class:`~repro.compiler.opt_tool.CompileGraph` the compile
        function grows, kept as one logical graph across process workers
        (see the module docstring); unused by the serial path.
    """

    def __init__(
        self,
        compile_fn: Callable[[str, Sequence[int]], object],
        jobs: int = 1,
        key_fn: Optional[Callable[[str, Sequence[int]], Hashable]] = None,
        timeout: Optional[float] = None,
        max_retries: int = 2,
        retry_backoff: float = 0.01,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        graph: Optional["CompileGraph"] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive or None, got {timeout}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.compile_fn = compile_fn
        self.jobs = int(jobs)
        self.key_fn = key_fn or (lambda name, seq: (name, tuple(int(i) for i in seq)))
        self.timeout = timeout
        self.max_retries = int(max_retries)
        self.retry_backoff = float(retry_backoff)

        self.graph = graph

        self._quarantine: Dict[Hashable, CompileOutcome] = {}
        self._lock = Lock()
        #: the process workers (``kind == "process"``), forked on first use;
        #: batches take turns on them
        self._workers: List[_Worker] = []
        self._dispatch = Lock()

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

    @property
    def kind(self) -> str:
        """How batches run: ``"serial"`` (in-line, at ``jobs=1`` without
        a timeout) or ``"process"`` (on forked workers)."""
        return "serial" if self.jobs == 1 and self.timeout is None else "process"

    # -- process workers --------------------------------------------------------
    def _fork(self) -> _Worker:
        """A new process worker, forked from this process as it stands
        (its compile graph included)."""
        ctx = _POOL_CONTEXT or multiprocessing.get_context()
        ours, theirs = ctx.Pipe()
        _PARENT_ENDS.add(ours)
        process = ctx.Process(
            target=_serve,
            args=(theirs, self.compile_fn, self.graph, self.max_retries, self.retry_backoff),
            name="compile-engine",
            daemon=True,
        )
        process.start()
        theirs.close()
        return _Worker(process, ours)

    def _start_workers(self) -> List[_Worker]:
        """The process workers, forked if missing, with this process's
        new journal entries queued for each."""
        self._forward_own()
        wanted = self.jobs if self.timeout is not None else self.jobs - 1
        while len(self._workers) < wanted:
            self._workers.append(self._fork())
        return list(self._workers)

    def _forward_own(self) -> None:
        """Queue this process's new journal entries for every worker."""
        if self.graph is not None:
            entries, _ = self.graph.take_journal()
            if entries:
                self._forward(pickle.dumps(entries, pickle.HIGHEST_PROTOCOL), None)

    def _forward(self, journal: bytes, source: Optional[_Worker]) -> None:
        """Queue a pickled journal for every worker but ``source``."""
        for worker in self._workers:
            if worker is not source:
                worker.outbox.append(journal)

    def _absorb(self, worker: _Worker, journal: Optional[bytes], counts) -> None:
        """Merge a worker's journal and pass counters here, and queue the
        journal for the other workers."""
        if self.graph is not None:
            self.graph.merge(pickle.loads(journal) if journal else [], counts)
            if journal:
                self._forward(journal, worker)

    def _retire(self, worker: _Worker, kill: bool = False) -> None:
        """Stop a worker and forget it (the next batch forks a new one)."""
        self._workers.remove(worker)
        worker.stop(kill=kill)

    def _replace(self, worker: _Worker, kill: bool = False) -> _Worker:
        """Stop a worker and fork its successor in its place.  The
        successor starts from this process's graph, which holds every
        journal queued for the old worker, so its outbox is empty."""
        slot = self._workers.index(worker)
        worker.stop(kill=kill)
        fresh = self._workers[slot] = self._fork()
        return fresh

    def close(self) -> None:
        """Shut the process workers down (idempotent; the engine stays
        usable and forks them again on demand)."""
        with self._dispatch:
            workers, self._workers = self._workers, []
            for worker in workers:
                worker.conn.close()  # all exit at once
            for worker in workers:
                worker.stop()

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
        keys run in-line or on the process workers (see :attr:`kind`) with
        retry, timeout and quarantine handling.

        With ``outcomes=True`` every slot is a :class:`CompileOutcome`
        (failures included) and nothing raises.  With ``outcomes=False``
        (legacy) slots are the raw compile results; if any candidate
        failed, :class:`CompileError` is raised — but only *after* the
        whole batch ran, so the failure is quarantined and all counters
        stay consistent.

        With ``stats_only=True`` every candidate compiles as
        ``compile_fn(name, seq, stats_only=True)``, in whichever process
        it compiles (the compile function must accept the keyword).
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
            if self.kind == "process" and (len(work) > 1 or self.timeout is not None):
                with self._dispatch:
                    outs = self._run_on_workers(fn, attempt, stats_only, work)
            else:
                # serial, or one item without a timeout: compiling it here
                # beats a round trip
                outs = [_attempt_invoke(fn, *attempt, n, s) for n, s in work]
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

    def _run_on_workers(
        self, fn: Callable, attempt: Tuple[int, float, float], stats_only: bool,
        work: List[Tuple[str, Sequence[int]]],
    ) -> List[_Out]:
        """Compile ``work`` on the process workers, split round-robin.

        Without a timeout this process takes the first share and compiles
        it in-line while the workers compile theirs, then merges their
        journals as their answers arrive.  With one, this process
        compiles nothing, the workers stream one result per item, and an
        item's clock starts when this process read the answer before it
        (or sent the batch); a worker whose item overruns, with no answer
        waiting in its pipe, is killed and forked afresh from this
        process's graph, and its unfinished items go to the new worker.
        A worker found dead when its share is sent
        (it died since the last batch) is forked afresh too, and the new
        one compiles the share; the items of a worker that dies while
        compiling come back as errors."""
        submit_t = attempt[2]
        stream = self.timeout is not None
        workers = self._start_workers()
        shares = len(workers) + (not stream)
        outs: List[Optional[_Out]] = [None] * len(work)
        #: each busy worker's unanswered slots, and when its current item began
        queues: Dict[_Worker, List[int]] = {}
        started: Dict[_Worker, float] = {}

        def dispatch(worker: _Worker, slots: List[int]) -> None:
            share = [work[i] for i in slots]
            try:
                worker.conn.send((worker.outbox, stats_only, stream, submit_t, share))
            except OSError:  # the worker died since the last batch
                worker = self._replace(worker)
                worker.conn.send(([], stats_only, stream, submit_t, share))
            worker.outbox = []
            queues[worker] = slots
            started[worker] = time.perf_counter()

        try:
            for k, worker in enumerate(workers, start=shares - len(workers)):
                if k < len(work):
                    dispatch(worker, list(range(k, len(work), shares)))
            if not stream:
                for i in range(0, len(work), shares):
                    outs[i] = _attempt_invoke(fn, *attempt, *work[i])
            while queues:
                if stream:
                    now = time.perf_counter()
                    for worker, slots in list(queues.items()):
                        # an answer already waiting came in time, however
                        # long this process paused (a collection, say)
                        # before reading it
                        if (slots and now - started[worker] >= self.timeout
                                and not worker.conn.poll()):
                            outs[slots[0]] = (
                                "timeout", None,
                                f"compile timed out after {self.timeout:.4g}s",
                                1, float(self.timeout), 0.0,
                            )
                            del queues[worker]
                            fresh = self._replace(worker, kill=True)
                            if slots[1:]:
                                dispatch(fresh, slots[1:])
                    if not queues:  # the item that overran was the last
                        break
                    deadlines = [started[w] + self.timeout for w, s in queues.items() if s]
                    left = max(0.0, min(deadlines) - time.perf_counter()) if deadlines else None
                else:
                    left = None
                by_conn = {w.conn: w for w in queues}
                for conn in _wait_any(list(by_conn), timeout=left):
                    worker = by_conn[conn]
                    try:
                        msg = conn.recv()
                    except (EOFError, OSError):
                        self._retire(worker)
                        queues.pop(worker)  # its items stay lost
                        continue
                    if msg[0] == "item":
                        outs[queues[worker].pop(0)] = msg[1]
                        started[worker] = time.perf_counter()
                        continue
                    _, done, journal, counts = msg
                    for i, out in zip(queues.pop(worker), done):
                        outs[i] = out
                    self._absorb(worker, journal, counts)
        except BaseException:
            # an interrupted batch leaves unread answers in these pipes
            for worker in queues:
                self._retire(worker, kill=True)
            raise
        return [_LOST if out is None else out for out in outs]
