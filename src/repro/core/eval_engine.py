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
* **walk first** — a compile function that grows a
  :class:`~repro.compiler.opt_tool.CompileGraph` can be paired with a
  ``walk`` function that answers a candidate from the graph alone.  Each
  unique key of a batch is walked in this process first; the graph
  already knows most candidates, so only the misses (candidates with a
  pass left to run) are compiled, and one compiled here continues from
  where its walk stopped;
* **in-line unless a timeout is set** — without a timeout the misses run
  in this process, in order, at any ``jobs``: on a 2-vCPU host a
  dispatch to a forked worker cost more than the pass work it moved, so
  no batch is split.  Enforcing a timeout needs a compile that can be
  killed, so with one set every miss runs on ``jobs`` forked process
  workers, split by passes left to run.  Workers are forked on the first
  timed batch, inherit the compile function, and each sits on one duplex
  pipe, streaming one result per item;
* **one compile graph** — the compile function's graph (the ``graph``
  argument) would otherwise grow one private copy per worker.  Each
  batch message carries the graph's journal: the edges and states the
  other processes added since that worker's last batch, and each worker
  answers with its own, which this process merges (pass counters
  included).  Every worker takes a message each batch, an empty share if
  need be, so no journal waits on an idle worker.  Every process then
  walks one logical graph;
* **stats-only compiles** — ``compile_batch(..., stats_only=True)``
  calls the compile function as ``compile_fn(name, seq,
  stats_only=True)``, in-line and in the workers alike: a compile
  function that can leave the module out of its result (the task's
  returns ``CompiledModule(None, stats)``) builds none, and a process
  worker pickles only the statistics back;
* **within-batch dedup** — candidates sharing a key (``(module_name,
  tuple(sequence))``) compile once per batch; the duplicates count as
  ``cache_hits``.  Nothing is kept across batches: a compiled
  module lives only as long as its caller holds it (repeated candidates
  across iterations are rare, and the task's verdict cache already spares
  their measurement);
* **honest timing** — cumulative per-candidate compile seconds
  (``compile_cpu_seconds``, summed across workers, walks included) versus
  wall-clock spent inside engine calls (``compile_wall_seconds``), plus
  hit/miss, walked and dispatched counters, so
  ``timing_breakdown()``/Fig 5.12 can report the parallel speedup rather
  than pretending the batch ran serially;
* **fault tolerance** — real phase orders crash compilers, hang them, and
  fail transiently.  Every candidate runs through a bounded
  retry-with-backoff loop, an optional per-candidate ``timeout``
  (enforced by killing the worker that overran), and a *quarantine*:
  keys that failed deterministically (crashed through every retry, or
  timed out) are never compiled again — later requests get their
  failure back instantly.  :meth:`compile_batch` returns a
  :class:`CompileOutcome` per candidate and never raises, so one failing
  worker can neither drop sibling results nor skew counters;
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
deltas.  :meth:`stats` reads them back in one dict.
"""

from __future__ import annotations

import gc
import multiprocessing
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

__all__ = ["CompileEngine", "CompileOutcome"]


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

    A message is ``(journals, stats_only, submit_t, items)``: the worker
    merges the pickled journals into its copy of ``graph``, compiles its
    share ``items`` in order through :func:`_attempt_invoke`, sending
    ``("item", out)`` as each item finishes (so the caller can time each
    one), and ends with ``("done", journal, counts)``: its own journal
    (pickled once, so the caller can pass it on as it is) and pass
    counters.

    The worker ignores SIGINT (Ctrl-C is the caller's to handle) and
    freezes the objects it inherited, so its collector does not copy
    every page it shares with the caller.  It exits on end-of-file."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    gc.freeze()
    for end in list(_PARENT_ENDS):
        end.close()
    try:
        while True:
            journals, stats_only, submit_t, items = conn.recv()
            for journal in journals:
                graph.merge(pickle.loads(journal))
            call = _flagged(fn, stats_only)
            for name, seq in items:
                out = _attempt_invoke(call, max_retries, backoff, submit_t, name, seq)
                conn.send(("item", out))
            entries, counts = graph.take_journal() if graph is not None else ([], None)
            journal = pickle.dumps(entries, pickle.HIGHEST_PROTOCOL) if entries else None
            conn.send(("done", journal, counts))
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
        the number of process workers forked to enforce a ``timeout``;
        without one, batches run in-line at any ``jobs``.  How batches
        run is :attr:`kind`.
    timeout:
        per-candidate compile timeout in seconds (``None`` disables).
        Enforcing a timeout needs a worker that can be killed, so when
        set every miss runs on ``jobs`` process workers, each streaming
        one result per item.  A candidate
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
    walk:
        ``walk(module_name, sequence, stats_only) -> (result, passes
        left, finish)``: answers a candidate from what this process's
        compile graph already knows, returning ``(result, 0, None)``, or
        ``(None, n, finish)`` with ``n`` the passes a compile would still
        have to run and ``finish(module_name, sequence)`` the compile
        function's result, continued from where the walk stopped.  Every
        unique key of a batch is walked here first; a miss compiled in
        this process goes through its ``finish`` (retries too), one sent
        to a worker through ``compile_fn``.  ``None`` (the default) walks
        nothing.
    """

    def __init__(
        self,
        compile_fn: Callable[[str, Sequence[int]], object],
        jobs: int = 1,
        timeout: Optional[float] = None,
        max_retries: int = 2,
        retry_backoff: float = 0.01,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        graph: Optional["CompileGraph"] = None,
        walk: Optional[Callable] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive or None, got {timeout}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.compile_fn = compile_fn
        self.jobs = int(jobs)
        self.timeout = timeout
        self.max_retries = int(max_retries)
        self.retry_backoff = float(retry_backoff)

        self.graph = graph
        self.walk = walk

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
        self._m_walked = m.counter("engine.walked")
        self._m_dispatched = m.counter("engine.dispatched")
        self._m_compile_hist = m.histogram("engine.compile_seconds")
        self._m_batch_wall = m.histogram("engine.batch_wall_seconds")
        self._m_batch_size = m.histogram("engine.batch_size")
        self._m_queue_wait = m.histogram("engine.queue_wait_seconds")

    @property
    def kind(self) -> str:
        """How batches run: ``"serial"`` (in-line, without a timeout) or
        ``"process"`` (on forked workers, under a timeout)."""
        return "serial" if self.timeout is None else "process"

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

    def _start_workers(self) -> None:
        """Queue this process's new journal entries for each process
        worker, and fork the missing workers (starting the journal)."""
        if self.graph is not None:
            entries, _ = self.graph.take_journal()
            if entries:
                self._forward(pickle.dumps(entries, pickle.HIGHEST_PROTOCOL), None)
        while len(self._workers) < self.jobs:
            self._workers.append(self._fork())

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
        """Shut the process workers down and stop the compile graph's
        journal (idempotent; the engine stays usable and forks them again
        on demand)."""
        with self._dispatch:
            workers, self._workers = self._workers, []
            for worker in workers:
                worker.conn.close()  # all exit at once
            for worker in workers:
                worker.stop()
            if self.graph is not None:
                self.graph.end_journal()

    def __enter__(self) -> "CompileEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def stats(self) -> Dict[str, float]:
        """The engine's counters, read from :attr:`metrics` (the
        :class:`~repro.obs.metrics.MetricsRegistry`): compiles, worker
        and wall seconds, dedup hits and misses, the failure, timeout,
        retry and quarantine counts, and the candidates answered by the
        walk (``walked``) and sent to a process worker (``dispatched``)."""
        with self._lock:
            qsize = len(self._quarantine)
        return {
            "n_compiles": int(self._m_compiles.value),
            "compile_cpu_seconds": self._m_cpu.value,
            "compile_wall_seconds": self._m_wall.value,
            "cache_hits": int(self._m_hits.value),
            "cache_misses": int(self._m_misses.value),
            "jobs": self.jobs,
            "executor": self.kind,
            "compile_failures": int(self._m_failures.value),
            "compile_timeouts": int(self._m_timeouts.value),
            "compile_retries": int(self._m_retries.value),
            "quarantine_size": qsize,
            "quarantine_hits": int(self._m_qhits.value),
            "walked": int(self._m_walked.value),
            "dispatched": int(self._m_dispatched.value),
        }

    # -- evaluation -------------------------------------------------------------------

    def compile_batch(
        self,
        items: Sequence[Tuple[str, Sequence[int]]],
        stats_only: bool = False,
    ) -> List[CompileOutcome]:
        """Compile a batch of ``(module_name, sequence)`` candidates.

        Returns one :class:`CompileOutcome` per item, in input order,
        failures included; nothing raises.  Duplicates within the batch
        and quarantined keys are served without compiling.  With a
        :attr:`walk`, each remaining unique key is walked in this process
        first, and a key the walk answers counts as a compile (its walk
        time is its compile time).  The misses run with retry, timeout
        and quarantine handling: in-line, or on the process workers when
        a timeout is set.

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
        b_walked = b_dispatched = 0
        b_cpu = b_wait = 0.0
        with self._lock:
            for i, (name, seq) in enumerate(items):
                key = (name, tuple(seq))
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
            outs: List[Optional[_Out]] = [None] * len(work)
            left = [len(seq) for _name, seq in work]
            fn = _flagged(self.compile_fn, stats_only)
            #: how this process compiles each key: a walked miss continues
            #: from where its walk stopped
            here = [fn] * len(work)
            if self.walk is not None:
                for k, (name, seq) in enumerate(work):
                    outs[k], left[k], finish = self._walk_one(name, seq, stats_only, attempt[2])
                    if finish is not None:
                        here[k] = finish
            misses = [k for k, out in enumerate(outs) if out is None]
            b_walked = len(work) - len(misses)
            if misses and self.timeout is None:
                for k in misses:
                    outs[k] = _attempt_invoke(here[k], *attempt, *work[k])
            elif misses:
                b_dispatched = len(misses)
                shares = _split(misses, left, self.jobs)
                with self._dispatch:
                    self._run_on_workers(attempt[2], stats_only, work, shares, outs)
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
            self._m_walked.inc(b_walked)
            self._m_dispatched.inc(b_dispatched)

        batch_wall = time.perf_counter() - t_wall
        self._m_wall.inc(batch_wall)
        self._m_batch_wall.observe(batch_wall)
        self._m_batch_size.observe(len(items))
        span.set(
            compiles=b_compiles,
            cache_hits=b_hits,
            cache_misses=b_misses,
            walked=b_walked,
            dispatched=b_dispatched,
            failures=b_failures,
            timeouts=b_timeouts,
            retries=b_retries,
            quarantine_hits=b_qhits,
            worker_seconds=b_cpu,
            queue_wait_seconds=b_wait,
        )
        span.__exit__(None, None, None)
        return results

    def _walk_one(
        self, name: str, seq: Sequence, stats_only: bool, submit_t: float
    ) -> Tuple[Optional[_Out], int, Optional[Callable]]:
        """Walk one candidate: its result if the walk answered it, the
        passes a compile would still run, and the call that finishes it
        here.  A walk that raises (an unknown pass, say) leaves the key
        to the compile function, which reports the failure."""
        t0 = time.perf_counter()
        try:
            value, left, finish = self.walk(name, seq, stats_only)
        except Exception:  # noqa: BLE001 - the compile reports it
            return None, len(seq), None
        if value is None:
            return None, left, finish
        return ("ok", value, "", 1, time.perf_counter() - t0, t0 - submit_t), 0, None

    def _run_on_workers(
        self, submit_t: float, stats_only: bool, work: List[Tuple[str, Sequence[int]]],
        shares: List[List[int]], outs: List[Optional[_Out]],
    ) -> None:
        """Compile the slots of ``work`` that ``shares`` names into
        ``outs``, on the process workers, one share each.

        Every worker takes its share, empty or not, with the journals
        queued for it, and streams one result per item; an item's clock
        starts when this process read the answer before it (or sent the
        batch).  A worker whose item overruns ``timeout``, with no
        answer waiting in its pipe, is killed and forked afresh from
        this process's graph, and its unfinished items go to the new
        worker.  A worker found dead when its share is sent (it died
        since the last batch) is forked afresh too, and the new one
        compiles the share; the items of a worker that dies while
        compiling come back as errors."""
        self._start_workers()
        #: each busy worker's unanswered slots, and when its current item began
        queues: Dict[_Worker, List[int]] = {}
        started: Dict[_Worker, float] = {}

        def dispatch(worker: _Worker, slots: List[int]) -> None:
            share = [work[i] for i in slots]
            try:
                worker.conn.send((worker.outbox, stats_only, submit_t, share))
            except OSError:  # the worker died since the last batch
                worker = self._replace(worker)
                worker.conn.send(([], stats_only, submit_t, share))
            worker.outbox = []
            queues[worker] = list(slots)
            started[worker] = time.perf_counter()

        try:
            for worker, slots in zip(list(self._workers), shares):
                dispatch(worker, slots)
            while queues:
                now = time.perf_counter()
                for worker, slots in list(queues.items()):
                    # an answer already waiting came in time, however long
                    # this process paused (a collection, say) before
                    # reading it
                    if (slots and now - started[worker] >= self.timeout
                            and not worker.conn.poll()):
                        outs[slots[0]] = (
                            "timeout", None, f"compile timed out after {self.timeout:.4g}s",
                            1, float(self.timeout), 0.0,
                        )
                        del queues[worker]
                        fresh = self._replace(worker, kill=True)
                        if slots[1:]:
                            dispatch(fresh, slots[1:])
                if not queues:  # the item that overran was the last
                    break
                deadlines = [started[w] + self.timeout for w, s in queues.items() if s]
                wait = max(0.0, min(deadlines) - time.perf_counter()) if deadlines else None
                by_conn = {w.conn: w for w in queues}
                for conn in _wait_any(list(by_conn), timeout=wait):
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
                    _, journal, counts = msg
                    del queues[worker]
                    self._absorb(worker, journal, counts)
        except BaseException:
            # an interrupted batch leaves unread answers in these pipes
            for worker in queues:
                self._retire(worker, kill=True)
            raise
        for share in shares:
            for i in share:
                if outs[i] is None:
                    outs[i] = _LOST


def _split(slots: List[int], weights: Sequence[float], n: int) -> List[List[int]]:
    """Split ``slots`` into ``n`` shares, heaviest first, each to the share
    with the least weight so far; each share in slot order."""
    shares: List[List[int]] = [[] for _ in range(n)]
    loads = [0.0] * n
    for k in sorted(slots, key=lambda k: -weights[k]):
        j = min(range(n), key=loads.__getitem__)
        shares[j].append(k)
        loads[j] += weights[k]
    return [sorted(share) for share in shares]
