"""Per-run artifact directory: manifest, trace events, metrics, result.

Every tune invoked with ``--trace-out DIR`` (or ``REPRO_TRACE=DIR``) gets
a directory::

    DIR/
      manifest.json    # config, seed, git revision, package version
      events.jsonl     # one JSON object per trace span / point event
      metrics.json     # MetricsRegistry snapshot (counters/gauges/p50-p99)
      result.json      # final TuningResult (measurements, timing, extras)

The manifest is written eagerly at construction so even a crashed run
leaves an identifiable corpse; it contains no wall-clock timestamp, so
two runs of the same config+seed produce byte-identical manifests (the
reproducibility contract the autotuning literature keeps relearning —
instrumented runs must be comparable run-over-run).

``events.jsonl`` is streamed: the recorder's :attr:`tracer` sinks every
finished span straight to the file, so a run killed mid-search still
yields a parseable prefix (each line is a complete JSON object).

Crash-safety contract (the durable-session layer rests on it): every
whole-file JSON artifact is written atomically — serialized to a
``*.tmp`` sibling, fsync'd, then :func:`os.replace`'d into place — so a
kill mid-write never leaves a torn ``manifest.json``/``metrics.json``/
``result.json`` (at worst a stale ``*.tmp``, which the analyzer treats
as recoverable).  ``events.jsonl`` is flushed per event and fsync'd
every :data:`EVENT_FSYNC_INTERVAL` events and at close.  Constructing
with ``resume=True`` (what ``repro tune --resume`` does) appends to the
existing event stream instead of truncating it, first terminating any
torn trailing line so the seam stays parseable, and preserves the
original manifest.

Resumed runs are **epoch-aware**: each process that writes into the run
directory is one *epoch*.  A resuming recorder emits a ``resume_epoch``
marker event into ``events.jsonl`` (consumers use it to re-anchor the
relative ``ts`` clock, which restarts per process) and folds the prior
process's ``metrics.json`` into the new snapshot — the top-level
counters/gauges/histograms stay this epoch's registry (back-compat),
while ``epoch``/``epochs``/``cumulative`` keys carry the per-epoch
history and the merged totals (see :meth:`RunRecorder.write_metrics`).

The recorder also accounts for its own cost: wall seconds spent
serialising events and artifacts accumulate in
:attr:`RunRecorder.overhead_seconds`, surface as the ``obs.overhead``
span in the event stream at close, and as the ``obs.overhead_seconds``
counter — the self-overhead guard (tests bound it per written event, and
the fsyncs per event) reads exactly these.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.obs.metrics import MetricsRegistry, merge_snapshots
from repro.obs.trace import Tracer

__all__ = [
    "EVENT_FSYNC_INTERVAL",
    "RunRecorder",
    "git_revision",
    "read_events",
    "tail_jsonl",
]

#: fsync ``events.jsonl`` every this many events (always flushed per event).
EVENT_FSYNC_INTERVAL = 32


def _atomic_write_json(path: Path, payload: object) -> None:
    """Serialize ``payload`` to ``path`` atomically (tmp + fsync + replace)."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as fh:
        fh.write(json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _load_json(path: Path) -> Dict[str, object]:
    """Load a JSON object artifact; ``{}`` when missing or unreadable.

    :func:`_atomic_write_json` writes atomically, so a ``*.tmp`` sibling
    next to a missing/corrupt artifact is a fully-serialized payload
    whose final rename never happened — use it rather than dropping
    data."""
    for candidate in (path, path.with_name(path.name + ".tmp")):
        try:
            with open(candidate) as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            continue
        if isinstance(data, dict):
            return data
    return {}


def _open_jsonl(path: Path, resume: bool):
    """Open a JSONL stream for writing: truncated when fresh; on resume,
    appended to, after newline-terminating a torn final line (a kill
    mid-write leaves at most one) so the records across the seam parse
    as one stream."""
    torn = False
    if resume:
        try:
            with open(path, "rb") as fh:
                fh.seek(-1, os.SEEK_END)
                torn = fh.read(1) != b"\n"
        except OSError:  # missing or empty: nothing to repair
            pass
    fh = open(path, "a" if resume else "w")
    if torn:
        fh.write("\n")
        fh.flush()
    return fh


def git_revision(cwd: Optional[str] = None) -> str:
    """The repo's HEAD revision, or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd or os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=5,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def _package_version() -> str:
    try:  # local import: repro/__init__ may still be mid-import at call time
        import repro

        return getattr(repro, "__version__", "unknown")
    except ImportError:  # pragma: no cover
        return "unknown"


_PLAIN_JSON = (str, int, bool, type(None))
_NON_FINITE = (float("inf"), float("-inf"))


def _jsonable(obj):
    """Best-effort JSON coercion for numpy scalars/arrays and dataclasses."""
    # the leaves nearly every event holds, before the slower checks
    if type(obj) in _PLAIN_JSON:
        return obj
    if type(obj) is float:
        # "inf"/"-inf"/"nan": valid JSON needs a string
        return repr(obj) if obj != obj or obj in _NON_FINITE else obj
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if hasattr(obj, "item") and callable(obj.item):  # numpy scalar
        try:
            return obj.item()
        except (TypeError, ValueError):
            pass
    if hasattr(obj, "tolist") and callable(obj.tolist):  # numpy array
        return obj.tolist()
    return obj


class RunRecorder:
    """Owns one run directory and the tracer/metrics feeding it.

    Parameters
    ----------
    out_dir:
        the run directory; created (parents included) if missing, and
        stale ``events.jsonl``/``metrics.json``/``result.json`` from a
        previous run in the same directory are truncated/overwritten.
    manifest:
        run identification written to ``manifest.json``; merged over the
        defaults (``version``, ``git_rev``) with caller keys winning.
    resume:
        continue an interrupted run in the same directory: the existing
        ``manifest.json`` is preserved (a missing one is written fresh),
        and ``events.jsonl`` is opened in append mode with any torn
        trailing line from the kill terminated so old and new events
        parse as one stream.
    registry:
        the :class:`MetricsRegistry` snapshotted into ``metrics.json``
        (on :meth:`write_metrics`, and automatically at :meth:`close` if
        not yet written).  ``None`` creates a private registry.
    keep:
        in-memory event retention of the attached tracer (for
        :func:`repro.reporting.span_table` after the run).
    """

    def __init__(
        self,
        out_dir: Union[str, Path],
        manifest: Optional[Dict[str, object]] = None,
        registry: Optional[MetricsRegistry] = None,
        keep: int = 100_000,
        resume: bool = False,
    ) -> None:
        self.path = Path(out_dir)
        self.path.mkdir(parents=True, exist_ok=True)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.resume = bool(resume)
        self._metrics_written = False
        self._closed = False
        self._events_since_fsync = 0
        #: wall seconds this recorder spent serialising events + artifacts
        self.overhead_seconds = 0.0

        # resume: fold the killed/stopped process's metrics snapshot into
        # the epoch history so cumulative counts survive the process swap.
        # (A SIGKILL'd run never wrote metrics.json — then there is simply
        # no snapshot to preserve, and the WAL remains the honest
        # progress record.)
        self._prior_epochs: List[Dict[str, object]] = []
        #: 1-based index of the process writing the run dir right now,
        #: one past the epoch every reader folds from the directory
        self.epoch = 1
        if resume:
            from repro.obs.stream import WatchState

            prior = _load_json(self.path / "metrics.json")
            if prior:
                kept = {
                    k: prior[k]
                    for k in ("counters", "gauges", "histograms")
                    if k in prior
                }
                self._prior_epochs = list(prior.get("epochs") or []) + [kept]
            seen = WatchState(path=self.path)
            seen.fold_events(read_events(self.path / "events.jsonl"))
            seen.fold_metrics(prior)
            self.epoch = seen.epoch + 1

        manifest_path = self.path / "manifest.json"
        if resume and manifest_path.exists():
            self.manifest = json.loads(manifest_path.read_text())
        else:
            base: Dict[str, object] = {
                "version": _package_version(),
                "git_rev": git_revision(),
            }
            base.update(manifest or {})
            self.manifest = base
            _atomic_write_json(manifest_path, base)

        self._events_file = _open_jsonl(self.path / "events.jsonl", resume)
        self.tracer = Tracer(sink=self.write_event, keep=keep)
        if resume:
            # seam marker: the relative `ts` clock restarts with this
            # process, so stream consumers (watch, the Chrome exporter)
            # re-anchor their epoch offset at this event
            self.write_event(
                {"type": "event", "name": "resume_epoch", "epoch": self.epoch}
            )

    def _sync_overhead_counter(self, reg: MetricsRegistry) -> None:
        """Bring ``obs.overhead_seconds`` up to the accumulated total."""
        counter = reg.counter("obs.overhead_seconds")
        delta = self.overhead_seconds - counter.value
        if delta > 0:
            counter.inc(delta)

    # -- streaming --------------------------------------------------------------
    def write_event(self, event: Dict[str, object]) -> None:
        """Append one event as a JSONL line (the tracer's sink).

        Flushed per event so a killed run loses no complete events;
        fsync'd every :data:`EVENT_FSYNC_INTERVAL` events to bound what a
        power loss can take without an fsync per span."""
        t0 = time.perf_counter()
        self._events_file.write(json.dumps(_jsonable(event), sort_keys=True) + "\n")
        self._events_file.flush()
        self._events_since_fsync += 1
        if self._events_since_fsync >= EVENT_FSYNC_INTERVAL:
            os.fsync(self._events_file.fileno())
            self._events_since_fsync = 0
        self.overhead_seconds += time.perf_counter() - t0

    def flush(self) -> None:
        self._events_file.flush()

    def open_wal(self) -> "WriteAheadLog":  # noqa: F821 (forward ref)
        """Open this run's write-ahead measurement log (``wal.jsonl``).

        Fresh recorders truncate any stale log; ``resume=True`` recorders
        append across the kill seam.  See :mod:`repro.core.wal`."""
        from repro.core.wal import WriteAheadLog

        return WriteAheadLog(self.path / "wal.jsonl", resume=self.resume)

    # -- artifacts --------------------------------------------------------------
    def write_metrics(self, registry: Optional[MetricsRegistry] = None) -> None:
        """Snapshot ``registry`` (default: the attached one) to metrics.json.

        The top level keeps this process's registry snapshot (so existing
        consumers see the shape they always did).  A resumed run
        additionally records ``epoch`` (1-based process index),
        ``epochs`` (the prior processes' snapshots, oldest first), and
        ``cumulative`` (the :func:`~repro.obs.metrics.merge_snapshots`
        totals across every epoch — true cumulative counts for runs that
        were stopped and resumed)."""
        t0 = time.perf_counter()
        reg = registry if registry is not None else self.registry
        self._sync_overhead_counter(reg)
        snap = reg.snapshot()
        if self.epoch > 1:
            current = {k: dict(v) for k, v in snap.items()}
            snap["epoch"] = self.epoch
            snap["epochs"] = self._prior_epochs
            snap["cumulative"] = merge_snapshots(self._prior_epochs + [current])
        _atomic_write_json(self.path / "metrics.json", snap)
        self._metrics_written = True
        self.overhead_seconds += time.perf_counter() - t0

    def write_result(self, result) -> None:
        """Write the final result (a TuningResult, dataclass, or dict)."""
        t0 = time.perf_counter()
        if hasattr(result, "to_dict"):
            payload = result.to_dict()
        else:
            payload = result
        _atomic_write_json(self.path / "result.json", payload)
        self.overhead_seconds += time.perf_counter() - t0

    # -- lifecycle --------------------------------------------------------------
    def close(self) -> None:
        """Flush, fsync and close the event stream (idempotent); writes
        the metrics snapshot if the caller never did.

        Emits the ``obs.overhead`` self-accounting span as the stream's
        final event: its ``wall`` is every second this recorder spent
        serialising, flushing, and fsyncing — the cost of observing the
        run, visible in the same span table as the run itself."""
        if self._closed:
            return
        self._closed = True
        self._sync_overhead_counter(self.registry)
        if not self._metrics_written:
            self.write_metrics()
        self.write_event(
            {
                "type": "span",
                "name": "obs.overhead",
                "ts": time.perf_counter() - self.tracer._epoch,
                "wall": self.overhead_seconds,
                "cpu": 0.0,
                "depth": 1,
                "parent": None,
                "thread": "recorder",
            }
        )
        self._events_file.flush()
        os.fsync(self._events_file.fileno())
        self._events_file.close()

    def __enter__(self) -> "RunRecorder":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def tail_jsonl(
    path: Union[str, Path], offset: int = 0
) -> Tuple[List[Dict[str, object]], int, int, bool]:
    """Incrementally read complete JSONL records starting at byte ``offset``.

    Returns ``(records, new_offset, n_malformed, torn)``.  This is the one
    JSONL line reader; the contract that makes it safe to poll against a
    *live* writer:

    * only newline-**terminated** lines are consumed — a torn trailing
      line (the writer flushed mid-record, or the process died there) is
      left unconsumed, so ``new_offset`` points at its first byte, ``torn``
      is true, and the next call re-reads it once the writer completes it;
    * newline-terminated lines that still fail to parse are permanently
      malformed (e.g. the pre-kill tail a resuming writer newline-
      terminated): they are skipped, counted in ``n_malformed``, and the
      offset moves past them;
    * a missing file reads as ``([], offset, 0, False)`` — the watcher may
      start polling before the run's first event.

    Byte offsets (not line numbers) are the resume token: they stay valid
    across process restarts and never require re-reading the prefix.
    """
    records: List[Dict[str, object]] = []
    pos = int(offset)
    malformed = 0
    torn = False
    try:
        fh = open(Path(path), "rb")
    except OSError:
        return records, pos, malformed, torn
    with fh:
        fh.seek(pos)
        for raw in fh:
            if not raw.endswith(b"\n"):
                torn = True  # leave unconsumed for the next poll
                break
            pos += len(raw)
            line = raw.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line.decode("utf-8", "replace")))
            except json.JSONDecodeError:
                malformed += 1
    return records, pos, malformed, torn


def read_events(path: Union[str, Path]) -> List[Dict[str, object]]:
    """Parse an ``events.jsonl`` back into a list of event dicts.

    The complete lines of the file, read by :func:`tail_jsonl`: a run
    killed mid-write still loads (its malformed lines and torn tail are
    skipped), and a missing file reads as no events."""
    return tail_jsonl(path)[0]
