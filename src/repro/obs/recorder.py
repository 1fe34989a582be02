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
    "count_malformed_lines",
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
        # no epoch-1 snapshot to preserve, and the WAL remains the honest
        # progress record.)
        self._prior_epochs: List[Dict[str, object]] = []
        #: processes that wrote this run dir before us (0 on a fresh run);
        #: counted from durable evidence, not metrics snapshots, so a
        #: SIGKILL'd first epoch still advances the epoch index
        self._prior_processes = 0
        if resume:
            prior = self._load_prior_metrics()
            if prior:
                kept = {
                    k: prior[k]
                    for k in ("counters", "gauges", "histograms")
                    if k in prior
                }
                self._prior_epochs = list(prior.get("epochs") or []) + [kept]
            self._prior_processes = 1 + self._count_resume_markers()

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

        events_path = self.path / "events.jsonl"
        # a resumed run appends; a kill mid-write leaves at most one torn
        # trailing line, which gets its newline here so the seam parses
        needs_newline = False
        if resume and events_path.exists() and events_path.stat().st_size > 0:
            with open(events_path, "rb") as fh:
                fh.seek(-1, os.SEEK_END)
                needs_newline = fh.read(1) != b"\n"
        self._events_file = open(events_path, "a" if resume else "w")
        if needs_newline:
            self._events_file.write("\n")
            self._events_file.flush()
        self.tracer = Tracer(sink=self.write_event, keep=keep)
        if resume:
            # seam marker: the relative `ts` clock restarts with this
            # process, so stream consumers (watch, the Chrome exporter)
            # re-anchor their epoch offset at this event
            self.write_event(
                {"type": "event", "name": "resume_epoch", "epoch": self.epoch}
            )

    def _load_prior_metrics(self) -> Dict[str, object]:
        try:
            with open(self.path / "metrics.json") as fh:
                prior = json.load(fh)
            return prior if isinstance(prior, dict) else {}
        except (OSError, json.JSONDecodeError):
            return {}

    def _count_resume_markers(self) -> int:
        """Prior ``resume_epoch`` seam markers in the existing event log."""
        markers = 0
        try:
            with open(self.path / "events.jsonl", "rb") as fh:
                for raw in fh:
                    if b'"resume_epoch"' in raw:
                        markers += 1
        except OSError:
            pass
        return markers

    @property
    def epoch(self) -> int:
        """1-based index of the process writing the run dir right now.

        A graceful predecessor leaves a metrics snapshot per epoch; a
        SIGKILL'd one leaves only its seam-marker trail — both count."""
        return max(len(self._prior_epochs), self._prior_processes) + 1

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
        if self._prior_epochs or self.epoch > 1:
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
) -> Tuple[List[Dict[str, object]], int, int]:
    """Incrementally read complete JSONL records starting at byte ``offset``.

    Returns ``(records, new_offset, n_malformed)``.  The contract that
    makes this safe to poll against a *live* writer:

    * only newline-**terminated** lines are consumed — a torn trailing
      line (the writer flushed mid-record, or the process died there) is
      left unconsumed, so ``new_offset`` points at its first byte and the
      next call re-reads it once the writer completes it;
    * newline-terminated lines that still fail to parse are permanently
      malformed (e.g. the pre-kill tail a resuming writer newline-
      terminated): they are skipped, counted in ``n_malformed``, and the
      offset moves past them;
    * a missing file reads as ``([], offset, 0)`` — the watcher may start
      polling before the run's first event.

    Byte offsets (not line numbers) are the resume token: they stay valid
    across process restarts and never require re-reading the prefix.
    """
    p = Path(path)
    records: List[Dict[str, object]] = []
    malformed = 0
    try:
        fh = open(p, "rb")
    except OSError:
        return records, int(offset), malformed
    with fh:
        fh.seek(int(offset))
        pos = int(offset)
        for raw in fh:
            if not raw.endswith(b"\n"):
                break  # torn tail: leave unconsumed for the next poll
            pos += len(raw)
            line = raw.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line.decode("utf-8", "replace")))
            except json.JSONDecodeError:
                malformed += 1
    return records, pos, malformed


def read_events(
    path: Union[str, Path],
    strict: bool = False,
    follow: bool = False,
    offset: int = 0,
):
    """Parse an ``events.jsonl`` back into a list of event dicts.

    A run killed mid-write leaves a truncated final line; by default such
    unparseable lines are skipped so an interrupted run still loads (the
    complete-line prefix is exactly what the recorder guarantees).  Pass
    ``strict=True`` to raise on any malformed line instead.  Use
    :func:`count_malformed_lines` to detect truncation explicitly.

    ``follow=True`` switches to the incremental-tail contract of
    :func:`tail_jsonl`: reading starts at byte ``offset``, only complete
    lines are consumed (a torn tail is *not* skipped-and-passed, it stays
    unconsumed for the next call), and the return value becomes the pair
    ``(events, new_offset)`` — feed ``new_offset`` back in to stream a
    live run without re-reading its prefix.  ``repro watch`` and the run
    analyzer both read through this path."""
    if follow:
        events, new_offset, _ = tail_jsonl(path, offset=offset)
        return events, new_offset
    events = []
    with open(Path(path)) as fh:
        if offset:
            fh.seek(int(offset))
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                if strict:
                    raise
    return events


def count_malformed_lines(path: Union[str, Path]) -> int:
    """Non-empty ``events.jsonl`` lines that fail to parse (truncation)."""
    bad = 0
    with open(Path(path)) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                json.loads(line)
            except json.JSONDecodeError:
                bad += 1
    return bad
