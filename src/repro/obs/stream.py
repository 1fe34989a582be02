"""Live streaming of recorded runs: incremental tailing + ``repro watch``.

Everything a tune writes is streamed durably as it happens — trace events
to ``events.jsonl`` (flushed per event) and measurement verdicts to the
write-ahead ``wal.jsonl`` (fsync'd per record).  This module reads those
streams *incrementally* and keeps a rolling picture of the run:

* :class:`RunWatcher` — owns the byte offsets into both streams
  (:func:`repro.obs.recorder.tail_jsonl` semantics: torn tails are left
  unconsumed, so polling a live writer is race-free) and folds every new
  record into a :class:`WatchState` — the same fold
  :func:`repro.obs.analysis.load_run` runs over a whole directory and a
  resuming :class:`~repro.obs.recorder.RunRecorder` counts its epoch with;
* :func:`render` — the terminal dashboard: progress, incumbent curve,
  cache/failure/quarantine/GP-refit counters, ETA;
* :func:`watch` — the poll loop behind ``repro watch RUN_DIR``.

The same code path serves three run shapes:

* a **live** run — offsets advance as the writer appends; a torn tail is
  simply not-yet-data;
* a **killed** run — the streams stop growing, ``result.json`` never
  appears, and the dashboard reports the WAL-proven progress plus the
  exact ``--resume`` command;
* a **resumed** run — the WAL is one continuous log across processes
  (replayed measurements append nothing), while ``events.jsonl``'s
  relative ``ts`` clock restarts per process; ``resume_epoch`` marker
  events let :func:`normalize_epochs` splice the epochs into one
  monotonic timeline.

No run-side cooperation is needed beyond the artifacts every traced tune
already writes; the watcher never holds the files open between polls, so
it can outlive (and predate) the writer.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.obs.recorder import _load_json, tail_jsonl

__all__ = ["RunWatcher", "WatchState", "normalize_epochs", "render", "watch"]


def normalize_epochs(events: List[Dict[str, object]]) -> List[Dict[str, object]]:
    """Splice per-process event streams into one monotonic timeline.

    Every recorder process stamps events with ``ts`` relative to its own
    epoch, so a resumed run's stream jumps backwards at the seam.  Each
    ``resume_epoch`` marker re-anchors the offset at the latest span end
    seen so far; events after it are shifted forward.  Events whose ``ts``
    is already monotonic are returned unchanged (same dicts, no copies) —
    the common single-epoch case costs one pass and no allocation.
    """
    offset = 0.0
    max_end = 0.0
    shifted: List[Dict[str, object]] = []
    any_shift = False
    for e in events:
        if e.get("name") == "resume_epoch":
            offset = max_end
            any_shift = True
            continue  # the marker itself carries no timing
        ts = e.get("ts")
        if ts is None:
            shifted.append(e)
            continue
        if offset:
            e = dict(e, ts=ts + offset)
            ts = e["ts"]
        shifted.append(e)
        max_end = max(max_end, ts + (e.get("wall") or 0.0))
    return shifted if any_shift else [e for e in events if e.get("name") != "resume_epoch"]


@dataclass
class WatchState:
    """One refresh's rolling view of a run directory."""

    path: Path
    manifest: Dict[str, object] = field(default_factory=dict)
    #: WAL measure records: live measurements (continuous across resumes)
    n_measurements: int = 0
    #: WAL slot records: budget slots the tuner has recorded
    n_slots: int = 0
    #: best-so-far runtime after each slot (the incumbent curve)
    best_history: List[float] = field(default_factory=list)
    #: last slot's measured runtime (inf when infeasible)
    last_runtime: float = math.inf
    #: counts of non-ok slot statuses, e.g. {"crash": 2}
    failures: Dict[str, int] = field(default_factory=dict)
    #: -O3 anchor runtime from the WAL anchor record (None before it lands)
    o3_runtime: Optional[float] = None
    #: flattened counters, freshest source wins (metrics.json > events)
    counters: Dict[str, float] = field(default_factory=dict)
    #: monotonic traced seconds (epoch-normalized last span end)
    elapsed: float = 0.0
    #: ``resume_epoch`` seam markers in the event stream
    n_resumes: int = 0
    #: the ``epoch`` metrics.json records (1 when absent)
    metrics_epoch: int = 1
    #: total events parsed so far / permanently malformed lines
    n_events: int = 0
    n_malformed: int = 0
    finished: bool = False
    interrupted: bool = False
    result: Dict[str, object] = field(default_factory=dict)
    #: seconds since the WAL or event stream last grew (None: no file yet)
    stale_seconds: Optional[float] = None

    @property
    def progress(self) -> int:
        """Budget slots the WAL proves completed.  A slot served by the
        verdict cache logs no measure record, and a killed run's last
        measurement may lack its slot record, so neither count alone is
        the progress."""
        return max(self.n_measurements, self.n_slots)

    @property
    def epoch(self) -> int:
        """Recorder processes that wrote the run (1 = never resumed): each
        resume leaves a seam marker, and a graceful stop leaves its epoch
        in metrics.json."""
        return max(1 + self.n_resumes, self.metrics_epoch)

    @property
    def budget(self) -> Optional[int]:
        b = self.manifest.get("budget")
        return int(b) if isinstance(b, (int, float)) else None

    @property
    def best_runtime(self) -> Optional[float]:
        finite = [v for v in self.best_history if math.isfinite(v)]
        return min(finite) if finite else None

    @property
    def eta_seconds(self) -> Optional[float]:
        """Remaining-budget estimate at the observed slot rate.

        Right after a resume the estimate runs hot (replay re-covers old
        slots in near-zero traced time) and converges as live slots
        accumulate."""
        budget = self.budget
        if budget is None or self.progress <= 0 or self.elapsed <= 0:
            return None
        remaining = max(0, budget - self.progress)
        return remaining * (self.elapsed / self.progress)

    @property
    def resumable(self) -> bool:
        return (
            not self.finished
            and self.progress > 0
            and self.manifest.get("command") == "tune"
        )

    def speedup(self, runtime: Optional[float]) -> Optional[float]:
        if runtime is None or not self.o3_runtime:
            return None
        return self.o3_runtime / runtime if runtime > 0 else None

    # -- the fold: every reader of a run directory feeds its records here ----
    def fold_wal(self, records: List[Dict[str, object]]) -> None:
        """Fold WAL records (in log order) into progress and the
        incumbent curve."""
        for rec in records:
            kind = rec.get("type")
            if kind == "measure":
                self.n_measurements += 1
            elif kind == "slot":
                self.n_slots += 1
                runtime = rec.get("runtime")
                try:
                    runtime = float(runtime)
                except (TypeError, ValueError):
                    runtime = math.inf
                self.last_runtime = runtime
                prev = self.best_history[-1] if self.best_history else math.inf
                self.best_history.append(min(prev, runtime))
                status = str(rec.get("status") or "")
                if status and status != "ok":
                    self.failures[status] = self.failures.get(status, 0) + 1
            elif kind == "anchor":
                o3 = rec.get("o3_runtime")
                if isinstance(o3, (int, float)) and o3 > 0:
                    self.o3_runtime = float(o3)

    def fold_events(
        self, events: List[Dict[str, object]], malformed: int = 0
    ) -> None:
        """Fold trace events (in stream order) into the epoch, traced
        time and the mid-run counters."""
        self.n_malformed += malformed
        self.n_resumes += sum(1 for e in events if e.get("name") == "resume_epoch")
        for e in normalize_epochs(events):
            self.n_events += 1
            ts = e.get("ts")
            if ts is not None:
                self.elapsed = max(self.elapsed, float(ts) + (e.get("wall") or 0.0))
            if e.get("name") == "metrics":
                attrs = e.get("attrs") or {}
                flat = attrs.get("metrics")
                if isinstance(flat, dict):
                    self.counters.update(flat)

    def fold_metrics(self, metrics: Dict[str, object]) -> None:
        """Fold a metrics.json snapshot: it beats any mid-run metrics
        event, and a resumed run's merged totals sit in ``cumulative``."""
        source = metrics.get("cumulative") or metrics
        self.counters.update(source.get("counters") or {})
        self.metrics_epoch = max(self.metrics_epoch, int(metrics.get("epoch") or 1))

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe snapshot (``repro watch --json``).

        Everything scripts need to poll a run without scraping the
        dashboard: progress, incumbent, failures, staleness, and the
        derived quantities (``best_runtime``, ``speedup``, ``eta_seconds``,
        ``resumable``).  Non-finite floats are stringified the way the
        recorder serialises them (``"inf"``/``"nan"``), so the output is
        strict JSON."""

        def _num(v):
            if isinstance(v, float) and not math.isfinite(v):
                return repr(v)
            return v

        return {
            "path": str(self.path),
            "manifest": dict(self.manifest),
            "n_measurements": self.n_measurements,
            "n_slots": self.n_slots,
            "progress": self.progress,
            "budget": self.budget,
            "best_runtime": _num(self.best_runtime),
            "best_history": [_num(v) for v in self.best_history],
            "last_runtime": _num(self.last_runtime),
            "speedup_vs_o3": _num(self.speedup(self.best_runtime)),
            "o3_runtime": _num(self.o3_runtime),
            "failures": dict(self.failures),
            "counters": {k: _num(v) for k, v in self.counters.items()},
            "elapsed": self.elapsed,
            "eta_seconds": _num(self.eta_seconds),
            "epoch": self.epoch,
            "n_events": self.n_events,
            "n_malformed": self.n_malformed,
            "finished": self.finished,
            "interrupted": self.interrupted,
            "resumable": self.resumable,
            "stale_seconds": self.stale_seconds,
        }


class RunWatcher:
    """Incremental reader of one run directory.

    Construct once, call :meth:`refresh` per poll: each call tails only
    the bytes appended since the previous one and folds them into the
    retained :class:`WatchState`.  The watcher is tolerant of every
    not-yet state — missing directory, missing streams, torn tails — so
    it can be pointed at a run directory before the tune starts.
    """

    def __init__(self, run_dir: Union[str, Path]) -> None:
        self.path = Path(run_dir)
        self.state = WatchState(path=self.path)
        self._events_offset = 0
        self._wal_offset = 0
        self._manifest_loaded = False

    # -- one poll ---------------------------------------------------------------
    def refresh(self) -> WatchState:
        st = self.state
        if not self._manifest_loaded:
            st.manifest = _load_json(self.path / "manifest.json")
            self._manifest_loaded = bool(st.manifest)
        records, self._wal_offset, _, _ = tail_jsonl(
            self.path / "wal.jsonl", offset=self._wal_offset
        )
        st.fold_wal(records)
        events, self._events_offset, malformed, _ = tail_jsonl(
            self.path / "events.jsonl", offset=self._events_offset
        )
        st.fold_events(events, malformed)
        if not st.finished:
            st.result = _load_json(self.path / "result.json")
            if st.result:
                st.finished = True
                st.interrupted = bool((st.result.get("extras") or {}).get("interrupted"))
                st.fold_metrics(_load_json(self.path / "metrics.json"))
        st.stale_seconds = self._staleness()
        return st

    # -- helpers ----------------------------------------------------------------
    def _staleness(self) -> Optional[float]:
        newest = None
        for name in ("wal.jsonl", "events.jsonl"):
            try:
                mtime = (self.path / name).stat().st_mtime
            except OSError:
                continue
            newest = mtime if newest is None else max(newest, mtime)
        return None if newest is None else max(0.0, time.time() - newest)


# -- rendering -------------------------------------------------------------------


def _fmt_seconds(s: Optional[float]) -> str:
    if s is None or not math.isfinite(s):
        return "?"
    if s < 120:
        return f"{s:.0f}s"
    return f"{s / 60:.1f}m"


def _progress_bar(done: int, total: Optional[int], width: int = 30) -> str:
    if not total:
        return f"[{'?' * width}] {done} measurements"
    frac = min(1.0, done / total)
    fill = int(round(frac * width))
    return f"[{'#' * fill}{'.' * (width - fill)}] {done}/{total}"


def _curve(values: List[float], width: int = 58, height: int = 9) -> List[str]:
    """One-series best-so-far ASCII curve (finite values only)."""
    from repro.reporting import ascii_series

    return ascii_series(values, width=width, height=height)


def _counter(counters: Dict[str, float], name: str) -> float:
    v = counters.get(name)
    try:
        return float(v)
    except (TypeError, ValueError):
        return 0.0


def render(state: WatchState, width: int = 58) -> str:
    """The dashboard frame for one :class:`WatchState`."""
    man = state.manifest
    head = (
        f"watch {state.path.name} · {man.get('program', '?')} · "
        f"{man.get('tuner', '?')} · seed {man.get('seed', '?')}"
    )
    if state.epoch > 1:
        head += f" · epoch {state.epoch} (resumed)"
    lines = [head]

    if state.finished and not state.interrupted:
        status = "FINISHED"
    elif state.finished:
        status = "STOPPED (graceful, resumable)"
    elif state.progress == 0 and state.n_events == 0:
        status = "WAITING (no artifacts yet)"
    elif state.stale_seconds is not None and state.stale_seconds > 15.0:
        status = f"STALLED? (no writes for {_fmt_seconds(state.stale_seconds)})"
    else:
        status = "RUNNING"
    lines.append(
        f"state: {status} | {_progress_bar(state.progress, state.budget)}"
        f" | elapsed {_fmt_seconds(state.elapsed)}"
        + (
            f" | eta ~{_fmt_seconds(state.eta_seconds)}"
            if not state.finished and state.eta_seconds is not None
            else ""
        )
    )

    best = state.best_runtime
    if best is not None:
        sp = state.speedup(best)
        last = state.last_runtime
        lines.append(
            f"best: {best * 1e6:.2f} us"
            + (f" ({sp:.3f}x over -O3)" if sp is not None else "")
            + (
                f" | last: {last * 1e6:.2f} us"
                if math.isfinite(last)
                else " | last: infeasible"
            )
        )
        # incumbent curve: speedup when the anchor landed, runtime otherwise
        if state.o3_runtime:
            values = [
                state.o3_runtime / v if math.isfinite(v) and v > 0 else math.nan
                for v in state.best_history
            ]
        else:
            values = [
                v * 1e6 if math.isfinite(v) else math.nan
                for v in state.best_history
            ]
        lines.extend(_curve(values, width=width))
    else:
        lines.append("best: (no feasible measurement yet)")

    c = state.counters
    hits = _counter(c, "engine.cache_hits")
    misses = _counter(c, "engine.cache_misses")
    cache = f"{hits / (hits + misses):.0%} cache hits" if hits + misses else "cache ?"
    refits = int(_counter(c, "citroen.gp.refits"))
    extends = int(_counter(c, "citroen.gp.extends"))
    n_failures = sum(state.failures.values())
    fail_detail = (
        " (" + ", ".join(f"{k} {v}" for k, v in sorted(state.failures.items())) + ")"
        if state.failures
        else ""
    )
    lines.append(
        f"counters: {cache} · {n_failures} infeasible{fail_detail} · "
        f"{int(_counter(c, 'engine.quarantine_hits'))} quarantine hits · "
        f"gp {refits} refits / {extends} extends"
    )
    lines.append(
        f"streams: wal {state.n_measurements} measurements durable · "
        f"events {state.n_events}"
        + (f" ({state.n_malformed} torn)" if state.n_malformed else "")
    )
    if not state.finished and state.resumable:
        lines.append(f"resume: python -m repro tune --resume {state.path}")
    if state.finished:
        res = state.result
        n = res.get("n_measurements", state.n_measurements)
        lines.append(
            f"result: {n} measurements recorded — "
            f"python -m repro analyze {state.path}"
        )
    return "\n".join(lines)


# -- the poll loop ----------------------------------------------------------------


def watch(
    run_dir: Union[str, Path],
    interval: float = 1.0,
    once: bool = False,
    max_frames: Optional[int] = None,
    out: Callable[[str], None] = print,
    clear: bool = False,
) -> WatchState:
    """Follow a run directory until its run finishes (or forever).

    ``once=True`` renders a single frame and returns — the scriptable
    mode CI uses.  ``max_frames`` bounds the loop for tests.  ``clear``
    prepends an ANSI home+clear so a terminal shows a refreshing
    dashboard rather than a scroll.  Returns the final state.
    """
    watcher = RunWatcher(run_dir)
    frames = 0
    while True:
        state = watcher.refresh()
        frame = render(state)
        if clear:
            frame = "\x1b[H\x1b[2J" + frame
        out(frame)
        frames += 1
        if once or state.finished:
            return state
        if max_frames is not None and frames >= max_frames:
            return state
        time.sleep(max(0.05, float(interval)))
