"""Write-ahead measurement log: durable incremental tuning state.

A tuning run spends its budget on *expensive measurements*; everything
else — candidate generation, compilation, the GP fit — is cheap and
deterministic given the seed.  The WAL therefore persists exactly the
expensive, irreproducible facts: one fsync'd JSONL record per completed
measurement, written *before* the tuner acts on the outcome, so a
SIGKILL'd or OOM'd process never loses more than the measurement it was
about to log.

Resume is **deterministic re-execution**: ``repro tune --resume`` rebuilds
the task and tuner from the recorded manifest (same seed, same program,
same fault injector), re-runs the search loop from iteration zero, and
serves the first *k* measurement verdicts from the WAL instead of the
profiler (:meth:`~repro.core.task.AutotuningTask.start_replay`).
Candidate compilation *is* re-executed — it is the paper's "cheap and
parallelisable" stage, pure by construction, and content-keyed fault
injection replays identically — so every RNG stream, generator
population, dedup table, and GP posterior is reconstructed bit-exactly by
the same code path that built it.  The only state that cannot be replayed
(the profiler's measurement-noise RNG, advanced solely by real
measurements) is checkpointed in every record and restored at the
replay/live seam.  The result: kill at any iteration *k*, resume, and the
final history is bit-identical to an uninterrupted run.

Record taxonomy (``"type"`` field):

``wal``
    header record — schema tag, written once at file creation;
``measure``
    one completed expensive measurement, written by
    :meth:`AutotuningTask.measure`: the raw verdict ``(value, ok,
    status)``, the running measurement counter, and the profiler RNG
    checkpoint.  These are the replay stream;
``slot``
    one budget slot, written by the tuner after recording a
    :class:`~repro.core.result.Measurement`: index, module, full
    per-module sequence configuration, runtime, status, provenance.
    Slot records make an interrupted run analyzable (``repro analyze``
    reports iterations-completed from them) and are suppressed — not
    re-written — during replay.

Durability contract: :meth:`WriteAheadLog.append` flushes and fsyncs every
record, so at most the final line of a killed run is torn;
:func:`read_wal` skips unparseable lines, and resume-mode opening
terminates a torn tail so the append seam stays parseable.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Tuple, Union

__all__ = ["WAL_SCHEMA", "WriteAheadLog", "read_wal", "split_wal"]

#: Schema tag carried by the WAL header record.
WAL_SCHEMA = "repro.wal/v1"


class WriteAheadLog:
    """Append-only fsync'd JSONL log of completed measurements.

    Parameters
    ----------
    path:
        the log file (conventionally ``<run-dir>/wal.jsonl``); parent
        directories are created as needed.
    resume:
        ``False`` (a fresh run) truncates any stale log and writes a new
        header; ``True`` opens in append mode, first terminating a torn
        trailing line (a mid-write kill leaves at most one) so records
        appended across the seam parse cleanly.
    """

    def __init__(self, path: Union[str, Path], resume: bool = False) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.resume = bool(resume)
        from repro.obs.recorder import _open_jsonl

        self._fh = _open_jsonl(self.path, self.resume)
        self._closed = False
        self.n_appended = 0
        if self._fh.tell() == 0:
            self.append({"type": "wal", "schema": WAL_SCHEMA})

    def append(self, record: Dict[str, object]) -> None:
        """Write one record as a JSONL line, flushed and fsync'd.

        The fsync is the durability guarantee the whole resume story rests
        on: once this returns, the record survives SIGKILL, OOM, and
        power loss (to the extent the filesystem honours fsync)."""
        from repro.obs.recorder import _jsonable

        self._fh.write(json.dumps(_jsonable(record), sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self.n_appended += 1

    def close(self) -> None:
        """Flush, fsync and close (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._fh.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def read_wal(path: Union[str, Path]) -> List[Dict[str, object]]:
    """Parse a ``wal.jsonl`` back into its records, header excluded.

    Tolerant by design (:func:`~repro.obs.recorder.tail_jsonl` reads it):
    a process killed mid-append leaves a torn final line, and a resume
    seam may leave an unparseable line — both are skipped, never fatal.
    A missing file reads as no records (a run that never measured)."""
    from repro.obs.recorder import tail_jsonl

    return [
        rec
        for rec in tail_jsonl(path)[0]
        if isinstance(rec, dict) and rec.get("type") != "wal"
    ]


def split_wal(
    records: List[Dict[str, object]],
) -> Tuple[List[Dict[str, object]], List[Dict[str, object]]]:
    """Split records into ``(measure_records, slot_records)`` in order."""
    measures = [r for r in records if r.get("type") == "measure"]
    slots = [r for r in records if r.get("type") == "slot"]
    return measures, slots
