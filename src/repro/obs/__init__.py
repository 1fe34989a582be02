"""Observability for tuning runs: tracing, metrics, run artifacts, logging.

CITROEN's thesis is that *compilation statistics* are the signal worth
modelling — this package applies the same discipline to the tuner itself.
Three dependency-free pieces:

* :mod:`repro.obs.trace` — a :class:`Tracer` of nestable spans
  (``with tracer.span("propose", module=m):``) capturing wall/CPU time and
  attributes, emitting JSONL-serialisable events;
* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges, and streaming histograms (p50/p90/p99) that backs the
  :class:`~repro.core.eval_engine.CompileEngine` counters;
* :mod:`repro.obs.recorder` — a :class:`RunRecorder` writing a per-run
  directory (``manifest.json``, ``events.jsonl``, ``metrics.json``,
  ``result.json``) for every tune;

plus :mod:`repro.obs.log`, the ``logging`` setup the CLI uses, and two
consumers of the recorded artifacts:

* :mod:`repro.obs.diagnostics` — surrogate-calibration statistics (RMSE,
  rank correlation, σ-interval coverage, drift) and per-generator
  provenance attribution from CITROEN's decision records;
* :mod:`repro.obs.analysis` — the offline run analyzer/differ behind
  ``repro analyze`` and ``repro diff`` (markdown reports, regression
  gating for CI);

and the fleet layer built on top of them:

* :mod:`repro.obs.stream` — the incremental follow-mode reader and the
  live terminal dashboard behind ``repro watch``, and the one fold of a
  run directory's progress and epoch (:class:`WatchState`), which
  :func:`load_run` shares;
* :mod:`repro.obs.warehouse` — the sqlite cross-run warehouse behind
  ``repro obs index`` / ``repro obs history`` and the
  ``repro diff --against warehouse:last-N`` fleet gate;
* :mod:`repro.obs.export` — Chrome-trace-event and Prometheus text
  exporters (``repro analyze --chrome-trace/--prometheus``).

Everything is off by default: the module-level :data:`NULL_TRACER` is a
disabled tracer whose spans are shared no-op context managers, so
uninstrumented runs stay bit-identical to pre-observability behaviour.
"""

from repro.obs.analysis import (
    DiffThresholds,
    RunData,
    analyze_run,
    diff_runs,
    load_run,
    resolve_run_dir,
)
from repro.obs.diagnostics import (
    attribution_table,
    calibration,
    calibration_table,
    decision_records,
    generator_attribution,
)
from repro.obs.log import configure as configure_logging
from repro.obs.log import get_logger
from repro.obs.export import chrome_trace, prometheus_text
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    merge_snapshots,
)
from repro.obs.recorder import (
    RunRecorder,
    git_revision,
    read_events,
    tail_jsonl,
)
from repro.obs.stream import RunWatcher, WatchState, normalize_epochs
from repro.obs.trace import NULL_TRACER, Span, Tracer
from repro.obs.warehouse import Warehouse, diff_against_warehouse, history_table

__all__ = [
    "Counter",
    "DiffThresholds",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "RunData",
    "RunRecorder",
    "RunWatcher",
    "Span",
    "Tracer",
    "Warehouse",
    "WatchState",
    "analyze_run",
    "attribution_table",
    "calibration",
    "calibration_table",
    "chrome_trace",
    "configure_logging",
    "decision_records",
    "diff_against_warehouse",
    "diff_runs",
    "generator_attribution",
    "get_logger",
    "get_registry",
    "git_revision",
    "history_table",
    "load_run",
    "merge_snapshots",
    "normalize_epochs",
    "prometheus_text",
    "read_events",
    "resolve_run_dir",
    "tail_jsonl",
]
