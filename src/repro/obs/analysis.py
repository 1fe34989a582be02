"""Offline analysis of recorded run directories: reports and regression
gating.

A run directory (``repro tune --trace-out DIR`` or one tuner's
subdirectory under ``repro compare --trace-out``) holds ``manifest.json``,
``events.jsonl``, ``metrics.json``, and ``result.json``.  This module
loads those artifacts back — tolerantly, so a run killed mid-search still
analyzes — and offers two consumers:

* :func:`analyze_run` — a markdown report: run identification, outcome,
  the per-phase span table (Fig 5.12), surrogate-calibration and
  generator-provenance diagnostics (Fig 5.7 / Fig 5.9, via
  :mod:`repro.obs.diagnostics`), the convergence curve, and metrics
  highlights.  A directory written by ``repro compare`` (``compare.json``
  at the top) renders as a leaderboard over its per-tuner sub-runs.
* :func:`diff_runs` — a machine-readable verdict comparing two runs'
  best runtime, wall time, compile-cache hit rate, and calibration RMSE
  within configurable thresholds.  The CLI maps a regression verdict to a
  non-zero exit code, so CI can pin one run as the anchor and gate on the
  other — the missing tool for anchoring a BENCH trajectory.

Everything reads the JSON artifacts only; no pickles, no live tuner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.core.result import TuningResult
from repro.obs.diagnostics import attribution_table, calibration, calibration_table
from repro.obs.recorder import _load_json, tail_jsonl
from repro.obs.stream import WatchState

__all__ = [
    "DiffThresholds",
    "RunData",
    "analyze_run",
    "build_checks",
    "diff_runs",
    "gate_metrics",
    "load_run",
    "resolve_run_dir",
]


@dataclass
class RunData:
    """One recorded run, loaded back from its artifact directory.

    Missing artifacts load as empty (``result`` as ``None``) rather than
    raising — an interrupted run leaves a manifest and an event prefix,
    and those alone must still analyze.  ``truncated_events`` counts
    unparseable ``events.jsonl`` lines plus a torn final line (a
    mid-write kill leaves at most one).  ``wal_measurements`` and
    ``epoch`` come from the same :class:`~repro.obs.stream.WatchState`
    fold ``repro watch`` uses."""

    path: Path
    manifest: Dict[str, object] = field(default_factory=dict)
    events: List[Dict[str, object]] = field(default_factory=list)
    metrics: Dict[str, object] = field(default_factory=dict)
    result: Optional[TuningResult] = None
    compare: Optional[Dict[str, object]] = None
    truncated_events: int = 0
    wal: List[Dict[str, object]] = field(default_factory=list)
    #: budget slots the write-ahead log proves completed — the honest
    #: progress count for a run that never wrote a result.json
    wal_measurements: int = 0
    #: recorder processes that wrote the run (1 = never resumed)
    epoch: int = 1

    @property
    def interrupted(self) -> bool:
        """Killed (no result.json) or gracefully stopped short of its
        budget (the result says so itself).  The result decides: a torn
        event line that a resume repaired stays in ``truncated_events``,
        but the run it belongs to finished."""
        if self.result is None:
            return True
        return bool(self.result.extras.get("interrupted", False))

    @property
    def resumable(self) -> bool:
        """True when the run can continue via ``repro tune --resume``."""
        return bool(self.wal) and self.manifest.get("command") == "tune"

    # -- derived quantities the differ gates on ---------------------------------
    def best_runtime(self) -> Optional[float]:
        if self.result is None or not self.result.measurements:
            return None
        return self.result.best_runtime

    def wall_seconds(self) -> Optional[float]:
        """Traced top-level wall time; falls back to the result's timing
        breakdown when the run has no events."""
        walls = [
            e.get("wall")
            for e in self.events
            if e.get("type") == "span" and e.get("depth", 0) == 0
        ]
        walls = [w for w in walls if w is not None]
        if walls:
            return float(sum(walls))
        if self.result is not None and self.result.timing:
            t = self.result.timing
            return float(
                t.get("compile_wall_seconds", 0.0)
                + t.get("measure_seconds", 0.0)
                + t.get("model_seconds", 0.0)
            )
        return None

    def cache_hit_rate(self) -> Optional[float]:
        if self.result is not None and self.result.timing:
            rate = self.result.timing.get("compile_cache_hit_rate")
            if rate is not None:
                return float(rate)
        counters = self.metrics.get("counters") or {}
        hits = counters.get("engine.cache_hits")
        misses = counters.get("engine.cache_misses")
        if hits is not None and misses is not None and hits + misses > 0:
            return float(hits) / float(hits + misses)
        return None

    def calibration_rmse(self) -> Optional[float]:
        source = self.events if self.events else self.result
        cal = calibration(source)
        return cal["rmse"] if cal["n"] and math.isfinite(cal["rmse"]) else None


def resolve_run_dir(run_dir: Union[str, Path]) -> Path:
    """Resolve a path to one concrete run directory.

    A directory that itself carries run artifacts (``manifest.json`` or a
    ``compare.json`` leaderboard, ``.tmp`` recoveries included) resolves
    to itself.  Otherwise it is treated as a *collection* of runs — the
    layout CI's ``--trace-out runs/$(date ...)`` style produces — and the
    child run with the newest manifest timestamp wins, so scripts can say
    ``repro analyze runs/`` instead of hardcoding directory names."""
    path = Path(run_dir)
    if not path.is_dir():
        raise FileNotFoundError(f"not a run directory: {path}")
    for name in ("manifest.json", "compare.json"):
        if (path / name).exists() or (path / (name + ".tmp")).exists():
            return path
    candidates = []
    for child in sorted(path.iterdir()):
        if not child.is_dir():
            continue
        manifest = child / "manifest.json"
        if not manifest.exists():
            manifest = child / "manifest.json.tmp"
            if not manifest.exists():
                continue
        candidates.append((manifest.stat().st_mtime, child.name, child))
    if not candidates:
        raise FileNotFoundError(
            f"not a run directory (no manifest.json, and no run "
            f"subdirectories either): {path}"
        )
    return max(candidates)[2]


def load_run(run_dir: Union[str, Path]) -> RunData:
    """Load a run directory's artifacts, tolerating missing/truncated files.

    The path may also be a *collection* directory of runs — see
    :func:`resolve_run_dir`; the latest run is loaded."""
    path = resolve_run_dir(run_dir)
    run = RunData(path=path)
    run.manifest = _load_json(path / "manifest.json")
    run.metrics = _load_json(path / "metrics.json")
    compare = _load_json(path / "compare.json")
    run.compare = compare or None
    run.events, _, malformed, torn = tail_jsonl(path / "events.jsonl")
    run.truncated_events = malformed + torn
    result_data = _load_json(path / "result.json")
    if result_data:
        run.result = TuningResult.from_dict(result_data)
    from repro.core.wal import read_wal

    run.wal = read_wal(path / "wal.jsonl")
    state = WatchState(path=path)
    state.fold_wal(run.wal)
    state.fold_events(run.events, malformed)
    state.fold_metrics(run.metrics)
    run.wal_measurements, run.epoch = state.progress, state.epoch
    return run


# -- the analyzer ---------------------------------------------------------------


def _fmt(value, spec: str = ".3f", missing: str = "?") -> str:
    if value is None:
        return missing
    try:
        if isinstance(value, float) and not math.isfinite(value):
            return repr(value)
        return format(value, spec)
    except (TypeError, ValueError):
        return str(value)


def _code(text: str) -> List[str]:
    return ["```", text, "```", ""]


def _metrics_highlights(metrics: Dict[str, object]) -> str:
    # resumed runs carry per-epoch snapshots plus merged totals; the
    # totals are the honest "work performed" view, so they lead
    source = metrics.get("cumulative") or metrics
    counters = source.get("counters") or {}
    if not counters:
        return "(no metrics.json)"
    rows = sorted(counters.items())
    width = max(len(k) for k, _ in rows) + 2
    lines = [f"{k:{width}s}{v}" for k, v in rows]
    refits = counters.get("citroen.gp.refits")
    extends = counters.get("citroen.gp.extends")
    if refits is not None and extends is not None:
        # the surrogate hot-path health indicator: most observations should
        # be absorbed by O(n^2) extends, full refits stay on the schedule
        total = refits + extends
        share = extends / total if total else 0.0
        lines.append(
            f"{'gp refit-vs-extend':{width}s}{int(refits)} refits / "
            f"{int(extends)} extends ({share:.0%} incremental)"
        )
    epoch = metrics.get("epoch")
    if isinstance(epoch, (int, float)) and epoch > 1:
        lines.append(
            f"{'(cumulative)':{width}s}merged across {int(epoch)} epochs; "
            "per-epoch snapshots in metrics.json"
        )
    return "\n".join(lines)


def _pass_section(run: RunData) -> List[str]:
    """The per-pass view of a run, best source first.

    An ``explain.json`` (from ``repro explain``) yields the full
    attribution table per module; otherwise ``pass.run`` spans from a
    ``--pipeline-trace`` tune yield the aggregate summary.  Untraced,
    unexplained runs get no section at all — no noise for the common
    case."""
    from repro.reporting import pass_attribution_table, pass_span_summary

    explain = _load_json(run.path / "explain.json")
    lines: List[str] = []
    if explain.get("modules"):
        lines.append(
            f"- attribution from `explain.json`: "
            f"{_fmt(explain.get('speedup'), '.3f')}x deterministic speedup, "
            f"{explain.get('n_noop', '?')} no-op pass applications"
        )
        lines.append("")
        for mod in explain["modules"]:
            lines.append(f"module `{mod.get('module', '?')}`:")
            lines.append("")
            lines.extend(_code(pass_attribution_table(mod.get("passes") or [])))
        return lines
    if any(
        e.get("type") == "span" and e.get("name") == "pass.run"
        for e in run.events
    ):
        lines.append(
            "- per-pass spans from `--pipeline-trace` (run `repro explain` "
            "for leave-one-out attribution):"
        )
        lines.append("")
        lines.extend(_code(pass_span_summary(run.events)))
        return lines
    return []


def analyze_run(run_dir: Union[str, Path]) -> str:
    """Render one recorded run (or a ``repro compare`` parent directory)
    as a markdown report."""
    run = load_run(run_dir)
    if run.compare is not None:
        return _analyze_compare(run)
    from repro.reporting import ascii_curve, span_table

    man = run.manifest
    lines = [f"# Run report: {run.path.name}", ""]
    lines.append(
        f"- program: **{man.get('program', '?')}**  tuner: "
        f"**{man.get('tuner', '?')}**  seed: {man.get('seed', '?')}  "
        f"budget: {man.get('budget', '?')}"
    )
    lines.append(
        f"- version: {man.get('version', '?')}  git: "
        f"`{str(man.get('git_rev', '?'))[:12]}`"
    )
    if run.interrupted:
        note = []
        if run.result is None:
            note.append("no result.json")
        elif run.result.extras.get("interrupted"):
            note.append("stopped before its budget")
        if run.truncated_events:
            note.append(f"{run.truncated_events} truncated event line(s)")
        if run.wal:
            note.append(f"{run.wal_measurements} measurement(s) completed per WAL")
        lines.append(
            f"- **interrupted run** ({', '.join(note) or 'partial artifacts'})"
            " — partial report"
        )
        if run.resumable:
            lines.append(
                f"- resumable: `repro tune --resume {run.path}` continues "
                "the remaining budget bit-identically"
            )
    elif run.truncated_events:
        lines.append(
            f"- {run.truncated_events} truncated event line(s) skipped "
            "(a kill the resume recovered from)"
        )
    if run.epoch > 1:
        # the epoch boundary: this run was resumed; the events.jsonl ts
        # clock restarted at each `resume_epoch` marker
        line = f"- **resumed run**: epoch {run.epoch} of a resumed session"
        if run.metrics.get("epoch") == run.epoch:
            line += (
                " — metrics below merge all epochs; per-epoch snapshots "
                "are kept under `epochs` in metrics.json"
            )
        lines.append(line)
    lines.append("")

    lines.append("## Outcome")
    lines.append("")
    if run.result is not None and run.result.measurements:
        res = run.result
        lines.append(
            f"- best runtime: **{_fmt(res.best_runtime * 1e6, '.2f')} us** "
            f"({_fmt(res.speedup_over_o3(), '.3f')}x over -O3)"
        )
        lines.append(
            f"- measurements: {len(res.measurements)} "
            f"({res.n_infeasible} infeasible, "
            f"{res.extras.get('dedup_hits', 0)} dedup hits)"
        )
        wall = run.wall_seconds()
        lines.append(
            f"- wall time (traced): {_fmt(wall)} s  "
            f"cache hit rate: {_fmt(run.cache_hit_rate(), '.1%')}"
        )
        timing = res.timing or {}
        n = int(timing.get("n_compiles", 0))
        if "compile_walked" in timing and n:
            lines.append(
                f"- compiles: {n} ({timing['compile_walked'] / n:.1%} walked in "
                f"the tuning process, {timing['compile_dispatched'] / n:.1%} "
                f"dispatched to workers; {int(timing.get('graph_rederived', 0))} "
                "graph states re-derived)"
            )
    else:
        lines.append("- (no measurements recorded)")
    lines.append("")

    lines.append("## Where did the time go (Fig 5.12)")
    lines.append("")
    lines.extend(_code(span_table(run.events) if run.events else "(no events.jsonl)"))

    pass_section = _pass_section(run)
    if pass_section:
        lines.append("## Pass pipeline (repro explain)")
        lines.append("")
        lines.extend(pass_section)

    diag_source = run.events if run.events else run.result
    lines.append("## Surrogate calibration (Table 5.1 / Fig 5.7)")
    lines.append("")
    lines.extend(_code(calibration_table(diag_source)))

    lines.append("## Generator provenance (Fig 5.9)")
    lines.append("")
    attribution_source = (
        run.result
        if run.result is not None and run.result.extras.get("provenance")
        else diag_source
    )
    lines.extend(_code(attribution_table(attribution_source)))

    if run.result is not None and run.result.measurements:
        lines.append("## Convergence")
        lines.append("")
        lines.extend(_code(ascii_curve({run.result.tuner: run.result})))

    lines.append("## Metrics")
    lines.append("")
    lines.extend(_code(_metrics_highlights(run.metrics)))
    return "\n".join(lines).rstrip() + "\n"


def _analyze_compare(run: RunData) -> str:
    """Report for a ``repro compare`` parent: leaderboard + child summaries."""
    cmp = run.compare or {}
    lines = [f"# Comparison report: {run.path.name}", ""]
    lines.append(
        f"- program: **{cmp.get('program', '?')}**  "
        f"budget: {cmp.get('budget', '?')}  seed: {cmp.get('seed', '?')}"
    )
    lines.append("")
    lines.append("## Leaderboard")
    lines.append("")
    board = cmp.get("leaderboard") or []
    if board:
        header = (
            f"{'tuner':14s}{'speedup/-O3':>13s}{'best us':>12s}"
            f"{'measured':>10s}{'infeasible':>12s}"
        )
        rows = [header]
        for entry in board:
            best = entry.get("best_runtime")
            rows.append(
                f"{str(entry.get('tuner', '?')):14s}"
                f"{_fmt(entry.get('speedup_vs_o3'), '.3f'):>12s}x"
                f"{_fmt(best * 1e6 if isinstance(best, (int, float)) else None, '.2f'):>12s}"
                f"{_fmt(entry.get('n_measurements'), 'd'):>10s}"
                f"{_fmt(entry.get('n_infeasible'), 'd'):>12s}"
            )
        lines.extend(_code("\n".join(rows)))
    else:
        lines.extend(_code("(empty leaderboard)"))
    lines.append("## Per-tuner runs")
    lines.append("")
    for child in sorted(p for p in run.path.iterdir() if p.is_dir()):
        if not (child / "manifest.json").exists():
            continue
        try:
            sub = load_run(child)
        except FileNotFoundError:
            continue
        best = sub.best_runtime()
        lines.append(
            f"- `{child.name}/`: best {_fmt(best * 1e6 if best else None, '.2f')} us, "
            f"wall {_fmt(sub.wall_seconds())} s, "
            f"cache {_fmt(sub.cache_hit_rate(), '.1%')}"
            + (" — interrupted" if sub.interrupted else "")
        )
    lines.append("")
    lines.append("Analyze a sub-run directly: `repro analyze <dir>/<tuner>`.")
    return "\n".join(lines).rstrip() + "\n"


# -- the differ -----------------------------------------------------------------


@dataclass
class DiffThresholds:
    """Regression gates for :func:`diff_runs` (``b`` judged against ``a``).

    Ratio gates compare ``b / a`` (lower-is-better quantities); the cache
    gate bounds the absolute hit-rate *drop* ``a - b``.  Any gate set to
    ``None`` is skipped.  Defaults are tight enough to catch a real
    regression at identical seeds yet loose enough for timing noise; CI
    jobs comparing *different* seeds should loosen them further."""

    max_runtime_ratio: Optional[float] = 1.05
    max_wall_ratio: Optional[float] = 2.0
    max_cache_hit_drop: Optional[float] = 0.2
    max_calibration_ratio: Optional[float] = 1.5


def _ratio_check(
    name: str, a: Optional[float], b: Optional[float], threshold: Optional[float]
) -> Dict[str, object]:
    check: Dict[str, object] = {
        "name": name,
        "a": a,
        "b": b,
        "threshold": threshold,
        "kind": "ratio",
    }
    if threshold is None or a is None or b is None:
        check.update(ratio=None, ok=True, skipped=True)
        return check
    if a == b:  # covers inf == inf (both runs never found a feasible binary)
        ratio = 1.0
    elif a <= 0 or not math.isfinite(a):
        ratio = 0.0 if b < a else math.inf
    else:
        ratio = b / a
    check.update(ratio=ratio, ok=bool(ratio <= threshold), skipped=False)
    return check


def _drop_check(
    name: str, a: Optional[float], b: Optional[float], threshold: Optional[float]
) -> Dict[str, object]:
    check: Dict[str, object] = {
        "name": name,
        "a": a,
        "b": b,
        "threshold": threshold,
        "kind": "drop",
    }
    if threshold is None or a is None or b is None:
        check.update(drop=None, ok=True, skipped=True)
        return check
    drop = a - b
    check.update(drop=drop, ok=bool(drop <= threshold), skipped=False)
    return check


def gate_metrics(run: RunData) -> Dict[str, Optional[float]]:
    """The four gated quantities of one run, as a plain dict.

    This is the boundary the warehouse reuses: a fleet baseline is just a
    dict of these keys aggregated over past runs, interchangeable with a
    live :class:`RunData`'s metrics in :func:`build_checks`."""
    return {
        "best_runtime": run.best_runtime(),
        "wall_seconds": run.wall_seconds(),
        "cache_hit_rate": run.cache_hit_rate(),
        "calibration_rmse": run.calibration_rmse(),
    }


def build_checks(
    a: Dict[str, Optional[float]],
    b: Dict[str, Optional[float]],
    thresholds: Optional[DiffThresholds] = None,
) -> List[Dict[str, object]]:
    """The four regression checks over two :func:`gate_metrics` dicts."""
    thresholds = thresholds if thresholds is not None else DiffThresholds()
    return [
        _ratio_check(
            "best_runtime",
            a.get("best_runtime"),
            b.get("best_runtime"),
            thresholds.max_runtime_ratio,
        ),
        _ratio_check(
            "wall_seconds",
            a.get("wall_seconds"),
            b.get("wall_seconds"),
            thresholds.max_wall_ratio,
        ),
        _drop_check(
            "cache_hit_rate",
            a.get("cache_hit_rate"),
            b.get("cache_hit_rate"),
            thresholds.max_cache_hit_drop,
        ),
        _ratio_check(
            "calibration_rmse",
            a.get("calibration_rmse"),
            b.get("calibration_rmse"),
            thresholds.max_calibration_ratio,
        ),
    ]


def diff_runs(
    run_a: Union[str, Path],
    run_b: Union[str, Path],
    thresholds: Optional[DiffThresholds] = None,
) -> Dict[str, object]:
    """Compare run ``b`` against baseline ``a``; return a verdict dict.

    The verdict is machine-readable JSON: one entry per check
    (``best_runtime``, ``wall_seconds``, ``cache_hit_rate``,
    ``calibration_rmse``) with both values, the computed ratio/drop, the
    threshold, and an ``ok`` flag; plus the overall ``regressed`` bit the
    CLI turns into its exit code.  Checks whose inputs are missing on
    either side (no result.json, diagnostics disabled) are *skipped*, not
    failed — an interrupted baseline should not block CI on its own."""
    a, b = load_run(run_a), load_run(run_b)
    checks = build_checks(gate_metrics(a), gate_metrics(b), thresholds)
    regressed = [c["name"] for c in checks if not c["ok"]]
    return {
        "run_a": str(a.path),
        "run_b": str(b.path),
        "program": a.manifest.get("program"),
        "interrupted": {"a": a.interrupted, "b": b.interrupted},
        "checks": checks,
        "regressions": regressed,
        "regressed": bool(regressed),
        "ok": not regressed,
    }
