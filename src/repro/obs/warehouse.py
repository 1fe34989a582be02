"""Cross-run metrics warehouse: a fleet memory for recorded runs.

Every run directory dies alone: its manifest, metrics, and result say
everything about *that* tune and nothing about the trajectory — is this
speedup normal for ``security_sha`` at this git revision?  Did wall time
creep over the last ten runs?  The warehouse answers those by ingesting
run artifacts into one stdlib ``sqlite3`` file:

* ``repro obs index RUNS...`` — upsert run directories (re-indexing a
  path refreshes its row, so the index is idempotent);
* ``repro obs history [--benchmark X]`` — the speedup / wall trajectory
  across git revisions;
* ``repro diff RUN --against warehouse:last-N`` — the regression gate of
  :func:`repro.obs.analysis.diff_runs`, but judged against a rolling
  median of the fleet's last ``N`` comparable runs instead of one pinned
  anchor.

Design notes: schema-versioned via a ``meta`` table (a newer-schema file
is refused, not silently misread); every ingest is one transaction, so a
killed indexer leaves a consistent file; raw ``manifest``/``metrics``
JSON rides along in blob columns so later schema versions can re-derive
columns without re-reading run directories that may be gone.
This is the substrate the ROADMAP's tuning-as-a-service daemon and
GRACE-style clustered transfer both queue on: the daemon scrapes and
appends, transfer clusters over ``runs`` history.
"""

from __future__ import annotations

import json
import math
import sqlite3
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.obs.analysis import (
    DiffThresholds,
    build_checks,
    gate_metrics,
    load_run,
    resolve_run_dir,
)
from repro.obs.recorder import _load_json

__all__ = [
    "SCHEMA_VERSION",
    "Warehouse",
    "diff_against_warehouse",
    "history_table",
    "pass_history_table",
]

SCHEMA_VERSION = 2

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    id               INTEGER PRIMARY KEY,
    path             TEXT NOT NULL UNIQUE,
    indexed_at       REAL NOT NULL,
    program          TEXT,
    tuner            TEXT,
    seed             INTEGER,
    budget           INTEGER,
    git_rev          TEXT,
    version          TEXT,
    command          TEXT,
    interrupted      INTEGER NOT NULL DEFAULT 0,
    epoch            INTEGER NOT NULL DEFAULT 1,
    n_measurements   INTEGER,
    n_infeasible     INTEGER,
    best_runtime     REAL,
    speedup_vs_o3    REAL,
    wall_seconds     REAL,
    cache_hit_rate   REAL,
    calibration_rmse REAL,
    manifest_json    TEXT,
    metrics_json     TEXT
);
CREATE INDEX IF NOT EXISTS runs_program ON runs (program, id);
CREATE TABLE IF NOT EXISTS pass_stats (
    id               INTEGER PRIMARY KEY,
    run_path         TEXT NOT NULL,
    program          TEXT,
    module           TEXT NOT NULL,
    position         INTEGER NOT NULL,
    pass             TEXT NOT NULL,
    wall             REAL,
    changed          INTEGER NOT NULL DEFAULT 0,
    noop             INTEGER NOT NULL DEFAULT 0,
    marginal_seconds REAL,
    d_instrs         INTEGER,
    UNIQUE (run_path, module, position)
);
CREATE INDEX IF NOT EXISTS pass_stats_pass ON pass_stats (pass, id);
"""


class Warehouse:
    """One sqlite-backed fleet index; use as a context manager."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._conn = sqlite3.connect(str(self.path))
        self._conn.row_factory = sqlite3.Row
        with self._conn:
            self._conn.executescript(_SCHEMA)
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            if row is None:
                self._conn.execute(
                    "INSERT INTO meta (key, value) VALUES ('schema_version', ?)",
                    (str(SCHEMA_VERSION),),
                )
            elif int(row["value"]) > SCHEMA_VERSION:
                raise ValueError(
                    f"{self.path} was written by warehouse schema "
                    f"{row['value']}; this build reads up to {SCHEMA_VERSION}"
                )
            elif int(row["value"]) < SCHEMA_VERSION:
                # additive migration: the executescript above already
                # created any missing tables/indexes (v2 adds pass_stats),
                # so older files upgrade in place — existing rows untouched
                self._conn.execute(
                    "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                    (str(SCHEMA_VERSION),),
                )

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "Warehouse":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- ingest -----------------------------------------------------------------
    def index_path(self, path: Union[str, Path]) -> List[Dict[str, object]]:
        """Ingest one path: a run dir, a ``compare`` parent (each per-tuner
        child is indexed), or a collection dir."""
        resolved = resolve_run_dir(path)
        if (resolved / "compare.json").exists():
            out = []
            for child in sorted(resolved.iterdir()):
                if child.is_dir() and (child / "manifest.json").exists():
                    out.append(self.index_run(child))
            return out
        return [self.index_run(resolved)]

    def index_run(self, run_dir: Union[str, Path]) -> Dict[str, object]:
        """Upsert one run directory; returns the stored row as a dict."""
        run = load_run(run_dir)
        man = run.manifest
        metrics = gate_metrics(run)
        res = run.result
        speedup = None
        if res is not None and res.measurements:
            sp = res.speedup_over_o3()
            speedup = float(sp) if math.isfinite(sp) else None
        n_meas = len(res.measurements) if res is not None else run.wal_measurements
        row = {
            "path": str(run.path.resolve()),
            "indexed_at": time.time(),
            "program": man.get("program"),
            "tuner": man.get("tuner"),
            "seed": man.get("seed"),
            "budget": man.get("budget"),
            "git_rev": man.get("git_rev"),
            "version": man.get("version"),
            "command": man.get("command"),
            "interrupted": int(run.interrupted),
            "epoch": run.epoch,
            "n_measurements": n_meas,
            "n_infeasible": res.n_infeasible if res is not None else None,
            "best_runtime": _finite(metrics["best_runtime"]),
            "speedup_vs_o3": speedup,
            "wall_seconds": _finite(metrics["wall_seconds"]),
            "cache_hit_rate": _finite(metrics["cache_hit_rate"]),
            "calibration_rmse": _finite(metrics["calibration_rmse"]),
            "manifest_json": json.dumps(man, sort_keys=True),
            "metrics_json": json.dumps(run.metrics, sort_keys=True),
        }
        pass_rows = _pass_rows(run, row["path"], row["program"])
        cols = ", ".join(row)
        marks = ", ".join(f":{k}" for k in row)
        sets = ", ".join(f"{k} = :{k}" for k in row if k != "path")
        with self._conn:
            self._conn.execute(
                f"INSERT INTO runs ({cols}) VALUES ({marks}) "
                f"ON CONFLICT (path) DO UPDATE SET {sets}",
                row,
            )
            if pass_rows:
                # refresh wholesale: a re-explained run replaces its rows
                self._conn.execute(
                    "DELETE FROM pass_stats WHERE run_path = ?", (row["path"],)
                )
                self._conn.executemany(
                    "INSERT INTO pass_stats (run_path, program, module, "
                    "position, pass, wall, changed, noop, marginal_seconds, "
                    "d_instrs) VALUES (:run_path, :program, :module, "
                    ":position, :pass, :wall, :changed, :noop, "
                    ":marginal_seconds, :d_instrs)",
                    pass_rows,
                )
        return row

    # -- queries ----------------------------------------------------------------
    def runs(
        self,
        program: Optional[str] = None,
        limit: Optional[int] = None,
        include_interrupted: bool = True,
    ) -> List[Dict[str, object]]:
        """Stored runs, oldest first (``limit`` keeps the newest N)."""
        sql = "SELECT * FROM runs"
        clauses, params = [], []
        if program is not None:
            clauses.append("program = ?")
            params.append(program)
        if not include_interrupted:
            clauses.append("interrupted = 0")
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY id DESC"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(int(limit))
        rows = [dict(r) for r in self._conn.execute(sql, params)]
        rows.reverse()
        return rows

    def programs(self) -> List[str]:
        return [
            r["program"]
            for r in self._conn.execute(
                "SELECT DISTINCT program FROM runs WHERE program IS NOT NULL "
                "ORDER BY program"
            )
        ]

    def baseline(
        self,
        program: Optional[str],
        last_n: int,
        exclude_path: Optional[Union[str, Path]] = None,
    ) -> Dict[str, object]:
        """The rolling fleet baseline: per-metric *median* over the last
        ``last_n`` completed runs of ``program``.

        Medians (not means) so one anomalous fleet member cannot drag the
        gate; interrupted runs are excluded (their walls and bests are
        truncated, not comparable), as is the candidate's own path — a
        run must never be its own baseline."""
        rows = self.runs(program=program, include_interrupted=False)
        if exclude_path is not None:
            resolved = str(Path(exclude_path).resolve())
            rows = [r for r in rows if r["path"] != resolved]
        rows = rows[-int(last_n):] if last_n else rows
        metrics: Dict[str, Optional[float]] = {}
        for key in (
            "best_runtime",
            "wall_seconds",
            "cache_hit_rate",
            "calibration_rmse",
        ):
            values = [r[key] for r in rows if r[key] is not None]
            metrics[key] = statistics.median(values) if values else None
        return {
            "metrics": metrics,
            "n_runs": len(rows),
            "paths": [r["path"] for r in rows],
            "git_revs": [r["git_rev"] for r in rows],
        }


def _pass_rows(run, run_path: str, program) -> List[Dict[str, object]]:
    """Per-pass attribution rows for one run, best source first.

    ``explain.json`` (written by ``repro explain``) carries the full
    leave-one-out attribution; absent that, ``pass.run`` spans from a
    ``--pipeline-trace`` tune still yield timing/changed/IR-delta rows
    (without marginals — those need the ablation replay)."""
    explain = _load_json(run.path / "explain.json")
    rows: List[Dict[str, object]] = []
    if explain.get("modules"):
        for mod in explain["modules"]:
            for p in mod.get("passes") or []:
                rows.append(
                    {
                        "run_path": run_path,
                        "program": program,
                        "module": mod.get("module"),
                        "position": int(p.get("index", 0)),
                        "pass": p.get("pass"),
                        "wall": p.get("wall"),
                        "changed": int(bool(p.get("changed"))),
                        "noop": int(bool(p.get("noop"))),
                        "marginal_seconds": _finite(p.get("marginal_seconds")),
                        "d_instrs": (p.get("ir_delta") or {}).get("instrs", 0),
                    }
                )
        return rows
    # fallback: the traced tune's retrospective pass.run spans (the last
    # pass.trace emission per module wins — it is the final incumbent)
    latest: Dict[tuple, Dict[str, object]] = {}
    for e in run.events:
        if e.get("type") != "span" or e.get("name") != "pass.run":
            continue
        attrs = e.get("attrs") or {}
        key = (attrs.get("module"), int(attrs.get("index", 0)))
        latest[key] = {
            "run_path": run_path,
            "program": program,
            "module": attrs.get("module"),
            "position": int(attrs.get("index", 0)),
            "pass": attrs.get("pass"),
            "wall": e.get("wall"),
            "changed": int(bool(attrs.get("changed"))),
            "noop": 0,
            "marginal_seconds": None,
            "d_instrs": (attrs.get("ir_delta") or {}).get("instrs", 0),
        }
    return [latest[k] for k in sorted(latest, key=lambda kv: (str(kv[0]), kv[1]))]


def _finite(value: Optional[float]) -> Optional[float]:
    """sqlite stores inf/nan as-is but medians over them are garbage."""
    if value is None or not math.isfinite(value):
        return None
    return float(value)


# -- rendering -------------------------------------------------------------------


def _fmt(value, spec: str = ".3f", missing: str = "?") -> str:
    if value is None:
        return missing
    try:
        return format(value, spec)
    except (TypeError, ValueError):
        return str(value)


def history_table(wh: Warehouse, benchmark: Optional[str] = None) -> str:
    """The fleet trajectory as text: runs (speedup/wall per git rev),
    newest last, ready for eyeballs or CI logs."""
    lines: List[str] = []
    programs = [benchmark] if benchmark else (wh.programs() or [None])
    for program in programs:
        rows = wh.runs(program=program)
        title = program or "(unidentified program)"
        lines.append(f"## {title}")
        if not rows:
            lines.append("  (no indexed runs)")
        else:
            header = (
                f"  {'git rev':>12s}  {'tuner':10s}{'seed':>6s}"
                f"{'speedup':>9s}{'wall s':>9s}{'cache':>7s}{'meas':>6s}  flags"
            )
            lines.append(header)
            for r in rows:
                flags = []
                if r["interrupted"]:
                    flags.append("interrupted")
                if (r["epoch"] or 1) > 1:
                    flags.append(f"epoch{r['epoch']}")
                lines.append(
                    f"  {str(r['git_rev'] or '?')[:12]:>12s}  "
                    f"{str(r['tuner'] or '?'):10s}"
                    f"{_fmt(r['seed'], 'd'):>6s}"
                    f"{_fmt(r['speedup_vs_o3'], '.3f'):>9s}"
                    f"{_fmt(r['wall_seconds'], '.2f'):>9s}"
                    f"{_fmt(r['cache_hit_rate'], '.0%'):>7s}"
                    f"{_fmt(r['n_measurements'], 'd'):>6s}"
                    f"  {' '.join(flags)}"
                )
            speedups = [r["speedup_vs_o3"] for r in rows if r["speedup_vs_o3"]]
            if len(speedups) >= 2:
                lines.append(
                    f"  trajectory: {_spark(speedups)}  "
                    f"({speedups[0]:.3f}x → {speedups[-1]:.3f}x over "
                    f"{len(speedups)} runs)"
                )
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def pass_history_table(wh: Warehouse, benchmark: Optional[str] = None) -> str:
    """Fleet-wide per-pass attribution: which passes win, which are noise.

    Aggregates the ``pass_stats`` table over every indexed run (optionally
    one benchmark): appearances in incumbent configurations, how often the
    pass changed the IR, the no-op share, and the summed marginal runtime
    contribution from explained runs — the fleet's answer to the paper's
    "which passes matter" question."""
    sql = (
        "SELECT pass, COUNT(*) AS n, SUM(changed) AS changed, "
        "SUM(noop) AS noop, SUM(marginal_seconds) AS marginal, "
        "SUM(wall) AS wall, SUM(d_instrs) AS d_instrs, "
        "COUNT(DISTINCT run_path) AS runs "
        "FROM pass_stats"
    )
    params: List[object] = []
    if benchmark is not None:
        sql += " WHERE program = ?"
        params.append(benchmark)
    sql += " GROUP BY pass ORDER BY marginal DESC NULLS LAST, n DESC"
    try:
        rows = [dict(r) for r in wh._conn.execute(sql, params)]
    except sqlite3.OperationalError:
        # older sqlite without NULLS LAST: sort in python instead
        rows = [
            dict(r)
            for r in wh._conn.execute(sql.replace(" NULLS LAST", ""), params)
        ]
        rows.sort(
            key=lambda r: (
                -(r["marginal"] if r["marginal"] is not None else -math.inf),
                -r["n"],
            )
        )
    title = benchmark or "all programs"
    if not rows:
        return (
            f"## pass attribution ({title})\n"
            "  (no pass stats indexed; run `repro explain` on a run "
            "directory, or tune with --pipeline-trace, then re-index)\n"
        )
    lines = [
        f"## pass attribution ({title})",
        f"  {'pass':22s}{'uses':>6s}{'runs':>6s}{'changed':>9s}"
        f"{'no-op':>7s}{'marginal us':>13s}{'d-instr':>9s}",
    ]
    for r in rows:
        marginal = (
            _fmt(r["marginal"] * 1e6, ".3f") if r["marginal"] is not None else "?"
        )
        lines.append(
            f"  {str(r['pass'] or '?'):22s}{_fmt(r['n'], 'd'):>6s}"
            f"{_fmt(r['runs'], 'd'):>6s}{_fmt(r['changed'], 'd'):>9s}"
            f"{_fmt(r['noop'], 'd'):>7s}{marginal:>13s}"
            f"{_fmt(r['d_instrs'], '+d'):>9s}"
        )
    return "\n".join(lines) + "\n"


_SPARK = "▁▂▃▄▅▆▇█"


def _spark(values: List[float]) -> str:
    lo, hi = min(values), max(values)
    if hi - lo < 1e-12:
        return _SPARK[3] * len(values)
    return "".join(
        _SPARK[int((v - lo) / (hi - lo) * (len(_SPARK) - 1))] for v in values
    )


# -- the fleet regression gate ----------------------------------------------------


def diff_against_warehouse(
    run_dir: Union[str, Path],
    db_path: Union[str, Path],
    last_n: int,
    thresholds: Optional[DiffThresholds] = None,
) -> Dict[str, object]:
    """Gate a candidate run against the fleet's rolling baseline.

    Same verdict shape as :func:`repro.obs.analysis.diff_runs` (the CLI
    and CI consume them interchangeably), with ``run_a`` naming the
    synthetic baseline and a ``baseline`` block recording which runs it
    was distilled from.  An empty baseline (first run of a program on a
    fresh warehouse) skips every check rather than failing — the fleet
    gate must bootstrap."""
    candidate = load_run(run_dir)
    program = candidate.manifest.get("program")
    with Warehouse(db_path) as wh:
        base = wh.baseline(
            program, last_n=last_n, exclude_path=candidate.path
        )
    checks = build_checks(base["metrics"], gate_metrics(candidate), thresholds)
    regressed = [c["name"] for c in checks if not c["ok"]]
    return {
        "run_a": f"warehouse:last-{last_n} (median of {base['n_runs']} runs)",
        "run_b": str(candidate.path),
        "program": program,
        "interrupted": {"a": False, "b": candidate.interrupted},
        "baseline": {
            "db": str(Path(db_path)),
            "n_runs": base["n_runs"],
            "paths": base["paths"],
            "metrics": base["metrics"],
        },
        "checks": checks,
        "regressions": regressed,
        "regressed": bool(regressed),
        "ok": not regressed,
    }
