"""The cross-run warehouse: ingest, history, and the fleet regression gate."""

import json
import shutil
import sqlite3
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.warehouse import (
    SCHEMA_VERSION,
    Warehouse,
    diff_against_warehouse,
    history_table,
)


@pytest.fixture(scope="module")
def run_a(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("wh") / "run_a"
    assert main(
        [
            "tune", "security_sha", "--budget", "12", "--seed", "1",
            "--seq-length", "8", "--trace-out", str(out),
            "--log-level", "warning",
        ]
    ) == 0
    return out


@pytest.fixture(scope="module")
def run_b(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("wh") / "run_b"
    assert main(
        [
            "tune", "security_sha", "--budget", "12", "--seed", "2",
            "--seq-length", "8", "--trace-out", str(out),
            "--log-level", "warning",
        ]
    ) == 0
    return out


@pytest.fixture()
def db(tmp_path) -> Path:
    return tmp_path / "wh.sqlite"


class TestIngest:
    def test_index_run_row(self, run_a, db):
        with Warehouse(db) as wh:
            row = wh.index_run(run_a)
            assert row["program"] == "security_sha"
            assert row["tuner"] == "citroen"
            assert row["seed"] == 1
            assert row["interrupted"] == 0
            assert row["n_measurements"] == 12
            assert row["best_runtime"] > 0
            assert row["speedup_vs_o3"] > 0
            stored = wh.runs()
            assert len(stored) == 1
            assert stored[0]["path"] == str(run_a.resolve())

    def test_reindex_is_idempotent(self, run_a, db):
        with Warehouse(db) as wh:
            wh.index_run(run_a)
            wh.index_run(run_a)
            assert len(wh.runs()) == 1

    def test_index_interrupted_run(self, run_a, db, tmp_path):
        killed = tmp_path / "killed"
        shutil.copytree(run_a, killed)
        (killed / "result.json").unlink()
        with Warehouse(db) as wh:
            row = wh.index_run(killed)
            assert row["interrupted"] == 1
            assert row["n_measurements"] == 12  # from the WAL

    def test_newer_schema_refused(self, db):
        Warehouse(db).close()
        conn = sqlite3.connect(str(db))
        with conn:
            conn.execute(
                "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                (str(SCHEMA_VERSION + 1),),
            )
        conn.close()
        with pytest.raises(ValueError):
            Warehouse(db)


class TestQueries:
    def test_baseline_median_excludes_interrupted_and_self(
        self, run_a, run_b, db, tmp_path
    ):
        killed = tmp_path / "killed"
        shutil.copytree(run_a, killed)
        (killed / "result.json").unlink()
        with Warehouse(db) as wh:
            wh.index_run(run_a)
            wh.index_run(run_b)
            wh.index_run(killed)
            base = wh.baseline("security_sha", last_n=10, exclude_path=run_b)
            # killed is interrupted, run_b is the candidate: only run_a left
            assert base["n_runs"] == 1
            assert base["paths"] == [str(run_a.resolve())]
            assert base["metrics"]["best_runtime"] is not None
            both = wh.baseline("security_sha", last_n=10)
            assert both["n_runs"] == 2

    def test_history_table_renders(self, run_a, run_b, db, tmp_path):
        with Warehouse(db) as wh:
            wh.index_run(run_a)
            wh.index_run(run_b)
            text = history_table(wh)
            assert "security_sha" in text
            assert "citroen" in text
            filtered = history_table(wh, benchmark="security_sha")
            assert "security_sha" in filtered


class TestFleetGate:
    def test_diff_against_warehouse_passes_comparable_run(self, run_a, run_b, db):
        with Warehouse(db) as wh:
            wh.index_run(run_a)
            wh.index_run(run_b)
        verdict = diff_against_warehouse(run_b, db, last_n=5)
        assert verdict["run_b"] == str(run_b)
        assert verdict["baseline"]["n_runs"] == 1
        names = [c["name"] for c in verdict["checks"]]
        assert names == [
            "best_runtime", "wall_seconds", "cache_hit_rate", "calibration_rmse",
        ]
        # same program, same budget, different seed: the runtime gate must
        # hold well inside the default 5% at these tolerances
        runtime = next(c for c in verdict["checks"] if c["name"] == "best_runtime")
        assert runtime["ratio"] is not None

    def test_empty_baseline_skips_not_fails(self, run_a, db):
        with Warehouse(db) as wh:
            wh.index_run(run_a)
        # the only indexed run IS the candidate: baseline is empty
        verdict = diff_against_warehouse(run_a, db, last_n=5)
        assert verdict["ok"]
        assert all(c["skipped"] for c in verdict["checks"])

    def test_regression_detected_against_fleet(self, run_a, db, tmp_path):
        with Warehouse(db) as wh:
            wh.index_run(run_a)
        slow = tmp_path / "slow"
        shutil.copytree(run_a, slow)
        result = json.loads((slow / "result.json").read_text())
        for m in result["measurements"]:
            m["runtime"] = m["runtime"] * 10
        (slow / "result.json").write_text(json.dumps(result))
        verdict = diff_against_warehouse(slow, db, last_n=5)
        assert "best_runtime" in verdict["regressions"]
        assert verdict["regressed"]


class TestCli:
    def test_obs_index_and_history(self, run_a, run_b, db, tmp_path, capsys):
        assert main(["obs", "index", str(run_a), str(run_b), "--db", str(db)]) == 0
        out = capsys.readouterr().out
        assert "2 item(s) indexed" in out
        assert main(["obs", "history", "--db", str(db)]) == 0
        out = capsys.readouterr().out
        assert "security_sha" in out
        assert main(
            ["obs", "history", "--db", str(db), "--benchmark", "security_sha"]
        ) == 0

    def test_obs_index_rejects_a_json_file(self, db, tmp_path):
        payload = tmp_path / "BENCH_x.json"
        payload.write_text('{"schema": "bench_interp"}')
        with pytest.raises(SystemExit) as exc:
            main(["obs", "index", str(payload), "--db", str(db)])
        message = str(exc.value.code)
        assert str(payload) in message and "not a run directory" in message
        with Warehouse(db) as wh:
            assert wh.runs() == []

    def test_obs_history_missing_db_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["obs", "history", "--db", str(tmp_path / "nope.sqlite")])

    def test_diff_against_cli(self, run_a, run_b, db, tmp_path, capsys):
        assert main(["obs", "index", str(run_a), "--db", str(db)]) == 0
        capsys.readouterr()
        json_out = tmp_path / "verdict.json"
        code = main(
            [
                "diff", str(run_b), "--against", "warehouse:last-5",
                "--db", str(db), "--max-wall-ratio", "5.0",
                "--max-runtime-ratio", "1.5", "--max-calibration-ratio", "10",
                "--max-cache-hit-drop", "1.0", "--json-out", str(json_out),
            ]
        )
        assert code == 0
        verdict = json.loads(json_out.read_text())
        assert verdict["run_a"].startswith("warehouse:last-5")

    def test_diff_against_rejects_bad_spec(self, run_a, db):
        with pytest.raises(SystemExit):
            main(["diff", str(run_a), "--against", "fleet:last-2", "--db", str(db)])
        with pytest.raises(SystemExit):
            main(["diff", str(run_a), str(run_a), "--against", "warehouse:last-2"])
        with pytest.raises(SystemExit):
            main(["diff", str(run_a)])  # run_b missing and no --against
