"""``repro explain`` tests: attribution replay, no-op detection, the
explain.json artifact, warehouse pass_stats ingestion, and the analyze /
export integration of the pass.* span family."""

import json
import sqlite3

import pytest

from repro.cli import main
from repro.obs import configure_logging
from repro.obs.analysis import analyze_run
from repro.obs.explain import explain_run
from repro.obs.export import chrome_trace
from repro.obs.recorder import _atomic_write_json, read_events
from repro.obs.warehouse import (
    SCHEMA_VERSION,
    Warehouse,
    pass_history_table,
)
from repro.reporting import pass_attribution_table, pass_span_summary


@pytest.fixture(scope="module", autouse=True)
def _info_logging():
    configure_logging("info")
    yield
    configure_logging("info")


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """One traced, pipeline-traced seeded tune shared by the module."""
    out = tmp_path_factory.mktemp("runs") / "explained"
    rc = main([
        "tune", "security_sha", "--budget", "10", "--seed", "2",
        "--seq-length", "8", "--trace-out", str(out),
        "--pipeline-trace", "incumbents", "--log-level", "warning",
    ])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def report(run_dir):
    return explain_run(run_dir)


class TestExplainRun:
    def test_report_covers_the_best_config(self, run_dir, report):
        result = json.load(open(run_dir / "result.json"))
        assert {m.module for m in report.modules} == set(result["best_config"])
        for mod in report.modules:
            assert list(mod.sequence) == result["best_config"][mod.module]
            assert len(mod.passes) == len(mod.sequence)

    def test_identifies_at_least_one_noop_pass(self, report):
        # the acceptance criterion: real tuned sequences carry dead weight
        assert report.n_noop >= 1
        for mod in report.modules:
            for p in mod.passes:
                if p.noop:
                    assert p.marginal_seconds == 0.0

    def test_deterministic_speedup_is_consistent(self, report):
        assert report.best_seconds > 0
        assert report.o3_seconds > 0
        assert report.speedup == pytest.approx(
            report.o3_seconds / report.best_seconds
        )

    def test_prefix_curve_ends_at_the_incumbent(self, report):
        for mod in report.modules:
            assert len(mod.prefix_seconds) == len(mod.sequence) + 1
            assert mod.prefix_seconds[-1] == pytest.approx(
                report.best_seconds
            )

    def test_explain_json_is_written_as_the_recorder_writes(self, run_dir, report, tmp_path):
        # one atomic writer (tmp + fsync + replace) for every run artifact
        twin = tmp_path / "twin.json"
        _atomic_write_json(twin, report.to_dict())
        assert (run_dir / "explain.json").read_text() == twin.read_text()
        assert not (run_dir / "explain.json.tmp").exists()

    def test_explain_json_written_with_schema(self, run_dir, report):
        payload = json.load(open(run_dir / "explain.json"))
        assert payload["schema"] == 1
        assert payload["program"] == "security_sha"
        assert payload["n_noop"] == report.n_noop
        assert payload["speedup"] == pytest.approx(report.speedup)
        mods = payload["modules"]
        assert len(mods) == len(report.modules)
        for mod in mods:
            for p in mod["passes"]:
                assert set(p) >= {
                    "index", "pass", "wall", "changed", "noop",
                    "marginal_seconds", "stats_delta", "ir_delta",
                }

    def test_render_contains_attribution_table_and_noops(self, report):
        text = report.render()
        assert "Speedup attribution" in text
        assert "marginal us" in text
        assert "no-op" in text

    def test_compile_and_execution_caches_dedup(self, report):
        cs, es = report.compile_stats, report.execution_stats
        assert cs["compiles"] < cs["requests"]
        assert es["executions"] < es["requests"]

    def test_replay_consumes_no_rng(self, run_dir):
        # two explains of the same run are byte-identical apart from wall
        # clocks: compare everything timing-free
        a = explain_run(run_dir, write_json=False).to_dict()
        b = explain_run(run_dir, write_json=False).to_dict()

        def strip(d):
            for mod in d["modules"]:
                for p in mod["passes"]:
                    p.pop("wall"), p.pop("cpu")
            return d

        assert strip(a) == strip(b)

    def test_rejects_run_without_result(self, tmp_path):
        empty = tmp_path / "empty-run"
        empty.mkdir()
        (empty / "manifest.json").write_text(json.dumps({"command": "tune"}))
        with pytest.raises(ValueError):
            explain_run(empty)


class TestExplainCli:
    def test_cli_writes_report_and_chrome_trace(self, run_dir, tmp_path, capsys):
        out = tmp_path / "explain.md"
        ct = tmp_path / "replay.json"
        rc = main([
            "explain", str(run_dir), "--out", str(out),
            "--chrome-trace", str(ct),
        ])
        assert rc == 0
        assert "marginal us" in out.read_text()
        trace = json.load(open(ct))
        cats = {e.get("cat") for e in trace["traceEvents"]}
        assert "pass" in cats
        names = {e["name"] for e in trace["traceEvents"]}
        assert "pass.run" in names and "pass.pipeline" in names

    def test_cli_no_prefixes_skips_curves(self, run_dir, capsys):
        rc = main(["explain", str(run_dir), "--no-prefixes", "--no-json"])
        assert rc == 0
        assert "prefix replay" not in capsys.readouterr().out


class TestPassSpanIntegration:
    def test_tune_events_carry_pass_spans(self, run_dir):
        events = read_events(run_dir / "events.jsonl")
        pass_runs = [e for e in events if e.get("name") == "pass.run"]
        assert pass_runs
        for e in pass_runs:
            assert e["attrs"]["pass"]
        traces = [e for e in events if e.get("name") == "pass.trace"]
        assert all(e["attrs"]["reason"] == "incumbent" for e in traces)

    def test_chrome_trace_categorizes_pass_spans(self, run_dir):
        events = read_events(run_dir / "events.jsonl")
        trace = chrome_trace(events)
        pass_events = [
            e for e in trace["traceEvents"] if e["name"].startswith("pass.")
        ]
        assert pass_events
        assert all(e["cat"] == "pass" for e in pass_events)

    def test_pass_span_summary_renders(self, run_dir):
        events = read_events(run_dir / "events.jsonl")
        text = pass_span_summary(events)
        assert "pass" in text and "changed" in text
        assert pass_span_summary([]) == (
            "(no pass.run spans; tune with --pipeline-trace)"
        )

    def test_analyze_report_has_pass_section(self, run_dir, report):
        text = analyze_run(run_dir)
        assert "## Pass pipeline (repro explain)" in text
        assert "marginal us" in text

    def test_attribution_table_empty(self):
        assert pass_attribution_table([]) == "(no passes)"


class TestWarehousePassStats:
    def test_index_ingests_explain_json(self, run_dir, report, tmp_path):
        db = tmp_path / "wh.sqlite"
        with Warehouse(db) as wh:
            wh.index_run(run_dir)
            rows = wh._conn.execute(
                "SELECT * FROM pass_stats ORDER BY module, position"
            ).fetchall()
        expected = sum(len(m.passes) for m in report.modules)
        assert len(rows) == expected
        assert sum(r["noop"] for r in rows) == report.n_noop

    def test_reindex_replaces_rows(self, run_dir, tmp_path):
        db = tmp_path / "wh.sqlite"
        with Warehouse(db) as wh:
            wh.index_run(run_dir)
            n1 = wh._conn.execute(
                "SELECT COUNT(*) AS n FROM pass_stats"
            ).fetchone()["n"]
            wh.index_run(run_dir)
            n2 = wh._conn.execute(
                "SELECT COUNT(*) AS n FROM pass_stats"
            ).fetchone()["n"]
        assert n1 == n2

    def test_pass_history_table_renders(self, run_dir, tmp_path, capsys):
        db = tmp_path / "wh.sqlite"
        rc = main(["obs", "index", str(run_dir), "--db", str(db)])
        assert rc == 0
        rc = main(["obs", "history", "--db", str(db), "--passes"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "pass attribution" in out
        assert "marginal us" in out
        with Warehouse(db) as wh:
            text = pass_history_table(wh, benchmark="no_such_program")
        assert "no pass stats indexed" in text

    def test_v1_warehouse_upgrades_in_place(self, run_dir, tmp_path):
        db = tmp_path / "old.sqlite"
        with Warehouse(db) as wh:  # current schema
            wh.index_run(run_dir)
        # rewind the version stamp and drop the v2 table: a v1 file
        conn = sqlite3.connect(str(db))
        with conn:
            conn.execute("DROP TABLE pass_stats")
            conn.execute(
                "UPDATE meta SET value = '1' WHERE key = 'schema_version'"
            )
        conn.close()
        with Warehouse(db) as wh:  # reopening migrates additively
            version = wh._conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()["value"]
            assert int(version) == SCHEMA_VERSION
            wh.index_run(run_dir)  # pass_stats table exists again
            assert wh.runs()  # v1 rows survived

    def test_newer_schema_still_refused(self, tmp_path):
        db = tmp_path / "future.sqlite"
        with Warehouse(db):
            pass
        conn = sqlite3.connect(str(db))
        with conn:
            conn.execute(
                "UPDATE meta SET value = '99' WHERE key = 'schema_version'"
            )
        conn.close()
        with pytest.raises(ValueError):
            Warehouse(db)


class TestWatchJson:
    def test_watch_json_snapshot(self, run_dir, capsys):
        rc = main(["watch", str(run_dir), "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["finished"] is True
        assert payload["interrupted"] is False
        assert payload["n_measurements"] == 10
        assert payload["budget"] == 10
        assert isinstance(payload["best_runtime"], float)
        assert payload["manifest"]["program"] == "security_sha"

    def test_watch_json_interrupted_exit_code(self, run_dir, tmp_path, capsys):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(run_dir, broken)
        # a WAL-salvaged run persists its partial result with the flag set
        result = json.load(open(broken / "result.json"))
        result.setdefault("extras", {})["interrupted"] = True
        (broken / "result.json").write_text(json.dumps(result))
        rc = main(["watch", str(broken), "--json"])
        assert rc == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["interrupted"] is True
