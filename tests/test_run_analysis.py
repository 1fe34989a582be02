"""Offline run analysis tests: result round-tripping, tolerant artifact
loading, the analyzer/differ (repro.obs.analysis), and the analyze/diff
CLI — including interrupted-run tolerance."""

import gc
import json
import math
import shutil

import pytest

from repro.cli import main
from repro.core.result import Measurement, TuningResult
from repro.obs import configure_logging
from repro.obs.analysis import DiffThresholds, analyze_run, diff_runs, load_run
from repro.obs.recorder import read_events, tail_jsonl
from repro.reporting import span_table, timeline


@pytest.fixture(scope="module", autouse=True)
def _info_logging():
    configure_logging("info")
    yield
    configure_logging("info")


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """One recorded seeded tune, shared by the module's tests (read-only)."""
    out = tmp_path_factory.mktemp("runs") / "run-a"
    # both twins start from an empty collector, so a full collection of
    # earlier tests' garbage cannot land in one twin's wall time only
    gc.collect()
    rc = main([
        "tune", "security_sha", "--budget", "12", "--seed", "1",
        "--seq-length", "8", "--trace-out", str(out),
        "--log-level", "warning",
    ])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def run_dir_b(tmp_path_factory):
    """A second recording at the same seed — the diff baseline's twin."""
    out = tmp_path_factory.mktemp("runs") / "run-b"
    gc.collect()
    rc = main([
        "tune", "security_sha", "--budget", "12", "--seed", "1",
        "--seq-length", "8", "--trace-out", str(out),
        "--log-level", "warning",
    ])
    assert rc == 0
    return out


def _interrupt(src, dst):
    """Copy a run dir and vandalise it the way a mid-run kill would."""
    shutil.copytree(src, dst)
    (dst / "result.json").unlink()
    (dst / "metrics.json").unlink()
    with open(dst / "events.jsonl", "a") as fh:
        # an unclosed span (no wall/cpu) followed by a half-written line
        fh.write(json.dumps({"type": "span", "name": "measure",
                             "ts": 99.0, "depth": 1}) + "\n")
        fh.write('{"type": "span", "name": "tru')
    return dst


class TestResultRoundTrip:
    def _sample(self):
        res = TuningResult(program="security_sha", tuner="citroen",
                           o3_runtime=2e-5, o0_runtime=9e-5)
        res.measurements = [
            Measurement(0, "all", ("a", "b"), 3e-5, 0.66,
                        sequences={"m0": ("a", "b")}),
            Measurement(1, "m0", ("c",), float("inf"), 0.0, correct=False,
                        status="crash"),
            Measurement(2, "m0", ("d", "e"), 1.8e-5, 1.11, status="ok"),
        ]
        res.best_config = {"m0": ("d", "e"), "m1": ("a",)}
        res.timing = {"compile_wall_seconds": 1.5, "compile_cache_hit_rate": 0.4}
        res.extras = {"dedup_hits": 3, "provenance": {"des": {"wins": 1}}}
        return res

    def test_round_trip_preserves_everything_kept_by_to_dict(self):
        res = self._sample()
        back = TuningResult.from_dict(res.to_dict())
        assert back.program == res.program and back.tuner == res.tuner
        assert back.o3_runtime == res.o3_runtime
        assert back.o0_runtime == res.o0_runtime
        assert back.best_config == res.best_config
        assert all(isinstance(s, tuple) for s in back.best_config.values())
        assert back.timing == res.timing
        assert back.extras["provenance"] == res.extras["provenance"]
        assert len(back.measurements) == 3
        for orig, rt in zip(res.measurements, back.measurements):
            assert rt.sequence == orig.sequence
            assert isinstance(rt.sequence, tuple)
            assert rt.runtime == orig.runtime or (
                math.isinf(rt.runtime) and math.isinf(orig.runtime)
            )
            assert rt.correct == orig.correct and rt.status == orig.status
        # derived quantities recompute, not deserialise
        assert back.best_runtime == res.best_runtime
        assert back.n_infeasible == 1

    def test_round_trip_through_recorder_json(self):
        # the recorder stringifies inf/nan; from_dict must parse them back
        from repro.obs.recorder import _jsonable

        res = self._sample()
        wire = json.loads(json.dumps(_jsonable(res.to_dict())))
        assert wire["measurements"][1]["runtime"] == "inf"
        back = TuningResult.from_dict(wire)
        assert math.isinf(back.measurements[1].runtime)
        assert back.best_runtime == res.best_runtime

    def test_nan_runtimes_survive(self):
        wire = {"program": "p", "tuner": "t", "o3_runtime": "nan",
                "measurements": [{"index": 0, "module": "all",
                                  "sequence": ["x"], "runtime": "nan"}]}
        back = TuningResult.from_dict(wire)
        assert math.isnan(back.o3_runtime)
        assert math.isnan(back.measurements[0].runtime)


class TestTolerantEventReading:
    def test_read_events_skips_malformed_lines(self, run_dir, tmp_path):
        broken = _interrupt(run_dir, tmp_path / "broken")
        path = broken / "events.jsonl"
        events = read_events(path)
        assert events, "valid prefix should still load"
        records, _, malformed, torn = tail_jsonl(path)
        assert records == events
        assert (malformed, torn) == (0, True)
        # a resuming writer newline-terminates the torn line: it becomes
        # malformed, and stays counted as one truncated line
        with open(path, "a") as fh:
            fh.write("\n")
        assert read_events(path) == events
        assert tail_jsonl(path)[2:] == (1, False)
        assert load_run(broken).truncated_events == 1

    def test_clean_file_has_no_malformed_lines(self, run_dir):
        assert tail_jsonl(run_dir / "events.jsonl")[2:] == (0, False)
        assert load_run(run_dir).truncated_events == 0


class TestTruncatedSpanRendering:
    _SPANS = [
        {"type": "span", "name": "init", "ts": 0.0, "depth": 0,
         "wall": 1.0, "cpu": 0.9},
        {"type": "span", "name": "measure", "ts": 1.0, "depth": 0,
         "wall": 2.0, "cpu": 1.8},
        {"type": "span", "name": "measure", "ts": 3.0, "depth": 0},  # unclosed
    ]

    def test_span_table_marks_unclosed_spans(self):
        text = span_table(self._SPANS)
        assert "measure*" in text
        assert "* span never closed" in text
        # the unclosed span contributes to the count but not the timings
        row = next(l for l in text.splitlines() if l.startswith("measure*"))
        assert "2" in row and "2.000" in row

    def test_span_table_all_unclosed_renders_question_marks(self):
        spans = [{"type": "span", "name": "propose", "ts": 0.0, "depth": 0}]
        text = span_table(spans)
        assert "propose*" in text and "?" in text

    def test_timeline_extends_unclosed_span_to_end(self):
        text = timeline(self._SPANS)
        assert "measure*" in text
        assert "? (unclosed)" in text
        # closed spans still show durations
        assert "1000.0 ms" in text

    def test_rendering_matches_on_closed_only_events(self, run_dir):
        events = read_events(run_dir / "events.jsonl")
        text = span_table(events)
        assert "*" not in text.replace("%", "")
        assert "(traced top-level time)" in text


class TestLoadAndAnalyze:
    def test_load_run_reads_all_artifacts(self, run_dir):
        run = load_run(run_dir)
        assert not run.interrupted
        assert run.manifest["program"] == "security_sha"
        assert run.result is not None
        assert len(run.result.measurements) == 12
        assert run.best_runtime() == run.result.best_runtime
        assert run.wall_seconds() > 0
        assert 0.0 <= run.cache_hit_rate() <= 1.0
        assert run.calibration_rmse() is None or run.calibration_rmse() >= 0.0
        assert run.truncated_events == 0

    def test_load_run_rejects_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_run(tmp_path / "nope")

    def test_analyze_full_run_report_sections(self, run_dir):
        report = analyze_run(run_dir)
        for needle in (
            "# Run report:",
            "## Outcome",
            "## Where did the time go (Fig 5.12)",
            "## Surrogate calibration (Table 5.1 / Fig 5.7)",
            "## Generator provenance (Fig 5.9)",
            "## Convergence",
            "## Metrics",
            "best runtime:",
            "security_sha",
        ):
            assert needle in report, needle
        assert "interrupted" not in report

    def test_compile_paths_reach_result_metrics_and_report(self, run_dir):
        # walked and dispatched compiles, and graph re-derivations, are
        # counted in the registry and reported by result.json and analyze
        run = load_run(run_dir)
        timing = run.result.timing
        counters = run.metrics["counters"]
        assert timing["compile_walked"] == counters["engine.walked"]
        assert timing["compile_dispatched"] == counters["engine.dispatched"] == 0
        assert timing["graph_rederived"] == counters["compiler.graph_rederived"]
        n = int(timing["n_compiles"])
        assert (
            f"- compiles: {n} ({timing['compile_walked'] / n:.1%} walked in the "
            "tuning process, 0.0% dispatched to workers;"
        ) in analyze_run(run_dir)

    def test_analyze_interrupted_run_still_reports(self, run_dir, tmp_path):
        broken = _interrupt(run_dir, tmp_path / "crash")
        run = load_run(broken)
        assert run.interrupted and run.result is None
        report = analyze_run(broken)
        assert "**interrupted run**" in report
        assert "no result.json" in report
        assert "1 truncated event line(s)" in report
        assert "measure*" in report  # the unclosed span renders, not raises
        assert "(no measurements recorded)" in report


class TestDiffRuns:
    def test_identical_seed_runs_pass_default_gates(self, run_dir, run_dir_b):
        verdict = diff_runs(run_dir, run_dir_b)
        assert verdict["ok"] and not verdict["regressed"]
        assert verdict["regressions"] == []
        runtime = next(
            c for c in verdict["checks"] if c["name"] == "best_runtime"
        )
        assert runtime["ratio"] == pytest.approx(1.0)
        assert not verdict["interrupted"]["a"]

    def test_doctored_regression_is_caught(self, run_dir, tmp_path):
        slow = tmp_path / "slow"
        shutil.copytree(run_dir, slow)
        data = json.loads((slow / "result.json").read_text())
        for m in data["measurements"]:
            if isinstance(m["runtime"], (int, float)):
                m["runtime"] *= 2.0
        (slow / "result.json").write_text(json.dumps(data))
        verdict = diff_runs(run_dir, slow)
        assert verdict["regressed"]
        assert "best_runtime" in verdict["regressions"]
        runtime = next(
            c for c in verdict["checks"] if c["name"] == "best_runtime"
        )
        assert runtime["ratio"] == pytest.approx(2.0)

    def test_missing_inputs_skip_instead_of_fail(self, run_dir, tmp_path):
        broken = _interrupt(run_dir, tmp_path / "gone")
        verdict = diff_runs(run_dir, broken)
        runtime = next(
            c for c in verdict["checks"] if c["name"] == "best_runtime"
        )
        assert runtime["skipped"] and runtime["ok"]
        assert verdict["interrupted"]["b"]

    def test_disabled_gates_are_skipped(self, run_dir, run_dir_b):
        thresholds = DiffThresholds(
            max_runtime_ratio=None, max_wall_ratio=None,
            max_cache_hit_drop=None, max_calibration_ratio=None,
        )
        verdict = diff_runs(run_dir, run_dir_b, thresholds)
        assert verdict["ok"]
        assert all(c["skipped"] for c in verdict["checks"])


class TestCli:
    def test_analyze_prints_report(self, run_dir, capsys):
        rc = main(["analyze", str(run_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "# Run report:" in out
        assert "## Surrogate calibration" in out

    def test_analyze_out_writes_file(self, run_dir, tmp_path, capsys):
        report_path = tmp_path / "report.md"
        rc = main(["analyze", str(run_dir), "--out", str(report_path)])
        assert rc == 0
        assert report_path.read_text().startswith("# Run report:")

    def test_analyze_missing_dir_exits_nonzero(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["analyze", str(tmp_path / "missing")])

    def test_diff_exit_codes_gate_regressions(self, run_dir, run_dir_b,
                                              tmp_path, capsys):
        verdict_path = tmp_path / "verdict.json"
        rc = main([
            "diff", str(run_dir), str(run_dir_b),
            "--json-out", str(verdict_path),
        ])
        assert rc == 0
        verdict = json.loads(verdict_path.read_text())
        assert verdict["ok"] is True
        # an absurdly tight wall gate forces the regression exit code
        rc = main([
            "diff", str(run_dir), str(run_dir_b),
            "--max-wall-ratio", "1e-9", "--log-level", "warning",
        ])
        assert rc == 1

    def test_compare_writes_leaderboard_json(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        rc = main([
            "compare", "security_sha", "--tuners", "random,citroen",
            "--budget", "10", "--seed", "1",
            "--trace-out", str(out), "--log-level", "warning",
        ])
        assert rc == 0
        payload = json.loads((out / "compare.json").read_text())
        assert payload["program"] == "security_sha"
        assert {e["tuner"] for e in payload["leaderboard"]} == {
            "random", "citroen",
        }
        # leaderboard sorted best-first and pointing at real sub-runs
        speeds = [e["speedup_vs_o3"] for e in payload["leaderboard"]]
        assert speeds == sorted(speeds, reverse=True)
        for entry in payload["leaderboard"]:
            assert (out / entry["tuner"] / "result.json").exists()
        # the parent dir analyzes as a comparison report
        report = analyze_run(out)
        assert "# Comparison report:" in report
        assert "## Leaderboard" in report
        assert "random" in report and "citroen" in report

    def test_no_diagnostics_flag_strips_decision_events(self, tmp_path,
                                                        capsys):
        out = tmp_path / "plain"
        rc = main([
            "tune", "security_sha", "--budget", "10", "--seed", "1",
            "--seq-length", "8", "--trace-out", str(out),
            "--no-diagnostics", "--log-level", "warning",
        ])
        assert rc == 0
        events = read_events(out / "events.jsonl")
        assert not any(e.get("name") == "decision" for e in events)
        # the analyzer degrades gracefully: report renders, diagnostics empty
        report = analyze_run(out)
        assert "(no decision records" in report
