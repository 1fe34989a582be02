"""Live streaming: incremental tailing, epoch splicing, and `repro watch`.

Covers the follow-mode reader contract (torn tails unconsumed, byte
offsets as resume tokens), the epoch-aware metrics merge behind resumed
runs, and the RunWatcher/dashboard over finished, killed-style, and
resumed run directories.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.analysis import analyze_run, load_run
from repro.obs.metrics import MetricsRegistry, merge_snapshots
from repro.obs.recorder import RunRecorder, read_events, tail_jsonl
from repro.obs.stream import RunWatcher, normalize_epochs, render, watch
from repro.obs.warehouse import Warehouse


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("stream") / "run"
    code = main(
        [
            "tune", "security_sha", "--budget", "12", "--seed", "1",
            "--seq-length", "8", "--trace-out", str(out),
            "--log-level", "warning",
        ]
    )
    assert code == 0
    return out


def _killed_copy(src: Path, dst: Path) -> Path:
    """A killed-style run dir: no result/metrics, torn event tail."""
    shutil.copytree(src, dst)
    (dst / "result.json").unlink()
    (dst / "metrics.json").unlink()
    with open(dst / "events.jsonl", "a") as fh:
        fh.write('{"type": "span", "name": "measure", "ts": 99.0, "depth": 1}\n')
        fh.write('{"type": "span", "name": "tru')  # no newline: torn
    return dst


class TestTailJsonl:
    def test_torn_tail_left_unconsumed(self, tmp_path):
        p = tmp_path / "x.jsonl"
        p.write_text('{"a": 1}\n{"b": 2}\n{"c": ')
        records, offset, malformed, torn = tail_jsonl(p)
        assert records == [{"a": 1}, {"b": 2}]
        assert malformed == 0 and torn
        # the offset points at the torn line's first byte; completing the
        # line makes the next poll pick it up without re-reading
        with open(p, "a") as fh:
            fh.write('3}\n{"d": 4}\n')
        more, offset2, _, torn = tail_jsonl(p, offset=offset)
        assert more == [{"c": 3}, {"d": 4}]
        assert offset2 > offset and not torn

    def test_complete_but_malformed_line_skipped_and_counted(self, tmp_path):
        p = tmp_path / "x.jsonl"
        p.write_text('{"a": 1}\nnot json\n{"b": 2}\n')
        records, _, malformed, torn = tail_jsonl(p)
        assert records == [{"a": 1}, {"b": 2}]
        assert malformed == 1 and not torn

    def test_missing_file_reads_empty(self, tmp_path):
        assert tail_jsonl(tmp_path / "nope.jsonl", offset=7) == ([], 7, 0, False)
        assert read_events(tmp_path / "nope.jsonl") == []

    def test_follow_agrees_with_plain_read(self, run_dir, tmp_path):
        # a live copy grown in two writes, the first ending mid-line
        data = (run_dir / "events.jsonl").read_bytes()
        cut = data.index(b"\n", len(data) // 2) - 5
        live = tmp_path / "events.jsonl"
        live.write_bytes(data[:cut])
        first, offset, _, torn = tail_jsonl(live)
        assert torn
        with open(live, "ab") as fh:
            fh.write(data[cut:])
        rest, _, _, torn = tail_jsonl(live, offset=offset)
        assert not torn
        assert first + rest == read_events(run_dir / "events.jsonl")


class TestNormalizeEpochs:
    def test_single_epoch_passthrough(self):
        evs = [
            {"type": "span", "name": "a", "ts": 0.0, "wall": 1.0},
            {"type": "span", "name": "b", "ts": 1.5, "wall": 0.5},
        ]
        assert normalize_epochs(evs) == evs

    def test_resume_splices_monotonic_timeline(self):
        evs = [
            {"type": "span", "name": "a", "ts": 1.0, "wall": 2.0},
            {"type": "event", "name": "resume_epoch", "epoch": 2},
            {"type": "span", "name": "b", "ts": 0.5, "wall": 1.0},
            {"type": "event", "name": "resume_epoch", "epoch": 3},
            {"type": "span", "name": "c", "ts": 0.25, "wall": 0.0},
        ]
        out = normalize_epochs(evs)
        assert [e["name"] for e in out] == ["a", "b", "c"]
        ts = [e["ts"] for e in out]
        assert ts == sorted(ts)
        assert ts[1] == pytest.approx(3.5)  # epoch-1 end (1+2) + 0.5
        assert ts[2] == pytest.approx(4.75)  # epoch-2 end (3+1.5) + 0.25


class TestMergeSnapshots:
    def test_counters_sum_gauges_last_histograms_exact(self):
        a = MetricsRegistry()
        a.counter("n").inc(3)
        a.gauge("g").set(1)
        for v in (1.0, 2.0, 3.0):
            a.histogram("h").observe(v)
        b = MetricsRegistry()
        b.counter("n").inc(4)
        b.gauge("g").set(9)
        for v in (10.0, 20.0):
            b.histogram("h").observe(v)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["counters"]["n"] == 7
        assert merged["gauges"]["g"] == 9
        h = merged["histograms"]["h"]
        assert h["count"] == 5
        assert h["sum"] == pytest.approx(36.0)
        assert h["min"] == 1.0 and h["max"] == 20.0
        assert h["mean"] == pytest.approx(36.0 / 5)
        # quantiles come from the larger epoch (a: 3 observations)
        assert h["p50"] == a.histogram("h").quantile(0.5)

    def test_empty_and_missing_sections_tolerated(self):
        merged = merge_snapshots([{}, {"counters": {"x": 1}}, {"counters": {"x": 2}}])
        assert merged["counters"]["x"] == 3


class TestResumeAwareMetrics:
    def test_graceful_resume_merges_epochs(self, tmp_path):
        d = tmp_path / "run"
        rec = RunRecorder(d, manifest={"command": "tune", "program": "p"})
        rec.registry.counter("task.measurements").inc(5)
        rec.write_metrics()
        rec.close()

        rec2 = RunRecorder(d, resume=True)
        assert rec2.epoch == 2
        rec2.registry.counter("task.measurements").inc(7)
        rec2.write_metrics()
        rec2.close()

        m = json.loads((d / "metrics.json").read_text())
        assert m["epoch"] == 2
        assert m["counters"]["task.measurements"] == 7  # this epoch only
        assert len(m["epochs"]) == 1
        assert m["cumulative"]["counters"]["task.measurements"] == 12

    def test_resume_emits_seam_marker(self, tmp_path):
        d = tmp_path / "run"
        RunRecorder(d, manifest={"command": "tune"}).close()
        rec2 = RunRecorder(d, resume=True)
        rec2.close()
        markers = [
            e for e in read_events(d / "events.jsonl")
            if e.get("name") == "resume_epoch"
        ]
        assert len(markers) == 1
        assert markers[0]["epoch"] == 2

    def test_sigkilled_epoch_still_counts(self, tmp_path):
        # a killed first process leaves no metrics.json; the seam-marker
        # trail (here: none) plus the resume itself must still advance
        d = tmp_path / "run"
        rec = RunRecorder(d, manifest={"command": "tune"})
        rec._events_file.flush()
        rec._events_file.close()  # simulate SIGKILL: no close(), no metrics
        rec2 = RunRecorder(d, resume=True)
        assert rec2.epoch == 2
        rec2.write_metrics()
        rec2.close()
        m = json.loads((d / "metrics.json").read_text())
        assert m["epoch"] == 2
        assert "cumulative" in m

        rec3 = RunRecorder(d, resume=True)
        assert rec3.epoch == 3  # counted from the durable marker trail
        rec3.close()


class TestRunWatcher:
    def test_finished_run(self, run_dir):
        state = RunWatcher(run_dir).refresh()
        assert state.finished and not state.interrupted
        assert state.n_measurements == 12
        assert state.budget == 12
        assert state.best_runtime is not None
        assert state.o3_runtime is not None and state.o3_runtime > 0
        assert state.speedup(state.best_runtime) == pytest.approx(
            state.o3_runtime / state.best_runtime
        )
        assert state.counters.get("task.measurements") == 12
        assert state.epoch == 1
        text = render(state)
        assert "FINISHED" in text and "12/12" in text

    def test_killed_run(self, run_dir, tmp_path):
        killed = _killed_copy(run_dir, tmp_path / "killed")
        state = RunWatcher(killed).refresh()
        assert not state.finished
        assert state.n_measurements == 12  # the WAL is the progress truth
        assert state.resumable
        text = render(state)
        assert "resume" in text
        assert "--resume" in text

    def test_incremental_refresh_consumes_only_new_bytes(self, tmp_path):
        d = tmp_path / "live"
        d.mkdir()
        (d / "manifest.json").write_text(
            json.dumps({"command": "tune", "program": "p", "budget": 4})
        )
        watcher = RunWatcher(d)
        st = watcher.refresh()
        assert st.n_measurements == 0 and not st.finished
        assert "WAITING" in render(st)
        with open(d / "wal.jsonl", "w") as fh:
            fh.write(json.dumps({"type": "wal", "schema": "repro.wal/v1"}) + "\n")
            fh.write(json.dumps({"type": "anchor", "o3_runtime": 2.0}) + "\n")
            fh.write(json.dumps({"type": "measure", "n": 1, "value": 1.0}) + "\n")
            fh.write(
                json.dumps(
                    {"type": "slot", "index": 0, "runtime": 1.0, "status": "ok"}
                )
                + "\n"
            )
        st = watcher.refresh()
        assert st.n_measurements == 1
        assert st.o3_runtime == 2.0
        assert st.best_history == [1.0]
        with open(d / "wal.jsonl", "a") as fh:
            fh.write(json.dumps({"type": "measure", "n": 2, "value": 3.0}) + "\n")
            fh.write(
                json.dumps(
                    {"type": "slot", "index": 1, "runtime": 3.0, "status": "crash"}
                )
                + "\n"
            )
        st = watcher.refresh()
        assert st.n_measurements == 2
        assert st.best_history == [1.0, 1.0]  # incumbent keeps the best
        assert st.failures == {"crash": 1}
        render(st)  # renders without crashing mid-flight

    def test_watch_once_and_cli(self, run_dir):
        state = watch(run_dir, once=True, out=lambda s: None)
        assert state.finished
        assert main(["watch", str(run_dir), "--once", "--log-level", "warning"]) == 0

    def test_watch_cli_on_killed_run(self, run_dir, tmp_path):
        killed = _killed_copy(run_dir, tmp_path / "killed-cli")
        assert main(["watch", str(killed), "--once", "--log-level", "warning"]) == 0

    def test_watch_max_frames_bounds_live_run(self, tmp_path):
        d = tmp_path / "never-finishes"
        d.mkdir()
        (d / "manifest.json").write_text(json.dumps({"command": "tune"}))
        frames = []
        state = watch(d, interval=0.01, max_frames=2, out=frames.append)
        assert len(frames) == 2
        assert not state.finished


class TestReadersAgree:
    """`repro watch`, `repro analyze` and `repro obs index` read progress
    and epoch through one fold, so they report the same numbers."""

    def test_cache_served_slot_counts_as_progress(self, tmp_path):
        # this BOCA history revisits one configuration, which the task's
        # verdict cache serves: a slot record with no measure record
        d = tmp_path / "boca"
        code = main(
            [
                "tune", "security_sha", "--tuner", "boca", "--budget", "24",
                "--seed", "3", "--seq-length", "10", "--trace-out", str(d),
                "--log-level", "warning",
            ]
        )
        assert code == 0
        state = RunWatcher(d).refresh()
        assert state.n_measurements < state.n_slots == 24
        assert state.progress == 24 == load_run(d).wal_measurements
        assert state.to_dict()["progress"] == 24
        assert "24/24" in render(state)

    def test_killed_after_resume_epoch(self, tmp_path):
        # a run SIGKILLed, resumed, and SIGKILLed again: two recorders
        # that never close, so no metrics.json records the epoch
        d = tmp_path / "run"
        for resume in (False, True):
            rec = RunRecorder(d, manifest={"command": "tune"}, resume=resume)
            rec.write_event({"type": "event", "name": "tick", "ts": 0.0})
            rec._events_file.close()
        assert not (d / "metrics.json").exists()
        assert RunWatcher(d).refresh().epoch == 2
        assert load_run(d).epoch == 2
        with Warehouse(tmp_path / "wh.sqlite") as wh:
            assert wh.index_run(d)["epoch"] == 2
        assert "**resumed run**: epoch 2" in analyze_run(d)
