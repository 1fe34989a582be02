"""Exporters (Chrome trace, Prometheus) and the observability overhead guard."""

import json
import os
import time
from pathlib import Path

import pytest

from repro import AutotuningTask, Citroen, cbench_program
from repro.cli import main
from repro.obs.export import (
    chrome_trace,
    prometheus_text,
    write_chrome_trace,
    write_prometheus,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import EVENT_FSYNC_INTERVAL, RunRecorder, read_events
from repro.obs.trace import Tracer


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("export") / "run"
    assert main(
        [
            "tune", "security_sha", "--budget", "12", "--seed", "1",
            "--seq-length", "8", "--trace-out", str(out),
            "--log-level", "warning",
        ]
    ) == 0
    return out


def _validate_chrome_schema(trace):
    """The subset of the Trace Event Format that Perfetto requires."""
    assert isinstance(trace, dict)
    events = trace["traceEvents"]
    assert isinstance(events, list) and events
    for e in events:
        assert e["ph"] in ("X", "B", "i", "M")
        assert isinstance(e["name"], str)
        assert isinstance(e["pid"], int)
        if e["ph"] != "M" or "tid" in e:
            if e["ph"] != "M":
                assert isinstance(e["tid"], int)
        if e["ph"] in ("X", "B", "i"):
            assert isinstance(e["ts"], (int, float))
            assert e["ts"] >= 0
        if e["ph"] == "X":
            assert isinstance(e["dur"], (int, float))
            assert e["dur"] >= 0
    json.dumps(trace)  # must be serialisable as-is


class TestChromeTrace:
    def test_real_run_validates(self, run_dir, tmp_path):
        out = tmp_path / "trace.json"
        events = read_events(run_dir / "events.jsonl")
        trace = write_chrome_trace(events, out)
        _validate_chrome_schema(trace)
        _validate_chrome_schema(json.loads(out.read_text()))
        names = {e["name"] for e in trace["traceEvents"]}
        assert "tune" in names or "measure" in names

    def test_nested_spans_round_trip(self):
        captured = []
        tracer = Tracer(sink=captured.append)
        with tracer.span("outer"):
            with tracer.span("inner"):
                time.sleep(0.002)
        trace = chrome_trace(captured)
        spans = {e["name"]: e for e in trace["traceEvents"] if e["ph"] == "X"}
        outer, inner = spans["outer"], spans["inner"]
        assert outer["tid"] == inner["tid"]
        # nesting survives as interval containment, which is exactly how
        # trace viewers reconstruct the flame graph from "X" events
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-6

    def test_unclosed_span_becomes_begin_event(self):
        events = [
            {"type": "span", "name": "done", "ts": 0.0, "wall": 1.0, "depth": 0},
            # the shape an interrupted run leaves: opened, never closed
            {"type": "span", "name": "cut", "ts": 0.5, "depth": 1},
        ]
        trace = chrome_trace(events)
        by_name = {e["name"]: e for e in trace["traceEvents"] if e["ph"] in "XB"}
        assert by_name["done"]["ph"] == "X"
        assert by_name["cut"]["ph"] == "B"
        assert "dur" not in by_name["cut"]
        _validate_chrome_schema(trace)

    def test_resumed_run_timeline_is_monotonic(self):
        events = [
            {"type": "span", "name": "a", "ts": 1.0, "wall": 2.0},
            {"type": "event", "name": "resume_epoch", "epoch": 2},
            {"type": "span", "name": "b", "ts": 0.5, "wall": 1.0},
        ]
        trace = chrome_trace(events)
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert spans[0]["ts"] < spans[1]["ts"]
        # the seam marker itself does not become a trace event
        assert all(e["name"] != "resume_epoch" for e in trace["traceEvents"])

    def test_point_events_and_thread_metadata(self):
        events = [
            {"type": "span", "name": "s", "ts": 0.0, "wall": 1.0, "thread": "w-1"},
            {"type": "event", "name": "tick", "ts": 0.5, "attrs": {"k": 1}},
        ]
        trace = chrome_trace(events)
        instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        assert instants[0]["name"] == "tick"
        assert instants[0]["args"] == {"k": 1}
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        lane_names = {e["args"]["name"] for e in meta}
        assert {"repro", "w-1"} <= lane_names

    def test_analyze_chrome_trace_flag(self, run_dir, tmp_path):
        out = tmp_path / "t.json"
        assert main(
            [
                "analyze", str(run_dir), "--chrome-trace", str(out),
                "--log-level", "warning",
            ]
        ) == 0
        _validate_chrome_schema(json.loads(out.read_text()))


class TestPrometheus:
    def test_registry_exposition(self):
        reg = MetricsRegistry()
        reg.counter("engine.cache_hits").inc(5)
        reg.gauge("engine.cache_size").set(3)
        for v in (0.1, 0.2, 0.3):
            reg.histogram("task.measure_seconds").observe(v)
        text = prometheus_text(reg)
        assert "# TYPE repro_engine_cache_hits_total counter" in text
        assert "repro_engine_cache_hits_total 5" in text
        assert "# TYPE repro_engine_cache_size gauge" in text
        assert "# TYPE repro_task_measure_seconds summary" in text
        assert 'repro_task_measure_seconds{quantile="0.5"}' in text
        assert "repro_task_measure_seconds_count 3" in text

    def test_labels_attached_to_every_sample(self):
        reg = MetricsRegistry()
        reg.counter("n").inc()
        reg.histogram("h").observe(1.0)
        text = prometheus_text(reg, labels={"program": "sha", "seed": "1"})
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            assert 'program="sha"' in line and 'seed="1"' in line

    def test_name_sanitization(self):
        text = prometheus_text({"counters": {"weird-name.1": 2}}, prefix="repro")
        assert "repro_weird_name_1_total 2" in text

    def test_cumulative_snapshot_preferred(self):
        snap = {
            "counters": {"n": 1},
            "cumulative": {"counters": {"n": 12}, "gauges": {}, "histograms": {}},
        }
        assert "repro_n_total 12" in prometheus_text(snap)

    def test_analyze_prometheus_flag(self, run_dir, tmp_path):
        out = tmp_path / "m.prom"
        assert main(
            [
                "analyze", str(run_dir), "--prometheus", str(out),
                "--log-level", "warning",
            ]
        ) == 0
        text = out.read_text()
        assert "repro_task_measurements_total" in text
        assert 'program="security_sha"' in text

    def test_write_prometheus_round_trip(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("x").inc(2)
        out = tmp_path / "x.prom"
        text = write_prometheus(reg, out)
        assert out.read_text() == text


class TestOverheadGuard:
    #: wall seconds the recorder may spend per event it writes (encoding,
    #: write, flush, and its share of the periodic fsync); 0.06-0.12 ms
    #: over 10 tunes on a 2-core x86-64 VM
    MAX_SECONDS_PER_EVENT = 0.5e-3

    def test_overhead_per_event_bounded_and_histories_bit_identical(
        self, tmp_path, monkeypatch
    ):
        """Tracing + recording costs a bounded amount per written event,
        whatever the tune's speed, and does not perturb the search by a
        single bit."""

        def run(recorder):
            with AutotuningTask(
                cbench_program("security_sha"),
                platform="arm-a57",
                seed=1,
                seq_length=16,
                tracer=None if recorder is None else recorder.tracer,
                metrics=None if recorder is None else recorder.registry,
            ) as task:
                res = Citroen(task, seed=3).tune(30)
            return res

        plain = run(None)

        recorder = RunRecorder(
            tmp_path / "run", manifest={"command": "tune", "program": "security_sha"}
        )
        fsyncs = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: fsyncs.append(fd) or real_fsync(fd))
        traced = run(recorder)
        # so far the recorder has only written events
        event_seconds, event_fsyncs = recorder.overhead_seconds, len(fsyncs)
        recorder.write_result(traced)
        recorder.write_metrics()
        recorder.close()

        history = lambda r: [  # noqa: E731
            (m.module, tuple(m.sequence), m.runtime) for m in r.measurements
        ]
        assert history(plain) == history(traced)

        # self-accounting: the recorder's own span + counter agree
        metrics = json.loads((tmp_path / "run" / "metrics.json").read_text())
        counter = metrics["counters"]["obs.overhead_seconds"]
        # the counter was synced at write_metrics time; the recorder keeps
        # accruing through close(), so the live total can only be larger
        assert 0 < counter <= recorder.overhead_seconds
        events = read_events(tmp_path / "run" / "events.jsonl")
        overhead_events = [e for e in events if e.get("name") == "obs.overhead"]
        assert len(overhead_events) == 1
        assert overhead_events[0]["wall"] >= counter * 0.5

        # the cost per event, not per tune second: a faster tune writes the
        # same events, so this bound does not move with the tune's speed
        written = len(events) - 1  # all but close()'s obs.overhead span
        assert written > 100
        per_event = event_seconds / written
        assert per_event < self.MAX_SECONDS_PER_EVENT, (
            f"recorder spent {per_event * 1e3:.3f} ms per event "
            f"({event_seconds:.4f}s over {written} events)"
        )
        # one fsync per EVENT_FSYNC_INTERVAL events, not per event
        assert event_fsyncs <= written // EVENT_FSYNC_INTERVAL, (
            f"{event_fsyncs} fsyncs for {written} events"
        )
