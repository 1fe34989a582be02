"""Tests for the observability subsystem (repro.obs)."""

import json
import time

import pytest

from repro import AutotuningTask, Citroen, cbench_program
from repro.cli import main
from repro.core.eval_engine import CompileEngine
from repro.obs import (
    MetricsRegistry,
    NULL_TRACER,
    RunRecorder,
    Tracer,
    configure_logging,
    read_events,
)
from repro.obs.log import _StdoutHandler
from repro.reporting import span_table, timeline


def _tiny_task(**kw):
    return AutotuningTask(cbench_program("security_sha"), seed=0, seq_length=8, **kw)


class TestTracer:
    def test_span_nesting_and_parentage(self):
        tracer = Tracer()
        with tracer.span("outer", kind="test"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.spans()  # inner finishes first
        assert inner["name"] == "inner" and outer["name"] == "outer"
        assert outer["depth"] == 0 and outer["parent"] is None
        assert inner["depth"] == 1 and inner["parent"] == outer["id"]
        assert outer["attrs"] == {"kind": "test"}

    def test_timing_monotonicity(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                time.sleep(0.002)
        inner, outer = tracer.spans()
        assert 0.0 <= inner["wall"] <= outer["wall"]
        assert outer["ts"] <= inner["ts"]  # parent starts first
        assert inner["cpu"] >= 0.0 and outer["cpu"] >= 0.0

    def test_sibling_spans_do_not_nest(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        a, b = tracer.spans()
        assert a["depth"] == b["depth"] == 0
        assert b["ts"] >= a["ts"]

    def test_set_attaches_attrs_mid_span(self):
        tracer = Tracer()
        with tracer.span("s") as sp:
            sp.set(candidates=7)
        assert tracer.spans()[0]["attrs"]["candidates"] == 7

    def test_point_events_carry_parent(self):
        tracer = Tracer()
        with tracer.span("phase"):
            tracer.event("tick", n=1)
        tick = [e for e in tracer.events() if e["type"] == "event"][0]
        assert tick["name"] == "tick" and tick["attrs"] == {"n": 1}
        assert tick["parent"] == tracer.spans()[0]["id"]

    def test_error_spans_are_flagged(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        assert tracer.spans()[0]["error"] == "ValueError"

    def test_disabled_tracer_records_nothing(self):
        assert NULL_TRACER.events() == []
        with NULL_TRACER.span("x") as sp:
            sp.set(a=1)  # no-op, no crash
        NULL_TRACER.event("y")
        assert NULL_TRACER.events() == []

    def test_retention_is_bounded(self):
        tracer = Tracer(keep=5)
        for i in range(20):
            with tracer.span(f"s{i}"):
                pass
        events = tracer.events()
        assert len(events) == 5
        assert events[-1]["name"] == "s19"


class TestHistogram:
    def test_exact_stats_small_sample(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        for v in [1.0, 2.0, 3.0, 4.0, 100.0]:
            h.observe(v)
        assert h.count == 5
        assert h.sum == pytest.approx(110.0)
        assert h.min == 1.0 and h.max == 100.0
        assert h.quantile(0.0) == 1.0 and h.quantile(1.0) == 100.0

    def test_quantile_bounds_and_ordering(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        for v in range(1, 101):
            h.observe(float(v))
        p50, p90, p99 = h.quantile(0.5), h.quantile(0.9), h.quantile(0.99)
        assert h.min <= p50 <= p90 <= p99 <= h.max
        assert p50 == pytest.approx(50.0, abs=2.0)
        assert p90 == pytest.approx(90.0, abs=2.0)

    def test_decimation_keeps_exact_count_and_bounded_memory(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", max_samples=64)
        for v in range(10_000):
            h.observe(float(v))
        assert h.count == 10_000
        assert len(h._samples) < 64
        assert h.min == 0.0 and h.max == 9999.0
        assert 0.0 <= h.quantile(0.5) <= 9999.0
        # the decimated subsample is evenly spread, so p50 is still central
        assert h.quantile(0.5) == pytest.approx(5000.0, rel=0.25)

    def test_bad_quantile_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("h").quantile(1.5)


class TestMetricsRegistry:
    def test_get_or_create_and_type_conflicts(self):
        reg = MetricsRegistry()
        c = reg.counter("x")
        assert reg.counter("x") is c
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_counter_is_monotonic(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("c").inc(-1)

    def test_snapshot_shapes(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(1.5)
        reg.histogram("h").observe(2.0)
        snap = reg.snapshot()
        assert snap["counters"]["c"] == 3
        assert snap["gauges"]["g"] == 1.5
        assert snap["histograms"]["h"]["count"] == 1
        assert set(snap["histograms"]["h"]) >= {"p50", "p90", "p99", "mean"}
        json.dumps(snap)  # must be JSON-serialisable as-is

    def test_registry_pickles_across_process_boundary(self):
        import pickle

        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.histogram("h").observe(1.0)
        clone = pickle.loads(pickle.dumps(reg))
        assert clone.counter("c").value == 2
        clone.counter("c").inc()  # lock was re-created


class TestEngineMetrics:
    def test_stats_reads_from_registry_with_legacy_keys(self):
        reg = MetricsRegistry()
        eng = CompileEngine(lambda n, s: (n, tuple(s)), metrics=reg)
        eng.compile_batch([("m", (1, 2)), ("m", (1, 2)), ("m", (3,))])
        stats = eng.stats()
        assert stats["n_compiles"] == 2
        assert stats["cache_hits"] == 1 and stats["cache_misses"] == 2
        # the same numbers live in the shared registry
        snap = reg.snapshot()
        assert snap["counters"]["engine.compiles"] == 2
        assert snap["counters"]["engine.cache_hits"] == 1
        assert snap["histograms"]["engine.compile_seconds"]["count"] == 2

    def test_engine_emits_compile_batch_spans(self):
        tracer = Tracer()
        eng = CompileEngine(lambda n, s: (n, tuple(s)), tracer=tracer)
        eng.compile_batch([("m", (1,)), ("m", (1,)), ("m", (2,))])
        (span,) = tracer.spans()
        assert span["name"] == "compile_batch"
        assert span["attrs"]["size"] == 3
        assert span["attrs"]["compiles"] == 2
        assert span["attrs"]["cache_hits"] == 1
        assert span["attrs"]["failures"] == 0

    def test_failure_counters_flow_to_span_attrs(self):
        def flaky(name, seq):
            raise RuntimeError("nope")

        tracer = Tracer()
        eng = CompileEngine(flaky, max_retries=1, retry_backoff=0.0, tracer=tracer)
        out = eng.compile_batch([("m", (1,))])[0]
        assert out.status == "error"
        attrs = tracer.spans()[0]["attrs"]
        assert attrs["failures"] == 1 and attrs["retries"] == 1


class TestRunRecorder:
    def test_jsonl_round_trip(self, tmp_path):
        with RunRecorder(tmp_path / "run", manifest={"seed": 3}) as rec:
            with rec.tracer.span("phase", module="m0"):
                rec.tracer.event("tick", value=float("inf"))
        events = read_events(tmp_path / "run" / "events.jsonl")
        # close() appends the recorder's own self-accounting span last
        assert [e["name"] for e in events] == ["tick", "phase", "obs.overhead"]
        assert events[1]["attrs"] == {"module": "m0"}
        assert events[0]["attrs"]["value"] == "inf"  # non-finite stringified

    def test_manifest_determinism_under_fixed_seed(self, tmp_path):
        manifest = {"program": "security_sha", "seed": 7, "budget": 10}
        RunRecorder(tmp_path / "a", manifest=manifest).close()
        RunRecorder(tmp_path / "b", manifest=manifest).close()
        a = (tmp_path / "a" / "manifest.json").read_bytes()
        b = (tmp_path / "b" / "manifest.json").read_bytes()
        assert a == b
        parsed = json.loads(a)
        assert parsed["seed"] == 7 and "git_rev" in parsed and "version" in parsed

    def test_metrics_written_on_close(self, tmp_path):
        rec = RunRecorder(tmp_path / "run", manifest={})
        rec.registry.counter("c").inc(5)
        rec.close()
        snap = json.loads((tmp_path / "run" / "metrics.json").read_text())
        assert snap["counters"]["c"] == 5

    def test_write_result_serialises_tuning_result(self, tmp_path):
        with _tiny_task() as task:
            res = Citroen(task, seed=1).tune(4)
        with RunRecorder(tmp_path / "run", manifest={}) as rec:
            rec.write_result(res)
        payload = json.loads((tmp_path / "run" / "result.json").read_text())
        assert payload["n_measurements"] == 4
        assert len(payload["measurements"]) == 4
        assert payload["best_runtime"] > 0


class TestInstrumentedTune:
    def test_traced_run_reconstructs_phase_timeline(self, tmp_path):
        rec = RunRecorder(tmp_path / "run", manifest={"seed": 1})
        with _tiny_task(tracer=rec.tracer, metrics=rec.registry) as task:
            Citroen(task, seed=1).tune(14)
        rec.close()
        events = read_events(tmp_path / "run" / "events.jsonl")
        names = {e["name"] for e in events if e["type"] == "span"}
        assert {"init", "fit", "propose", "candidate_gen", "featurize",
                "acquisition", "compile_batch", "measure"} <= names
        batch = next(
            e for e in events
            if e["type"] == "span" and e["name"] == "compile_batch"
        )
        assert {"cache_hits", "cache_misses", "failures", "timeouts",
                "queue_wait_seconds"} <= set(batch["attrs"])
        table = span_table(events)
        assert "measure" in table and "compile_batch" in table
        tl = timeline(events)
        assert "#" in tl and "propose" in tl

    def test_tracing_does_not_change_tuner_history(self):
        def run(**kw):
            with _tiny_task(**kw) as task:
                return Citroen(task, seed=1).tune(12)

        plain = run()
        traced = run(tracer=Tracer(), metrics=MetricsRegistry())
        assert [m.runtime for m in plain.measurements] == [
            m.runtime for m in traced.measurements
        ]
        assert plain.best_config == traced.best_config

    def test_metrics_every_emits_snapshot_events(self):
        tracer = Tracer()
        with _tiny_task(tracer=tracer, metrics_every=2) as task:
            Citroen(task, seed=1).tune(6)
        snaps = [e for e in tracer.events() if e["name"] == "metrics"]
        assert len(snaps) == 3  # every 2nd of 6 measurements
        assert snaps[-1]["attrs"]["n_measurements"] == 6
        assert "engine.compiles" in snaps[-1]["attrs"]["metrics"]

    def test_tracer_overhead_below_5_percent_of_tiny_tune(self):
        # per-span cost, microbenchmarked on an enabled retaining tracer
        bench = Tracer()
        n = 2000
        t0 = time.perf_counter()
        for _ in range(n):
            with bench.span("x"):
                pass
        per_span = (time.perf_counter() - t0) / n

        # a traced tiny tune: how many spans did it emit, how long did it run
        tracer = Tracer()
        t0 = time.perf_counter()
        with _tiny_task(tracer=tracer) as task:
            Citroen(task, seed=1).tune(10)
        tune_wall = time.perf_counter() - t0
        n_spans = len(tracer.events())
        assert n_spans > 10
        assert per_span * n_spans < 0.05 * tune_wall, (
            f"tracing {n_spans} spans at {per_span * 1e6:.1f}us each is "
            f">=5% of a {tune_wall:.3f}s tune"
        )


class TestLogging:
    def test_info_is_print_compatible(self, capsys):
        log = configure_logging("info")
        log.info("hello      : world")
        assert capsys.readouterr().out == "hello      : world\n"

    def test_configure_is_idempotent(self):
        log = configure_logging("info")
        configure_logging("debug")
        configure_logging("info")
        handlers = [h for h in log.handlers if isinstance(h, _StdoutHandler)]
        assert len(handlers) == 1

    def test_warning_level_silences_info(self, capsys):
        log = configure_logging("warning")
        try:
            log.info("should not appear")
            assert capsys.readouterr().out == ""
        finally:
            configure_logging("info")

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            configure_logging("verbose")


class TestCliTracing:
    def test_trace_out_smoke(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main([
            "tune", "security_sha", "--budget", "5", "--seed", "1",
            "--seq-length", "8", "--trace-out", str(out),
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "speedup/-O3" in text
        assert "where did the time go" in text
        for artifact in ("manifest.json", "events.jsonl", "metrics.json",
                         "result.json"):
            assert (out / artifact).exists(), artifact
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["program"] == "security_sha"
        assert manifest["seed"] == 1 and manifest["tuner"] == "citroen"
        events = read_events(out / "events.jsonl")
        assert any(e["name"] == "measure" for e in events)
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["counters"]["task.measurements"] == 5

    def test_repro_trace_env_arms_recording(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "envrun"
        monkeypatch.setenv("REPRO_TRACE", str(out))
        rc = main([
            "tune", "security_sha", "--budget", "4", "--seed", "1",
            "--seq-length", "8",
        ])
        assert rc == 0
        assert (out / "events.jsonl").exists()

    def test_compare_trace_out_writes_per_tuner_dirs(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        rc = main([
            "compare", "security_sha", "--tuners", "random,ga",
            "--budget", "4", "--trace-out", str(out),
        ])
        assert rc == 0
        assert (out / "random" / "events.jsonl").exists()
        assert (out / "ga" / "events.jsonl").exists()

    def test_log_level_warning_silences_report(self, capsys):
        rc = main([
            "tune", "security_sha", "--budget", "4", "--seed", "1",
            "--seq-length", "8", "--log-level", "warning",
        ])
        try:
            assert rc == 0
            assert capsys.readouterr().out == ""
        finally:
            configure_logging("info")
