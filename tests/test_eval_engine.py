"""Tests for the parallel compile engine and the dedup/seed bugfixes.

Covers:

* ``CompileEngine`` — batch order preservation under parallelism,
  within-batch dedup, no results kept past a batch, thread-safe counters,
  wall-vs-worker time accounting;
* ``AutotuningTask.compile_batch`` — parity with one-item batches,
  dedup accounting, jobs-invariant results;
* ``AutotuningTask.evaluate`` — the one budget-slot path: incumbent
  reuse, infeasible compiles, whole-configuration records, the verdict
  cache;
* the stale cross-config dedup regression (per-module signature keys
  wrongly reused whole-program runtimes across incumbents);
* ``AutotuningTask.o3_sequence`` fallback when the pass alphabet is
  disjoint from the -O3 pipeline;
* truthful per-module sequence logging for whole-config measurements.
"""

import gc
import threading
import time
import weakref

import numpy as np
import pytest

from repro import (
    AutotuningTask,
    Citroen,
    CompileEngine,
    FaultInjector,
    cbench_program,
    spec_program,
)
from repro.baselines import RandomSearchTuner
from repro.compiler.opt_tool import available_passes
from repro.compiler.pipelines import pipeline
from repro.core.result import TuningResult
from repro.core.wal import WriteAheadLog, read_wal


def _fresh_result(task):
    """A TuningResult with the extras Citroen._evaluate appends to."""
    r = TuningResult(program=task.program.name, tuner="t", o3_runtime=task.o3_runtime)
    r.extras["winner_strategies"] = []
    r.extras["chosen_modules"] = []
    r.extras["dedup_hits"] = 0
    r.extras["chosen_coverage"] = []
    return r


class TestCompileEngine:
    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            CompileEngine(lambda n, s: None, jobs=0)
        with pytest.raises(ValueError):
            CompileEngine(lambda n, s: None, timeout=0)
        with pytest.raises(TypeError):  # no executor to choose
            CompileEngine(lambda n, s: None, executor="process")

    def test_batch_results_in_input_order_parallel(self):
        def slow_compile(name, seq):
            # later items finish first: order must still follow the input
            time.sleep(0.03 / (int(seq[0]) + 1))
            return (name, tuple(seq))

        eng = CompileEngine(slow_compile, jobs=4)
        items = [("m", [i]) for i in range(8)]
        try:
            out = eng.compile_batch(items)
        finally:
            eng.close()
        assert [o.value for o in out] == [("m", (i,)) for i in range(8)]

    def test_within_batch_duplicates_compile_once(self):
        calls = []

        def compile_fn(name, seq):
            calls.append((name, tuple(seq)))
            return tuple(seq)

        eng = CompileEngine(compile_fn, jobs=1)
        out = eng.compile_batch([("m", [1]), ("m", [1]), ("m", [2]), ("m", [1])])
        assert [o.value for o in out] == [(1,), (1,), (2,), (1,)]
        assert len(calls) == 2
        stats = eng.stats()
        assert stats["cache_hits"] == 2 and stats["cache_misses"] == 2

    def test_results_die_with_the_caller(self):
        class Result:
            pass

        eng = CompileEngine(lambda name, seq: Result(), jobs=1)
        out = [o.value for o in eng.compile_batch([("m", [1]), ("m", [1]), ("m", [2])])]
        assert out[0] is out[1]  # within-batch duplicates share one result
        ref = weakref.ref(out[0])
        del out
        gc.collect()
        assert ref() is None, "the engine kept a compile result alive"

    def test_counters_thread_safe_under_concurrent_clients(self):
        def compile_fn(name, seq):
            time.sleep(0.0005)
            return tuple(seq)

        eng = CompileEngine(compile_fn, jobs=4)
        n_threads, uniques, repeats = 6, 20, 3

        def client(tid):
            # disjoint key ranges per client so expected counts are exact
            items = [("m", [tid, i]) for i in range(uniques)] * repeats
            eng.compile_batch(items)

        threads = [threading.Thread(target=client, args=(t,)) for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        eng.close()
        total = n_threads * uniques * repeats
        stats = eng.stats()
        assert stats["n_compiles"] == n_threads * uniques
        assert stats["cache_misses"] == n_threads * uniques
        assert stats["cache_hits"] == total - n_threads * uniques
        assert stats["compile_cpu_seconds"] > 0

    def test_wall_time_below_worker_time_when_parallel(self):
        def compile_fn(name, seq):
            time.sleep(0.02)
            return 0

        par = CompileEngine(compile_fn, jobs=4)
        par.compile_batch([("m", [i]) for i in range(8)])
        par.close()
        stats = par.stats()
        assert stats["compile_wall_seconds"] < stats["compile_cpu_seconds"]

        ser = CompileEngine(compile_fn, jobs=1)
        ser.compile_batch([("m", [i]) for i in range(8)])
        # serial: wall covers the same work plus bookkeeping
        stats = ser.stats()
        assert stats["compile_wall_seconds"] >= stats["compile_cpu_seconds"]


@pytest.fixture(scope="module")
def gsm_task():
    return AutotuningTask(
        cbench_program("telecom_gsm"), platform="arm-a57", seed=0, seq_length=12
    )


@pytest.fixture(scope="module")
def x264_task():
    return AutotuningTask(
        spec_program("525.x264_r"), platform="arm-a57", seed=0, seq_length=12
    )


class TestTaskCompileBatch:
    def test_batch_matches_single_item_batches(self, gsm_task):
        rng = np.random.default_rng(0)
        seqs = [rng.integers(0, gsm_task.alphabet, size=12) for _ in range(3)]
        name = gsm_task.hot_modules[0]
        batch = gsm_task.compile_batch([(name, s) for s in seqs])
        for s, outcome in zip(seqs, batch):
            mod, stats = outcome.value
            mod2, stats2 = gsm_task.compile_batch([(name, s)])[0].value
            assert stats == stats2
            assert mod.num_instrs() == mod2.num_instrs()

    def test_cache_accounting(self):
        task = AutotuningTask(
            cbench_program("security_sha"), platform="arm-a57", seed=0, seq_length=8
        )
        name = task.hot_modules[0]
        seq = [0] * 8
        before = task.timing_breakdown()["n_compiles"]
        task.compile_batch([(name, seq), (name, seq)])  # duplicate: compiled once
        assert task.timing_breakdown()["n_compiles"] == before + 1
        assert task.engine.stats()["cache_hits"] == 1
        t = task.timing_breakdown()
        assert {
            "compile_wall_seconds",
            "compile_cache_hits",
            "compile_cache_misses",
            "compile_cache_hit_rate",
            "jobs",
        } <= set(t)

    def test_parallel_task_counts_deterministically(self):
        task = AutotuningTask(
            cbench_program("security_sha"),
            platform="arm-a57",
            seed=0,
            seq_length=8,
            jobs=4,
        )
        name = task.hot_modules[0]
        rng = np.random.default_rng(1)
        items = [(name, rng.integers(0, task.alphabet, size=8)) for _ in range(20)]
        task.compile_batch(items)
        keys = {(n, tuple(task.decode(s))) for n, s in items}
        timing = task.timing_breakdown()
        assert timing["n_compiles"] == len(keys)
        assert timing["compile_seconds"] > 0
        task.engine.close()


def _sha_task(**kw):
    return AutotuningTask(
        cbench_program("security_sha"), platform="arm-a57", seed=0, seq_length=8, **kw
    )


def _counting_measure(task):
    """Count calls to ``task.measure`` through the instance attribute, the
    way a benchmark harness wraps it."""
    calls = []
    measure = task.measure

    def counted(*args, **kwargs):
        calls.append(kwargs.get("config_key"))
        return measure(*args, **kwargs)

    task.measure = counted
    return calls


class TestEvaluate:
    def test_failed_compile_records_infeasible_slot_unmeasured(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.jsonl")
        task = _sha_task(
            fault_injector=FaultInjector(rate=1.0, kinds=("crash",), seed=0),
            compile_retries=0,
            wal=wal,
        )
        calls = _counting_measure(task)
        result = TuningResult(program="security_sha", tuner="t")
        name = task.hot_modules[0]
        meas, compiled = task.evaluate(
            result, {name: np.zeros(8, dtype=int)}, "probe", name, coverage=0.5
        )
        wal.close()
        assert calls == [] and task.n_measurements == 0
        assert result.measurements == [meas] and compiled == {}
        assert (meas.index, meas.module, meas.status) == (0, name, "error")
        assert not meas.correct
        assert meas.runtime == float("inf") and meas.speedup_vs_o3 == 0.0
        (slot,) = [r for r in read_wal(tmp_path / "wal.jsonl") if r["type"] == "slot"]
        assert slot["status"] == "error" and slot["correct"] is False
        assert slot["winner"] == "probe" and slot["module"] == name
        assert slot["coverage"] == 0.5
        assert slot["sequences"] == {name: list(task.decode([0] * 8))}

    def test_whole_configuration_slot(self, x264_task):
        task = x264_task
        rng = np.random.default_rng(4)
        cfg = {m: rng.integers(0, task.alphabet, size=12) for m in task.hot_modules}
        result = TuningResult(program="525.x264_r", tuner="t")
        meas, compiled = task.evaluate(result, cfg, "init")
        assert meas.correct and set(compiled) == set(cfg)
        assert meas.module == "all"
        assert meas.sequences == {m: tuple(task.decode(s)) for m, s in cfg.items()}
        assert meas.sequence == tuple(
            p for m in sorted(cfg) for p in task.decode(cfg[m])
        )
        assert meas.speedup_vs_o3 == task.o3_runtime / meas.runtime

    def test_incumbent_and_handed_in_modules_are_not_recompiled(self, x264_task):
        task = x264_task
        rng = np.random.default_rng(5)
        best = {m: rng.integers(0, task.alphabet, size=12) for m in task.hot_modules}
        result = TuningResult(program="525.x264_r", tuner="t")
        _, best_compiled = task.evaluate(result, best, "init")
        changed = task.hot_modules[0]
        seq = rng.integers(0, task.alphabet, size=12)
        proposal = task.compile_batch([(changed, seq)])[0].value
        cfg = dict(best)
        cfg[changed] = seq
        before = task.timing_breakdown()["n_compiles"]
        _, compiled = task.evaluate(
            result, cfg, "t", changed, incumbent=best,
            incumbent_compiled=best_compiled, compiled=proposal,
        )
        assert task.timing_breakdown()["n_compiles"] == before
        assert compiled[changed] is proposal
        for m in task.hot_modules[1:]:
            assert compiled[m] is best_compiled[m]
        # a stats-only compile result carries no module: it compiles again
        stats_only = task.compile_batch([(changed, seq)], stats_only=True)[0].value
        assert stats_only.module is None
        _, compiled = task.evaluate(
            result, cfg, "t", changed, incumbent=best,
            incumbent_compiled=best_compiled, compiled=stats_only,
        )
        assert task.timing_breakdown()["n_compiles"] == before + 2
        assert compiled[changed].module is not None

    @pytest.mark.parametrize("cache", [True, False])
    def test_verdict_cache_serves_revisits(self, cache):
        with _sha_task() as task:
            calls = _counting_measure(task)
            result = TuningResult(program="security_sha", tuner="t")
            cfg = {task.hot_modules[0]: np.arange(8) % task.alphabet}
            first, _ = task.evaluate(result, cfg, "t", cache=cache)
            state = task.profiler.rng.bit_generator.state
            again, _ = task.evaluate(result, cfg, "t", cache=cache)
            assert len(calls) == 2  # measure runs once per slot either way
            assert first.correct and again.correct
            if cache:
                # the first verdict, no noise drawn
                assert again.runtime == first.runtime
                assert task.profiler.rng.bit_generator.state == state
                assert task.n_measurements == 1
            else:
                assert task.profiler.rng.bit_generator.state != state
                assert task.n_measurements == 2


class TestJobsDeterminism:
    def test_tune_identical_at_jobs_1_and_4(self):
        def run(jobs):
            task = AutotuningTask(
                cbench_program("telecom_gsm"),
                platform="arm-a57",
                seed=0,
                seq_length=12,
                jobs=jobs,
            )
            res = Citroen(task, seed=7, n_init=3, per_strategy=2).tune(10)
            task.engine.close()
            return [(m.module, m.sequence, m.runtime) for m in res.measurements]

        assert run(1) == run(4)


class TestStaleDedupRegression:
    def test_full_config_signature_prevents_stale_reuse(self, x264_task):
        """The old per-module dedup key collides across incumbents; the
        full-config key does not."""
        task = x264_task
        assert len(task.hot_modules) >= 2
        tuner = Citroen(task, seed=1, n_init=2, per_strategy=2)
        result = _fresh_result(task)
        m1, m2 = task.hot_modules[:2]
        rng = np.random.default_rng(3)
        base = {m: rng.integers(0, task.alphabet, size=12) for m in task.hot_modules}
        cfg_a = dict(base)
        cfg_b = dict(base)
        cfg_b[m2] = rng.integers(0, task.alphabet, size=12)  # new incumbent on m2

        tuner._evaluate(cfg_a, result, winner="t")
        assert result.measurements[-1].correct
        runtime_a = result.measurements[-1].runtime
        tuner._evaluate(cfg_b, result, winner="t")
        assert result.measurements[-1].correct
        runtime_b = result.measurements[-1].runtime

        def feats(cfg):
            out = {}
            for name, seq in cfg.items():
                mod, stats = task.compile_batch([(name, seq)])[0].value
                out[name] = tuner._features_of(name, seq, mod, stats)
            return out

        feats_a, feats_b = feats(cfg_a), feats(cfg_b)
        # the scenario: m1's module-local statistics are identical in both
        # configs (same sequence), but the full configurations differ
        old_key = tuner.model.signature({m1: feats_a[m1]})
        assert tuner.model.signature({m1: feats_b[m1]}) == old_key
        assert tuner.model.signature(feats_a) != tuner.model.signature(feats_b)
        # old behaviour: _sig_runtime held old_key -> runtime_a, so proposing
        # m1's sequence again under incumbent cfg_b reused runtime_a for a
        # program whose true runtime is runtime_b.  Fixed table keys by the
        # full configuration, so the per-module key cannot match at all:
        assert old_key not in tuner._sig_runtime
        assert tuner._sig_runtime[tuner.model.signature(feats_a)] == runtime_a
        assert tuner._sig_runtime[tuner.model.signature(feats_b)] == runtime_b

    def test_remeasurement_updates_entry(self, gsm_task):
        """setdefault pinned the oldest runtime forever; re-measuring the
        same configuration must refresh the dedup entry."""
        task = gsm_task
        tuner = Citroen(task, seed=2, n_init=2, per_strategy=2)
        result = _fresh_result(task)
        cfg = {m: np.zeros(12, dtype=int) for m in task.hot_modules}
        tuner._evaluate(cfg, result, winner="t")
        tuner._evaluate(cfg, result, winner="t")
        assert result.measurements[-1].correct
        latest = result.measurements[-1].runtime
        assert len(tuner._sig_runtime) == 1
        assert next(iter(tuner._sig_runtime.values())) == latest


class TestO3SeedFallback:
    def _reduced_task(self, **kw):
        non_o3 = [p for p in available_passes() if p not in set(pipeline("-O3"))]
        assert len(non_o3) >= 2, "pass registry no longer has non-O3 passes"
        return AutotuningTask(
            cbench_program("security_sha"),
            platform="arm-a57",
            seed=0,
            passes=non_o3[:4],
            seq_length=8,
            **kw,
        )

    def test_o3_sequence_falls_back_to_random(self):
        task = self._reduced_task()
        rng, twin = np.random.default_rng(1), np.random.default_rng(1)
        with pytest.warns(UserWarning, match="no -O3 pipeline pass"):
            seq = task.o3_sequence(rng)
        # drawn from the caller's rng, as a random sequence would be
        assert np.array_equal(seq, twin.integers(0, task.alphabet, size=8))
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_o3_sequence_encodes_the_pipeline(self, gsm_task):
        o3 = pipeline("-O3")
        seq = gsm_task.o3_sequence(np.random.default_rng(0))
        assert seq.shape == (12,)
        names = gsm_task.decode(seq)
        assert names == [p for p in o3 if p in gsm_task.passes][:12]

    def test_citroen_seed_falls_back_to_random(self):
        task = self._reduced_task()
        tuner = Citroen(task, seed=1, n_init=2, per_strategy=2)
        with pytest.warns(UserWarning, match="no -O3 pipeline pass"):
            res = tuner.tune(4)
        assert len(res.measurements) == 4

    def test_baseline_seed_falls_back_to_random(self):
        task = self._reduced_task()
        tuner = RandomSearchTuner(task, seed=0)
        with pytest.warns(UserWarning, match="no -O3 pipeline pass"):
            res = tuner.tune(3)
        assert len(res.measurements) == 3


class TestTruthfulMeasurementLogs:
    def test_whole_config_measurements_record_every_module(self, x264_task):
        task = x264_task
        res = Citroen(task, seed=5, n_init=3, per_strategy=2).tune(8)
        assert any(m.module == "all" for m in res.measurements)
        for m in res.measurements:
            assert m.sequences, "full per-module config must be recorded"
            if m.module == "all":
                assert set(m.sequences) == set(task.hot_modules)
                flat = tuple(
                    p for name in sorted(m.sequences) for p in m.sequences[name]
                )
                assert m.sequence == flat
            else:
                assert m.sequence == m.sequences[m.module]

    def test_baseline_measurements_record_config(self, gsm_task):
        task = AutotuningTask(
            cbench_program("telecom_gsm"), platform="arm-a57", seed=0, seq_length=12
        )
        res = RandomSearchTuner(task, seed=3).tune(5)
        for m in res.measurements:
            assert m.sequence == m.sequences[m.module]
