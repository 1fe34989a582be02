"""Tests for the CITROEN core: cost model, task framework, tuner."""

import numpy as np
import pytest

from repro.core import (
    AutotuningTask,
    Citroen,
    CitroenCostModel,
    TuningResult,
    differential_test,
)
from repro.core.generator import CandidateGenerator
from repro.core.result import Measurement
from repro.workloads import cbench_program, spec_program


@pytest.fixture(scope="module")
def gsm_task():
    return AutotuningTask(
        cbench_program("telecom_gsm"), platform="arm-a57", seed=0, seq_length=20
    )


class TestCostModel:
    def _obs(self, nvi, runtime):
        return {"long_term": {"slp-vectorizer.NumVectorInstructions": nvi,
                              "mem2reg.NumPromoted": 3}}, runtime

    def test_needs_two_observations(self):
        m = CitroenCostModel(seed=0)
        m.add_observation(*self._obs(0, 1.0))
        m.fit()
        assert not m.ready

    def test_learns_nvi_speedup_correlation(self):
        rng = np.random.default_rng(0)
        m = CitroenCostModel(seed=0)
        for _ in range(20):
            nvi = int(rng.integers(0, 10))
            runtime = 2.0 - 0.15 * nvi + 0.01 * rng.standard_normal()
            m.add_observation(*self._obs(nvi, runtime))
        m.fit()
        assert m.ready
        mu_hi, _ = m.predict([self._obs(9, 0)[0]])
        mu_lo, _ = m.predict([self._obs(0, 0)[0]])
        assert mu_hi[0] < mu_lo[0]  # more vector instructions -> faster

    def test_relevance_ranks_informative_stat(self):
        rng = np.random.default_rng(0)
        m = CitroenCostModel(seed=0)
        for _ in range(25):
            nvi = int(rng.integers(0, 10))
            noise_stat = int(rng.integers(0, 10))
            per = {"mod": {"slp.NVI": nvi, "noise.X": noise_stat}}
            m.add_observation(per, 2.0 - 0.2 * nvi)
        m.fit()
        top = m.top_statistics(1)
        assert top == ["mod::slp.NVI"]

    def test_coverage_and_signature_delegate(self):
        m = CitroenCostModel(seed=0)
        m.add_observation({"a": {"x.Y": 1}}, 1.0)
        m.add_observation({"a": {"x.Y": 3}}, 2.0)
        m.fit()
        assert m.coverage({"a": {"x.Y": 2}}) == pytest.approx(1.0)
        assert m.coverage({"a": {"new.Z": 5}}) < 1.0
        assert m.signature({"a": {"x.Y": 1}}) == m.signature({"a": {"x.Y": 1, "z.W": 0}})


class TestCandidateGenerator:
    def test_ask_has_provenance_and_dedup(self):
        g = CandidateGenerator(10, 8, seed=0)
        out = g.ask(5)
        assert {name for name, _ in out} <= {"des", "ga", "random"}
        keys = [tuple(seq) for _, seq in out]
        assert len(keys) == len(set(keys))

    def test_seed_incumbent_anchors_des(self):
        g = CandidateGenerator(10, 8, seed=0)
        seed_seq = np.arange(10) % 8
        g.seed_incumbent(seed_seq, 1.0)
        des = g.strategies["des"]
        assert np.array_equal(des.parent, seed_seq)

    def test_tell_updates_all(self):
        g = CandidateGenerator(6, 4, seed=0)
        seq = np.zeros(6, dtype=int)
        g.tell(seq, 0.5)
        for opt in g.strategies.values():
            assert opt.best_y == 0.5


class TestAutotuningTask:
    def test_hot_modules_identified(self, gsm_task):
        assert "long_term" in gsm_task.hot_modules
        assert all(m in [mod.name for mod in gsm_task.program.modules]
                   for m in gsm_task.hot_modules)

    def test_o3_beats_o0(self, gsm_task):
        assert gsm_task.o3_runtime < gsm_task.o0_runtime

    def test_compile_batch_returns_stats(self, gsm_task):
        idx = {p: i for i, p in enumerate(gsm_task.passes)}
        seq = [idx["mem2reg"], idx["slp-vectorizer"]] + [idx["dce"]] * 18
        (outcome,) = gsm_task.compile_batch([("long_term", seq)])
        mod, stats = outcome.value
        assert stats.get("slp-vectorizer.NumVectorInstructions", 0) > 0

    def test_measure_config_and_cache(self, gsm_task):
        before = gsm_task.n_measurements
        cfg = {"long_term": np.zeros(20, dtype=int)}
        result = TuningResult(program="telecom_gsm", tuner="t")
        m1, _ = gsm_task.evaluate(result, cfg, "t", "long_term", cache=True)
        m2, _ = gsm_task.evaluate(result, cfg, "t", "long_term", cache=True)
        assert m1.correct and m2.correct
        assert m1.runtime == m2.runtime  # memoised
        assert gsm_task.n_measurements == before + 1
        assert result.measurements == [m1, m2]

    def test_decode_roundtrip(self, gsm_task):
        seq = list(range(min(5, gsm_task.alphabet)))
        names = gsm_task.decode(seq)
        assert names == [gsm_task.passes[i] for i in seq]

    def test_timing_breakdown_keys(self, gsm_task):
        t = gsm_task.timing_breakdown()
        assert {"compile_seconds", "measure_seconds", "n_compiles", "n_measurements"} <= set(t)


class TestDifferentialTest:
    def test_equivalent_sequences_pass(self):
        prog = cbench_program("security_sha")
        ok, detail = differential_test(prog, {"sha_transform": ["mem2reg", "gvn", "dce"]})
        assert ok, detail

    def test_detects_broken_module(self):
        prog = cbench_program("security_sha")
        # sabotage: swap the outputs by mutilating a cloned module
        broken = prog.get_module("sha_transform").clone()
        fn = broken.functions["transform"]
        for inst in fn.instructions():
            if inst.op == "xor":
                inst.op = "and"
        prog2_modules = [broken if m.name == "sha_transform" else m for m in prog.modules]
        from repro.workloads.program import Program

        prog2 = Program("broken", prog2_modules)
        prog2._ref = prog.reference_output()  # reference from the real program
        ok, detail = differential_test(prog2, {})
        assert not ok


class TestCitroen:
    def test_tune_improves_and_records(self, gsm_task):
        tuner = Citroen(gsm_task, seed=3, n_init=5, per_strategy=3)
        res = tuner.tune(25)
        assert len(res.measurements) == 25
        assert res.speedup_over_o3() >= 0.95
        assert res.best_history[-1] <= res.best_history[0]
        assert res.extras["n_incorrect"] == 0
        assert res.best_config  # per-module best sequences reported
        assert res.timing["model_seconds"] >= 0

    def test_speedup_curve_monotone(self, gsm_task):
        tuner = Citroen(gsm_task, seed=4, n_init=5, per_strategy=3)
        res = tuner.tune(20)
        curve = res.speedup_curve([5, 10, 20])
        assert curve[0] <= curve[1] + 1e-12 <= curve[2] + 2e-12

    def test_process_executor_history_matches_serial(self, monkeypatch):
        for var in ("REPRO_INJECT_FAULTS", "REPRO_FAULT_RATE", "REPRO_FAULT_SEED",
                    "REPRO_FAULT_HANG_SECONDS"):
            monkeypatch.delenv(var, raising=False)

        def history(**kw):
            with AutotuningTask(
                cbench_program("security_sha"), platform="arm-a57", seed=0, seq_length=8, **kw
            ) as task:
                res = Citroen(task, seed=1, n_init=3, per_strategy=2).tune(8)
                # the engine only forks workers for a batch of 2+ uncached
                # candidates: jobs-1 of them, as this process compiles too
                workers = len(task.engine._workers)
                return workers, task.timing_breakdown()["n_compiles"], [
                    (m.module, m.sequence, m.runtime, m.correct, m.status)
                    for m in res.measurements
                ]

        _, n_serial, serial = history(jobs=1)
        workers, n_proc, proc = history(jobs=2)
        assert workers == 1
        assert proc == serial
        assert n_proc == n_serial

    def test_ablation_configs_construct_and_run(self):
        task = AutotuningTask(
            cbench_program("security_sha"), platform="arm-a57", seed=0, seq_length=16
        )
        for kw in (
            dict(use_coverage=False),
            dict(use_dedup=False),
            dict(generators=("random",)),
            dict(feature_mode="autophase"),
            dict(feature_mode="seq"),
            dict(feature_mode="tokens"),
            dict(module_policy="round-robin"),
        ):
            res = Citroen(task, seed=1, n_init=4, per_strategy=2, **kw).tune(8)
            assert len(res.measurements) == 8

    def test_unknown_feature_mode_raises(self, gsm_task):
        t = Citroen(gsm_task, seed=0, feature_mode="magic")
        with pytest.raises(KeyError):
            t.tune(6)

    def test_dedup_counter_advances(self, gsm_task):
        tuner = Citroen(gsm_task, seed=5, n_init=5, per_strategy=4)
        res = tuner.tune(15)
        assert res.extras["dedup_hits"] >= 0

    def test_adaptive_allocation_spends_budget_on_modules(self):
        task = AutotuningTask(
            spec_program("525.x264_r"), platform="arm-a57", seed=0, seq_length=16
        )
        tuner = Citroen(task, seed=2, n_init=5, per_strategy=2)
        res = tuner.tune(20)
        modules = set(res.extras["chosen_modules"]) - {"all"}
        assert modules <= set(task.hot_modules)
        assert len(modules) >= 1


class TestTuningResult:
    def test_speedup_at_budget_cut(self):
        r = TuningResult(program="p", tuner="t", o3_runtime=1.0)
        for i, rt in enumerate([2.0, 1.5, 0.5]):
            r.measurements.append(Measurement(i, "m", ("a",), rt, 1.0 / rt))
        assert r.speedup_over_o3(at=1) == pytest.approx(0.5)
        assert r.speedup_over_o3(at=3) == pytest.approx(2.0)
        assert r.speedup_over_o3() == pytest.approx(2.0)


class TestCodeSizeObjective:
    def test_codesize_tuning_beats_oz_ish(self):
        task = AutotuningTask(
            cbench_program("automotive_qsort1"),
            platform="arm-a57",
            seed=0,
            seq_length=16,
            objective="codesize",
        )
        assert task.o3_runtime < task.o0_runtime  # -O3 shrinks code here
        res = Citroen(task, seed=1, n_init=4, per_strategy=3).tune(15)
        assert res.best_runtime <= task.o3_runtime * 1.05
        assert res.extras["n_incorrect"] == 0
        assert all(float(m.runtime).is_integer() for m in res.measurements if m.correct)

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError):
            AutotuningTask(cbench_program("security_sha"), objective="energy")
