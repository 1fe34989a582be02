"""Tests for the fault-tolerant evaluation subsystem.

Covers:

* ``FaultInjector`` — deterministic per-key fault assignment at a fixed
  seed, rate extremes, kind parsing, and the miscompile corruptor;
* ``CompileEngine`` fault paths — crash mid-batch without dropping
  sibling results or skewing counters, per-candidate timeout, bounded
  retry-with-backoff, quarantine storage and hits, and the legacy raising
  interface (bookkeeping first, raise after);
* ``AutotuningTask`` degradation — measurement crashes become infeasible
  verdicts, failure verdicts are cached (known-bad configs are never
  re-measured), context-manager lifecycle, env-driven chaos construction;
* end-to-end — ``Citroen.tune`` and a baseline complete their full budget
  at a 5% fault rate, report nonzero fault counters, keep a best config
  that passes differential testing, and reproduce bit-identical
  measurement histories under the same fault seed, at any ``jobs``.
"""

import threading
import time

import numpy as np
import pytest

from repro import (
    AutotuningTask,
    Citroen,
    CompileEngine,
    FaultInjector,
    cbench_program,
    differential_test,
)
from repro.baselines import RandomSearchTuner
from repro.cli import main
from repro.core.faults import (
    FAULT_KINDS,
    CompilerCrash,
    TransientCompileError,
    corrupt_module,
    parse_fault_kinds,
)
from repro.core.result import TuningResult
from repro.machine.interp import FuelExhausted, InterpError


class TestFaultInjector:
    def test_deterministic_at_fixed_seed(self):
        a = FaultInjector(rate=0.3, seed=5)
        b = FaultInjector(rate=0.3, seed=5)
        keys = [("m", [i, i + 1]) for i in range(200)]
        fa = [a.fault_for(n, s) for n, s in keys]
        fb = [b.fault_for(n, s) for n, s in keys]
        assert fa == fb
        assert any(f is not None for f in fa)
        # repeated queries for the same key never change their answer
        assert [a.fault_for(n, s) for n, s in keys] == fa

    def test_different_seed_different_faults(self):
        a = FaultInjector(rate=0.3, seed=5)
        b = FaultInjector(rate=0.3, seed=6)
        keys = [("m", [i]) for i in range(200)]
        assert [a.fault_for(n, s) for n, s in keys] != [
            b.fault_for(n, s) for n, s in keys
        ]

    def test_rate_extremes(self):
        off = FaultInjector(rate=0.0, seed=0)
        on = FaultInjector(rate=1.0, seed=0)
        for i in range(50):
            assert off.fault_for("m", [i]) is None
            assert on.fault_for("m", [i]) in FAULT_KINDS

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector(rate=1.5)
        with pytest.raises(ValueError):
            FaultInjector(kinds=("segfault",))

    def test_parse_fault_kinds(self):
        assert parse_fault_kinds("none") == ()
        assert parse_fault_kinds("") == ()
        assert parse_fault_kinds("all") == FAULT_KINDS
        assert parse_fault_kinds("crash, transient") == ("crash", "transient")
        with pytest.raises(ValueError):
            parse_fault_kinds("crash,segfault")

    def test_crash_and_transient_wrapping(self):
        inj = FaultInjector(
            rate=1.0, kinds=("crash",), seed=1, transient_failures=2
        )
        fn = inj.wrap(lambda n, s: "compiled")
        with pytest.raises(CompilerCrash):
            fn("m", [0])
        with pytest.raises(CompilerCrash):  # crashes are deterministic
            fn("m", [0])

        tr = FaultInjector(rate=1.0, kinds=("transient",), seed=1, transient_failures=2)
        fn = tr.wrap(lambda n, s: "compiled")
        with pytest.raises(TransientCompileError):
            fn("m", [0])
        with pytest.raises(TransientCompileError):
            fn("m", [0])
        assert fn("m", [0]) == "compiled"  # third attempt succeeds

    def test_fault_free_keys_pass_through(self):
        inj = FaultInjector(rate=0.0, seed=0)
        fn = inj.wrap(lambda n, s: (n, tuple(s)))
        assert fn("m", [1, 2]) == ("m", (1, 2))


class TestEngineFaultPaths:
    def test_crash_mid_batch_keeps_siblings_and_counters(self):
        def compile_fn(name, seq):
            if seq[0] == 3:
                raise RuntimeError("boom")
            return tuple(seq)

        eng = CompileEngine(compile_fn, jobs=4, max_retries=1, retry_backoff=0.001)
        items = [("m", [i]) for i in range(8)]
        outs = eng.compile_batch(items)
        eng.close()
        # siblings survive, in input order
        for i, o in enumerate(outs):
            if i == 3:
                assert o.status == "error" and not o.ok
                assert "boom" in o.error
                assert o.attempts == 2  # first try + one retry
            else:
                assert o.ok and o.value == (i,)
        stats = eng.stats()
        assert stats["cache_misses"] == 8
        assert stats["n_compiles"] == 7  # failed candidate is not a compile
        assert stats["compile_failures"] == 1
        assert stats["compile_retries"] == 1
        assert stats["quarantine_size"] == 1

    def test_quarantine_serves_stored_failure(self):
        calls = []

        def compile_fn(name, seq):
            calls.append(tuple(seq))
            raise RuntimeError("always")

        eng = CompileEngine(compile_fn, jobs=1, max_retries=1, retry_backoff=0.001)
        first = eng.compile_batch([("m", [0])])[0]
        assert first.status == "error"
        assert len(calls) == 2  # original + retry
        assert ("m", (0,)) in eng._quarantine
        again = eng.compile_batch([("m", [0])])[0]
        assert again.status == "quarantined"
        assert again.attempts == 0
        assert len(calls) == 2  # never recompiled
        assert eng.stats()["quarantine_hits"] == 1
        assert eng.stats()["compile_failures"] == 1  # counted once, not per request

    def test_retry_backoff_recovers_transient(self):
        attempts = {}

        def flaky(name, seq):
            k = tuple(seq)
            attempts[k] = attempts.get(k, 0) + 1
            if attempts[k] <= 2:
                raise RuntimeError("transient")
            return "ok"

        eng = CompileEngine(flaky, jobs=1, max_retries=2, retry_backoff=0.001)
        out = eng.compile_batch([("m", [0])])[0]
        assert out.ok and out.value == "ok"
        assert out.attempts == 3
        assert eng.stats()["compile_retries"] == 2
        assert eng.stats()["compile_failures"] == 0
        assert ("m", (0,)) not in eng._quarantine

    def test_insufficient_retries_quarantine(self):
        inj = FaultInjector(rate=1.0, kinds=("transient",), seed=0, transient_failures=3)
        eng = CompileEngine(
            inj.wrap(lambda n, s: "ok"), jobs=1, max_retries=1, retry_backoff=0.001
        )
        out = eng.compile_batch([("m", [0])])[0]
        assert out.status == "error"
        assert ("m", (0,)) in eng._quarantine

    def test_timeout_path_and_quarantine(self):
        def compile_fn(name, seq):
            if seq[0] == 1:
                time.sleep(0.5)
            return tuple(seq)

        # the other worker answers items 0 and 2 before item 1 overruns,
        # which leaves no worker to wait on: the batch must end there.  It
        # runs on a daemon thread so that a hang fails this test, not the
        # whole suite
        eng = CompileEngine(compile_fn, jobs=2, timeout=0.1)
        batch = []
        thread = threading.Thread(
            target=lambda: batch.append(
                eng.compile_batch([("m", [0]), ("m", [1]), ("m", [2])])
            ),
            daemon=True,
        )
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive(), "the batch hung after its last item timed out"
        (outs,) = batch
        assert outs[0].ok and outs[2].ok  # siblings unharmed by the hung worker
        assert outs[1].status == "timeout"
        assert eng.stats()["compile_timeouts"] == 1
        assert ("m", (1,)) in eng._quarantine
        again = eng.compile_batch([("m", [1])])[0]
        assert again.status == "quarantined"
        assert eng.stats()["quarantine_hits"] == 1
        eng.close()

    def test_timeout_with_serial_jobs(self):
        def compile_fn(name, seq):
            if seq[0] == 0:
                time.sleep(0.5)
            return tuple(seq)

        # enforcing a timeout at jobs=1 forks one worker; a hung first
        # candidate must not starve the rest of the batch
        eng = CompileEngine(compile_fn, jobs=1, timeout=0.1)
        outs = eng.compile_batch([("m", [0]), ("m", [1]), ("m", [2])])
        assert outs[0].status == "timeout"
        assert outs[1].ok and outs[2].ok
        eng.close()

    def test_context_manager_closes_pool(self):
        with CompileEngine(lambda n, s: tuple(s), jobs=2) as eng:
            out = eng.compile_batch([("m", [i]) for i in range(4)])
            assert [o.value for o in out] == [(i,) for i in range(4)]
            processes = [w.process for w in eng._workers]
            assert len(processes) == 1 and processes[0].is_alive()
        assert not eng._workers
        # reaped: joined, so each has an exit code and is no zombie child
        assert all(p.exitcode is not None for p in processes)


@pytest.fixture(scope="module")
def sha_task():
    return AutotuningTask(
        cbench_program("security_sha"), platform="arm-a57", seed=0, seq_length=8
    )


class TestTaskDegradation:
    def test_measure_crash_is_infeasible_verdict(self):
        task = AutotuningTask(
            cbench_program("security_sha"), platform="arm-a57", seed=0, seq_length=8
        )

        def boom(*a, **k):
            raise InterpError("injected crash")

        task.profiler.measure = boom
        value, ok = task.measure({}, config_key=("crashcfg",))
        assert not ok
        assert value == task.penalty_runtime
        assert np.isfinite(value)
        assert task.n_crashes == 1
        assert task.last_failure == "crash"
        # the failure verdict is cached: a revisit never re-measures
        n = task.n_measurements
        value2, ok2 = task.measure({}, config_key=("crashcfg",))
        assert (value2, ok2) == (value, False)
        assert task.n_measurements == n
        assert task.n_crashes == 1
        task.close()

    def test_fuel_exhausted_is_caught_too(self, sha_task):
        task = AutotuningTask(
            cbench_program("security_sha"), platform="arm-a57", seed=0, seq_length=8
        )

        def spin(*a, **k):
            raise FuelExhausted("fuel exhausted in @main")

        task.profiler.measure = spin
        value, ok = task.measure({})
        assert not ok and value == task.penalty_runtime
        task.close()

    def test_miscompile_verdict_cached(self, sha_task):
        task = sha_task
        name = task.hot_modules[0]
        mod, stats = task.compile_batch([(name, [0] * 8)])[0].value
        bad, _ = corrupt_module((mod, stats))
        n = task.n_measurements
        value, ok = task.measure({name: bad}, config_key=("badcfg",))
        assert not ok
        assert task.last_failure == "incorrect"
        value2, ok2 = task.measure({name: bad}, config_key=("badcfg",))
        assert (value2, ok2) == (value, False)
        assert task.n_measurements == n + 1  # second call was a cache hit

    def test_corrupt_module_changes_output(self, sha_task):
        task = sha_task
        name = task.hot_modules[0]
        mod, stats = task.compile_batch([(name, [0] * 8)])[0].value
        bad, bad_stats = corrupt_module((mod, stats))
        assert bad_stats == stats
        assert bad.num_instrs() > mod.num_instrs()
        assert mod.num_instrs() == task.compile_batch([(name, [0] * 8)])[0].value.module.num_instrs(), (
            "corruption must not mutate the compiled module"
        )
        _, ok = task.measure({name: bad})
        assert not ok

    def test_measure_config_with_quarantined_candidate(self):
        inj = FaultInjector(rate=1.0, kinds=("crash",), seed=0)
        task = AutotuningTask(
            cbench_program("security_sha"),
            platform="arm-a57",
            seed=0,
            seq_length=8,
            fault_injector=inj,
            compile_retries=0,
        )
        result = TuningResult(program="security_sha", tuner="t")
        cfg = {task.hot_modules[0]: np.zeros(8, dtype=int)}
        first, _ = task.evaluate(result, cfg, "t", cache=True)
        assert not first.correct and first.runtime == float("inf")
        assert first.status == "error"
        assert task.engine.stats()["compile_failures"] == 1
        # revisit: served from quarantine, not recompiled
        again, _ = task.evaluate(result, cfg, "t", cache=True)
        assert (again.correct, again.status) == (False, "quarantined")
        assert task.n_measurements == 0  # a failed compile is never measured
        assert task.engine.stats()["compile_failures"] == 1
        assert task.engine.stats()["quarantine_hits"] >= 1
        task.close()

    def test_task_context_manager(self):
        with AutotuningTask(
            cbench_program("security_sha"),
            platform="arm-a57",
            seed=0,
            seq_length=8,
            jobs=2,
        ) as task:
            task.compile_batch([(task.hot_modules[0], [i] * 8) for i in range(4)])
            assert task.engine._workers
        assert not task.engine._workers

    def test_env_chaos_builds_injector(self, monkeypatch):
        monkeypatch.setenv("REPRO_INJECT_FAULTS", "crash,transient")
        monkeypatch.setenv("REPRO_FAULT_RATE", "0.5")
        monkeypatch.setenv("REPRO_FAULT_SEED", "9")
        task = AutotuningTask(
            cbench_program("security_sha"), platform="arm-a57", seed=0, seq_length=8
        )
        assert task.fault_injector is not None
        assert task.fault_injector.kinds == ("crash", "transient")
        assert task.fault_injector.rate == 0.5
        assert task.fault_injector.seed == 9
        task.close()

    def test_env_chaos_with_jobs_compiles_on_process_workers(self, monkeypatch):
        # faults are a pure function of the candidate, so the forked
        # workers inject them as this process would
        monkeypatch.setenv("REPRO_INJECT_FAULTS", "crash,transient")
        monkeypatch.setenv("REPRO_FAULT_RATE", "0.3")
        monkeypatch.setenv("REPRO_FAULT_SEED", "2")
        with AutotuningTask(
            cbench_program("security_sha"), platform="arm-a57", seed=0,
            seq_length=8, jobs=2,
        ) as task:
            assert task.engine.kind == "process"
            res = Citroen(task, seed=1, n_init=3, per_strategy=2).tune(8)
            assert len(res.measurements) == 8
            assert len(task.engine._workers) == 1
            tb = task.timing_breakdown()
        assert tb["executor"] == "process"
        assert tb["compile_failures"] > 0 and tb["compile_retries"] > 0

    def test_env_chaos_ignored_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_INJECT_FAULTS", raising=False)
        with AutotuningTask(
            cbench_program("security_sha"), platform="arm-a57", seed=0, seq_length=8
        ) as task:
            assert task.fault_injector is None


def _chaos_tune(fault_seed, budget=15, jobs=1):
    # hang_seconds is well above compile_timeout, and compile_timeout is
    # well above a real compile (~ms): injected hangs always trip the
    # timeout, legitimate compiles never do, even on a loaded machine —
    # a prerequisite for the same-seed determinism assertion below.
    inj = FaultInjector(rate=0.05, seed=fault_seed, hang_seconds=0.4)
    task = AutotuningTask(
        cbench_program("telecom_gsm"),
        platform="arm-a57",
        seed=0,
        seq_length=12,
        fault_injector=inj,
        compile_timeout=0.1,
        jobs=jobs,
    )
    try:
        res = Citroen(task, seed=7, n_init=3, per_strategy=2).tune(budget)
        return task, res, dict(task.timing_breakdown())
    finally:
        task.close()


def _history(res):
    return [(m.module, m.sequence, m.runtime, m.correct, m.status) for m in res.measurements]


class TestChaosEndToEnd:
    def test_citroen_survives_5pct_fault_rate(self):
        task, res, tb = _chaos_tune(fault_seed=11)
        # the run completed its full budget despite crashes/hangs/miscompiles
        assert len(res.measurements) == 15
        assert tb["compile_failures"] > 0
        assert tb["compile_timeouts"] > 0
        assert tb["compile_retries"] > 0
        assert tb["quarantine_size"] > 0
        # the incumbent never absorbed an infeasible candidate
        assert np.isfinite(res.best_runtime)
        eq, detail = differential_test(
            task.program, {m: list(s) for m, s in res.best_config.items()}
        )
        assert eq, detail

    def test_same_fault_seed_identical_histories(self):
        _, r1, _ = _chaos_tune(fault_seed=11)
        _, r2, _ = _chaos_tune(fault_seed=11)
        assert _history(r1) == _history(r2)

    def test_chaos_history_does_not_depend_on_jobs(self):
        # at jobs=1 one forked worker compiles everything (the timeout
        # needs a worker it can kill); at jobs=2 two do
        _, r1, tb1 = _chaos_tune(fault_seed=11, jobs=1)
        _, r2, tb2 = _chaos_tune(fault_seed=11, jobs=2)
        assert tb1["executor"] == tb2["executor"] == "process"
        assert tb1["compile_timeouts"] > 0
        assert _history(r1) == _history(r2)

    def test_baseline_survives_crash_faults(self):
        inj = FaultInjector(rate=0.3, kinds=("crash",), seed=2)
        task = AutotuningTask(
            cbench_program("security_sha"),
            platform="arm-a57",
            seed=0,
            seq_length=8,
            fault_injector=inj,
            compile_retries=0,
        )
        res = RandomSearchTuner(task, seed=3).tune(10)
        task.close()
        assert len(res.measurements) == 10
        assert res.n_infeasible > 0
        infeasible = [m for m in res.measurements if not m.correct]
        assert all(np.isinf(m.runtime) for m in infeasible)
        assert all(m.status in ("error", "quarantined", "timeout") for m in infeasible)
        # feasible incumbents only
        assert np.isfinite(res.best_runtime)

    def test_cli_chaos_flags(self, capsys):
        rc = main(
            [
                "tune",
                "security_sha",
                "--budget", "8",
                "--seq-length", "8",
                "--inject-faults", "crash,hang,transient,miscompile",
                "--fault-rate", "0.2",
                "--fault-seed", "1",
                "--fault-hang-seconds", "0.15",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "faults" in out
        assert "injected" in out

    def test_cli_rejects_unknown_fault_kind(self):
        with pytest.raises(SystemExit):
            main(["tune", "security_sha", "--budget", "2", "--inject-faults", "segfault"])
