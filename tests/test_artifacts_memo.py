"""The measurement store, the IR-identity execution memo, and their
determinism contract.

Three layers under test:

* :mod:`repro.machine.artifacts` — print-only IR fingerprints, compile
  results that carry their fingerprint, and the one LRU store;
* :class:`repro.machine.profiler.Profiler` — the execution memo replays
  recorded executions (including crashes) while drawing noise exactly as
  live, so measured values are bit-identical to live executions, and
  an in-place rewrite of a measured module is re-executed, not replayed;
* :class:`repro.core.task.AutotuningTask` and the CLI — seeded tuning
  histories are bit-identical across jobs × kill/resume, and run
  directories written with retired flags still resume and load.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro import cbench_program
from repro.cli import main
from repro.compiler.ir import Const, I64
from repro.compiler.opt_tool import run_opt
from repro.core.task import AutotuningTask
from repro.baselines.random_tuner import RandomSearchTuner
from repro.machine import artifacts
from repro.machine.artifacts import ArtifactStore, CompiledModule, ir_fingerprint
from repro.machine.bytecode import compile_module
from repro.machine.interp import FuelExhausted
from repro.machine.platforms import get_platform
from repro.machine.profiler import Profiler

from tests.kernel_families import _kernel_int_alu


def _mod(iters=50):
    return _kernel_int_alu(iters)


def _profiler():
    return Profiler(get_platform("arm-a57"), seed=5, fuel=5_000_000)


# -- fingerprints -------------------------------------------------------------


class TestFingerprint:
    def test_stable_across_rebuilds(self):
        assert ir_fingerprint(_mod()) == ir_fingerprint(_mod())

    def test_clone_matches_and_recomputes(self):
        m = _mod()
        before = dict(vars(m))
        fp = ir_fingerprint(m)
        # fingerprinting leaves the module untouched: nothing is memoized on it
        assert vars(m) == before
        assert ir_fingerprint(m.clone()) == fp

    def test_in_place_mutation_invalidates_memo(self):
        # rewrite one `mul` constant in place: block and instruction counts
        # stay the same, so only the IR text tells the two programs apart
        m = _mod()
        prof = _profiler()
        first = prof.measure([m], entry="main")
        fp = ir_fingerprint(m)
        mul = next(
            ins
            for fn in m.functions.values()
            for blk in fn.blocks.values()
            for ins in blk.instrs
            if ins.op == "mul" and any(isinstance(a, Const) for a in ins.args)
        )
        k = next(i for i, a in enumerate(mul.args) if isinstance(a, Const))
        mul.args[k] = Const(40503, I64)
        assert ir_fingerprint(m) != fp
        second = prof.measure([m], entry="main")
        assert prof.execution_memo_hits == 0  # a live re-execution
        fresh = _profiler().execute([m], entry="main")
        assert second.output_signature() == fresh.output_signature()
        assert second.output_signature() != first.output_signature()

    def test_distinct_ir_distinct_fp(self):
        assert ir_fingerprint(_mod(iters=50)) != ir_fingerprint(_mod(iters=51))

    def test_configs_lowering_to_same_ir_share_fp(self):
        base = _mod()
        # two different sequences that are IR no-ops on this kernel
        a = run_opt(base.clone(), ["dce", "dce"]).module
        b = run_opt(base.clone(), ["dce"]).module
        assert ir_fingerprint(a) == ir_fingerprint(b)

    def test_compiled_module_fingerprints_once_on_demand(self, monkeypatch):
        calls = []
        real = artifacts.ir_fingerprint
        monkeypatch.setattr(
            artifacts, "ir_fingerprint", lambda m: calls.append(m) or real(m)
        )
        rec = CompiledModule(_mod(), {"instrs": 1})
        module, stats = rec
        assert module is rec.module and stats == {"instrs": 1}
        assert calls == []  # compiling alone never fingerprints
        assert rec.fingerprint == rec.fingerprint == real(module)
        assert len(calls) == 1


# -- the store ----------------------------------------------------------------


class TestArtifactStore:
    def test_compile_through_dedups(self):
        store = ArtifactStore()
        a, b = _mod(), _mod()
        (bc1,) = store.harvest([a], [ir_fingerprint(a)])
        (bc2,) = store.harvest([b], [ir_fingerprint(b)])
        assert bc1 is bc2
        assert store.stats() == {"size": 1, "hits": 1, "misses": 1}

    def test_lru_bounded(self):
        store = ArtifactStore(max_entries=2)
        for i in range(4):
            m = _mod(iters=10 + i)
            store.harvest([m], [ir_fingerprint(m)], build=compile_module)
        assert len(store) == 2


# -- the execution memo -------------------------------------------------------


class TestExecutionMemo:
    def test_memo_values_match_live(self):
        mods = [_mod()]
        on, off = _profiler(), _profiler()
        for _ in range(4):
            a = on.measure(mods, entry="main")
            off.artifacts = ArtifactStore()  # nothing recorded: runs live
            b = off.measure(mods, entry="main")
            assert (a.seconds, a.cycles) == (b.seconds, b.cycles)
            assert a.output_signature() == b.output_signature()
        assert on.execution_memo_hits == 3 and off.execution_memo_hits == 0

    def test_memoized_crash_reraises(self):
        mods = [_mod(iters=10_000)]
        prof = Profiler(get_platform("arm-a57"), seed=5, fuel=100)
        state0 = json.dumps(prof.rng.bit_generator.state, default=str)
        with pytest.raises(FuelExhausted):
            prof.measure(mods, entry="main")
        with pytest.raises(FuelExhausted):
            prof.measure(mods, entry="main")
        assert prof.execution_memo_hits == 1
        # a crash raises before any noise draw, live or memoized
        assert json.dumps(prof.rng.bit_generator.state, default=str) == state0

    def test_memo_spans_configs_with_identical_ir(self):
        base = _mod()
        a = run_opt(base.clone(), ["dce", "dce"]).module
        b = run_opt(base.clone(), ["dce"]).module
        prof = _profiler()
        prof.measure([a], entry="main")
        prof.measure([b], entry="main")
        assert prof.execution_memo_hits == 1
        assert prof.artifacts.misses == 1  # fingerprint-keyed store dedups


# -- task-level accounting ----------------------------------------------------


def _task(**kw):
    return AutotuningTask(cbench_program("telecom_gsm"), seed=7, seq_length=10, **kw)


def _history(jobs=1, budget=10, **task_kw):
    with _task(jobs=jobs, **task_kw) as task:
        res = RandomSearchTuner(task, seed=11).tune(budget)
        tb = task.timing_breakdown()
    hist = tuple(
        (m.module, m.sequence, m.runtime, m.correct, m.status)
        for m in res.measurements
    )
    return hist, tb


class TestTaskDeterminism:
    def test_toggles_and_jobs_bit_identical(self):
        base, base_tb = _history()
        for jobs in (2, 4):
            hist, _ = _history(jobs=jobs)
            assert hist == base, f"history diverged with jobs={jobs}"
        assert base_tb["functions_translated"] > 0

    def test_breakdown_reports_new_counters(self):
        with _task() as task:
            RandomSearchTuner(task, seed=11).tune(16)
            tb = task.timing_breakdown()
        # every built artifact is one translated module
        assert tb["bytecode_compiles"] > 0
        assert tb["functions_translated"] >= tb["bytecode_compiles"]
        assert "execution_memo_hits" in tb
        for retired in (
            "artifact_store", "shared_artifacts", "execution_memo",
            "measure_engine", "fuse", "fused_kernels", "fused_ops",
        ):
            assert retired not in tb

    def test_setup_executes_the_program_once(self, monkeypatch):
        """Set-up runs the VM for the -O3 anchor only: -O0 replays the
        reference run and the -O3 profile replays the -O3 measurement,
        and both anchors equal live measurements on the same noise
        stream."""
        from repro.machine.bytecode import BytecodeVM
        from repro.utils.rng import as_generator

        runs = []
        real = BytecodeVM.run
        monkeypatch.setattr(
            BytecodeVM, "run", lambda vm, *a, **kw: runs.append(1) or real(vm, *a, **kw)
        )
        with _task() as task:
            assert len(runs) == 1
            prog = task.program
            o3 = [task._o3[m.name].module for m in prog.modules]
        live = Profiler(task.platform, seed=as_generator(7), fuel=prog.fuel)
        assert live.measure(o3, repeats=task.repeats).seconds == task.o3_runtime
        o0 = live.measure(list(prog.modules), repeats=task.repeats)
        assert o0.seconds == task.o0_runtime
        assert live.execution_memo_hits == 0 and len(runs) == 3

    def test_only_measured_candidates_are_fingerprinted(self):
        with _task() as task:
            name = task.hot_modules[0]
            seqs = [[i, i + 1, i + 2] for i in range(6)]
            recs = task.compile_batch([(name, s) for s in seqs])
            assert all(r._fingerprint is None for r in recs)
            task.measure({name: recs[0]})
            assert recs[0]._fingerprint == ir_fingerprint(recs[0].module)
            assert all(r._fingerprint is None for r in recs[1:])


# -- CLI: jobs x kill/resume, and old run directories ----------------------------


def _tune(run_dir, *extra, program="telecom_gsm", budget=14, seed=4):
    return main(
        [
            "tune",
            program,
            "--budget",
            str(budget),
            "--seed",
            str(seed),
            "--seq-length",
            "8",
            "--trace-out",
            str(run_dir),
            "--log-level",
            "warning",
            *extra,
        ]
    )


def _result_sans_timing(run_dir):
    data = json.loads((Path(run_dir) / "result.json").read_text())
    data.pop("timing", None)
    return data


def _kill_after(run_dir, n_measures):
    """Turn a finished run into one killed after ``n_measures`` WAL-durable
    measurements (the state a SIGKILL leaves behind)."""
    (run_dir / "result.json").unlink()
    (run_dir / "metrics.json").unlink()
    wal_path = run_dir / "wal.jsonl"
    kept, measures = [], 0
    for line in wal_path.read_text().splitlines():
        rec = json.loads(line)
        if rec.get("type") == "measure":
            if measures >= n_measures:
                break
            measures += 1
        elif rec.get("type") == "slot" and measures >= n_measures:
            break
        kept.append(line)
    wal_path.write_text("\n".join(kept) + "\n")


def _resume(run_dir):
    return main(["tune", "--resume", str(run_dir), "--log-level", "warning"])


class TestCliTogglesAndResume:
    def test_cli_toggles_bit_identical(self, tmp_path):
        control = tmp_path / "control"
        assert _tune(control) == 0
        expected = _result_sans_timing(control)
        for jobs in ("1", "2"):
            flags = ("--jobs", jobs)
            run = tmp_path / ("run" + "".join(flags).replace("-", ""))
            assert _tune(run, *flags) == 0
            assert _result_sans_timing(run) == expected, flags
            killed = tmp_path / (run.name + "_killed")
            shutil.copytree(run, killed)
            _kill_after(killed, 7)
            assert _resume(killed) == 0
            assert _result_sans_timing(killed) == expected, flags

    def test_kill_resume_replays_through_memo_hits(self, tmp_path):
        control = tmp_path / "control"
        assert _tune(control, budget=18) == 0
        timing = json.loads((control / "result.json").read_text())["timing"]
        assert timing["execution_memo_hits"] > 0, (
            "control run exercised no memo hits; enlarge the budget"
        )
        killed = tmp_path / "killed"
        shutil.copytree(control, killed)
        _kill_after(killed, 7)
        assert _resume(killed) == 0
        assert _result_sans_timing(killed) == _result_sans_timing(control)

    def test_manifest_with_retired_flags_resumes(self, tmp_path):
        control = tmp_path / "control"
        assert _tune(control) == 0
        killed = tmp_path / "killed"
        shutil.copytree(control, killed)
        _kill_after(killed, 5)
        manifest_path = killed / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest.update(
            execution_memo=False,
            shared_artifacts=False,
            artifact_store=str(tmp_path / "spill"),
            compile_cache_size=64,
            measure_engine="tree",
            fuse=False,
        )
        manifest_path.write_text(json.dumps(manifest))
        assert _resume(killed) == 0
        assert _result_sans_timing(killed) == _result_sans_timing(control)

    def test_old_result_with_artifact_store_loads_in_analyze(self, tmp_path):
        run = tmp_path / "run"
        assert _tune(run, budget=6) == 0
        result_path = run / "result.json"
        data = json.loads(result_path.read_text())
        data["timing"].update(
            execution_memo=True,
            shared_artifacts=True,
            measure_engine="tree",
            fuse=False,
            artifact_store={
                "size": 12, "hits": 3, "misses": 12, "puts": 12,
                "spill_hits": 0, "spill_writes": 0,
            },
        )
        result_path.write_text(json.dumps(data))
        report = tmp_path / "report.md"
        assert main(
            ["analyze", str(run), "--out", str(report), "--log-level", "warning"]
        ) == 0
        assert report.read_text()
