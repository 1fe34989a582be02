"""The process-worker compile path behind compile timeouts.

Covers stats-only compiles (no module built, in-line or in a worker; the
measured winner is recompiled in the parent), bit-identical CITROEN
histories against serial, worker lifecycle (lazy fork, reaping on close,
a hung candidate's worker forked afresh, a worker that died between
batches forked afresh, workers exiting when their parent is killed), the
journal kept for the workers, and how compiles ran as reported by the
engine, the task and ``result.json``.  Without a timeout the engine runs
every miss in-line at any ``jobs``; tests of the worker path set
:data:`TIMEOUT`, which no real compile reaches.
"""

import json
import multiprocessing
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import AutotuningTask, Citroen, CompileEngine, cbench_program
from repro.cli import main
from repro.compiler.opt_tool import GRAPH_CAPACITY, run_opt
from repro.compiler.textual import print_module
from repro.core.faults import FaultInjector
from repro.machine.artifacts import ir_fingerprint

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: a compile timeout no compile here reaches: every miss runs on workers
TIMEOUT = 30.0


@pytest.fixture(autouse=True)
def _no_chaos(monkeypatch):
    # injected faults would change the outcomes these tests pin
    for var in ("REPRO_INJECT_FAULTS", "REPRO_FAULT_RATE", "REPRO_FAULT_SEED",
                "REPRO_FAULT_HANG_SECONDS"):
        monkeypatch.delenv(var, raising=False)


def _task(jobs, program="telecom_gsm", **kw):
    return AutotuningTask(
        cbench_program(program), platform="arm-a57", seed=0, seq_length=10,
        jobs=jobs, **kw,
    )


def _tune(jobs, feature_mode, timeout=None):
    """One CITROEN tune; returns the executor, the history, every measured
    configuration and every compile batch's results."""
    measured, batches = [], []
    with _task(jobs, compile_timeout=timeout) as task:
        measure, compile_batch = task.measure, task.compile_batch

        def spy_measure(compiled, config_key=None, sequences=None):
            measured.append((dict(compiled), sequences))
            return measure(compiled, config_key=config_key, sequences=sequences)

        def spy_batch(items, stats_only=False):
            out = compile_batch(items, stats_only=stats_only)
            batches.append((stats_only, out))
            return out

        task.measure, task.compile_batch = spy_measure, spy_batch
        res = Citroen(
            task, seed=3, n_init=3, per_strategy=2, feature_mode=feature_mode
        ).tune(10)
        kind, target = task.engine.kind, task.target
    hist = [(m.module, m.sequence, m.runtime, m.correct, m.status)
            for m in res.measurements]
    return kind, hist, measured, batches, target


@pytest.mark.parametrize("feature_mode", ["stats", "autophase"])
def test_citroen_history_matches_serial(feature_mode):
    kind1, serial, _, _, _ = _tune(1, feature_mode)
    kind2, pooled, _, batches, _ = _tune(2, feature_mode, TIMEOUT)
    assert (kind1, kind2) == ("serial", "process")
    assert pooled == serial
    results = [(stats_only, o.value) for stats_only, out in batches if len(out) > 1
               for o in out if o.ok]
    # init configurations are measured, so their modules always come back
    assert any(not stats_only and c.module is not None for stats_only, c in results)
    proposals = [c for stats_only, c in results if stats_only]
    if feature_mode == "stats":
        # candidate proposals: only statistics came back from the workers
        assert proposals
        assert all(c.module is None for c in proposals)
    else:
        # autophase features read the IR, so the modules come back
        assert not proposals
        assert all(c.module is not None for _, c in results)


def test_history_matches_serial_with_every_batch_dispatched():
    # under a timeout every batch's misses go to the workers, which walk
    # the parent's graph through their journals (without one, at jobs=1,
    # the parent compiles them in place)
    def tune(jobs, timeout=None):
        with AutotuningTask(cbench_program("telecom_gsm"), platform="arm-a57",
                            seed=0, seq_length=16, jobs=jobs,
                            compile_timeout=timeout) as task:
            res = Citroen(task, seed=5, n_init=3, per_strategy=3).tune(12)
            timing = task.timing_breakdown()
        hist = [(m.module, m.sequence, m.runtime, m.correct, m.status)
                for m in res.measurements]
        return hist, timing

    serial, t1 = tune(1)
    pooled, t2 = tune(2, TIMEOUT)
    assert pooled == serial
    assert t2["n_compiles"] == t1["n_compiles"]
    assert t1["compile_dispatched"] == 0 < t2["compile_dispatched"]
    assert t1["compile_walked"] > 0 and t2["compile_walked"] > 0
    applied = t2["graph_passes_run"] + t2["graph_passes_skipped"]
    assert applied >= t1["graph_passes_run"] + t1["graph_passes_skipped"]


def test_a_tune_without_a_timeout_forks_no_worker(monkeypatch):
    # without a timeout every miss compiles in-line at any jobs: no
    # process is forked and no journal is kept
    forks = []
    fork = CompileEngine._fork
    monkeypatch.setattr(CompileEngine, "_fork", lambda self: forks.append(1) or fork(self))
    before = set(multiprocessing.active_children())
    kind1, serial, _, _, _ = _tune(1, "stats")
    with _task(2) as task:
        compile_batch = task.compile_batch

        def spy_batch(items, stats_only=False):
            out = compile_batch(items, stats_only=stats_only)
            assert not task.engine._workers and task.graph._journal is None
            return out

        task.compile_batch = spy_batch
        res = Citroen(task, seed=3, n_init=3, per_strategy=2, feature_mode="stats").tune(10)
        assert task.engine.kind == kind1 == "serial"
        assert task.engine.stats()["dispatched"] == 0
        assert task.engine.stats()["walked"] > 0
    assert not forks and not set(multiprocessing.active_children()) - before
    assert [(m.module, m.sequence, m.runtime, m.correct, m.status)
            for m in res.measurements] == serial


def test_the_journal_stays_bounded_over_many_timed_batches():
    # the parent's journal is taken at every timed batch and each worker
    # takes its outbox with every batch, even with no item to compile, so
    # neither grows past one batch's entries, however many batches run
    rng = random.Random(7)

    def batch(task):
        names = [m.name for m in task.program.modules]
        size = rng.choice((1, 1, 2, 8))
        return [(rng.choice(names), [rng.randrange(len(task.passes)) for _ in range(10)])
                for _ in range(size)]

    with _task(2, compile_timeout=TIMEOUT) as task, _task(1) as serial:
        for _ in range(40):
            items = batch(task)
            out = task.compile_batch(items, True)
            ref = serial.compile_batch(items, True)
            assert [o.value.stats for o in out] == [o.value.stats for o in ref]
            assert len(task.engine._workers) == 2
            assert len(task.graph._journal) <= len(task.program.modules)
            # at most the other worker's journal from this batch
            assert all(len(w.outbox) <= 1 for w in task.engine._workers)
        assert task.engine.stats()["dispatched"] > 0
        assert len(task.graph._nodes) <= GRAPH_CAPACITY


def _assert_measured_match_cold(measured, target):
    """Every measured module, whether the parent's compile graph or a
    worker's built it, equals a cold compile."""
    program = cbench_program("telecom_gsm")
    checked = 0
    for compiled, sequences in measured:
        for name, result in compiled.items():
            source = program.get_module(name)
            cold = run_opt(source, list(sequences[name]), target=target)
            assert result.fingerprint == ir_fingerprint(cold.module)
            assert print_module(result.module) == print_module(cold.module)
            assert result.stats == cold.stats_json()
            checked += 1
    assert checked >= 10


def _spy_graphs(monkeypatch):
    """The compile graph of every task built from now on."""
    graphs = []
    init = AutotuningTask.__init__

    def spy_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        graphs.append(self.graph)

    monkeypatch.setattr(AutotuningTask, "__init__", spy_init)
    return graphs


def test_measured_winner_matches_cold_compile(monkeypatch):
    # init configurations are compiled in the pool workers, through each
    # worker's copy of the graph; winners are walked through the parent's
    graphs = _spy_graphs(monkeypatch)
    _, _, measured, batches, target = _tune(2, "stats", TIMEOUT)
    _assert_measured_match_cold(measured, target)
    from_workers = [o.value for stats_only, out in batches if len(out) > 1
                    for o in out if o.ok and not stats_only]
    assert from_workers
    assert graphs[0].stats()["passes_run"] > 0


def test_serial_measured_modules_match_cold_compile(monkeypatch):
    # at jobs=1 candidates compile in this process, through the task's
    # compile graph
    graphs = _spy_graphs(monkeypatch)
    _, _, measured, _, target = _tune(1, "stats")
    assert graphs[0].stats()["passes_skipped"] > 0
    _assert_measured_match_cold(measured, target)


@pytest.mark.parametrize("jobs, timeout", [(1, None), (1, 5.0), (2, None), (2, 5.0)])
def test_stats_only_builds_no_module_on_any_executor(jobs, timeout):
    items = [("lpc", [i, i + 1, i + 2]) for i in range(6)]
    with _task(jobs, compile_timeout=timeout) as task:
        assert task.engine.kind == ("serial" if timeout is None else "process")
        bare = [o.value for o in task.compile_batch(items, stats_only=True)]
        single = [o.value for o in task.compile_batch(items[:1], stats_only=True)]
        kept = [o.value for o in task.compile_batch(items)]
    assert all(c.module is None for c in bare + single)
    assert all(c.module is not None for c in kept)
    assert [c.stats for c in bare] == [c.stats for c in kept]
    assert single[0].stats == kept[0].stats


def test_a_fault_injected_task_keeps_its_modules():
    # the injector's miscompile fault corrupts the module, so it needs one
    injector = FaultInjector(rate=1.0, seed=0, kinds=("miscompile",))
    items = [("lpc", [i, i + 1, i + 2]) for i in range(3)]
    with _task(2, fault_injector=injector, compile_timeout=TIMEOUT) as task:
        assert task.engine.kind == "process"
        out = [o.value for o in task.compile_batch(items, stats_only=True)]
    assert all(c.module is not None for c in out)
    # every module, the worker's share included, carries the corruption:
    # each function's entry block outputs the sentinel first
    for c in out:
        for fn in c.module.functions.values():
            assert any(
                i.op == "output" and i.args[0].value == 0x5EED for i in fn.entry.instrs
            )


def test_close_reaps_pool_workers():
    before = set(multiprocessing.active_children())
    items = [("sha_transform", [i, i + 1]) for i in range(4)]
    task = _task(3, program="security_sha", compile_timeout=TIMEOUT)
    assert not set(multiprocessing.active_children()) - before  # lazy start
    task.compile_batch(items)
    assert len(set(multiprocessing.active_children()) - before) == 3
    task.close()
    assert not set(multiprocessing.active_children()) - before
    for _ in range(5):
        with _task(2, program="security_sha", compile_timeout=TIMEOUT) as task:
            task.compile_batch(items)
    assert not set(multiprocessing.active_children()) - before


def _sleepy_compile(name, seq):
    time.sleep(0.1)
    return name, tuple(seq)


def _hangs_on_three(name, seq):
    if seq[0] == 3:
        time.sleep(60)
    return os.getpid()


def test_a_hung_candidate_is_quarantined_and_its_worker_forked_afresh():
    before = set(multiprocessing.active_children())
    with CompileEngine(
        _hangs_on_three, jobs=2, timeout=1.0, max_retries=0
    ) as eng:
        first = [o.value for o in eng.compile_batch([("m", [i]) for i in range(2)])]
        pids = {w.process.pid for w in eng._workers}
        assert set(first) <= pids  # with a timeout the workers compile everything
        out = eng.compile_batch([("m", [i]) for i in range(8)])
        assert [o.status for o in out] == ["ok"] * 3 + ["timeout"] + ["ok"] * 4
        assert ("m", (3,)) in eng._quarantine
        assert eng.stats()["compile_timeouts"] == 1
        # the hung worker was killed and replaced; its unfinished items
        # ran on the new one
        now = {w.process.pid for w in eng._workers}
        assert len(now) == 2 and len(now & pids) == 1
        assert {o.value for o in out if o.ok} <= now | pids
        assert {out[5].value, out[7].value} == now - pids
        again = eng.compile_batch([("m", [3]), ("m", [9])])
        assert [o.status for o in again] == ["quarantined", "ok"]
        assert len(set(multiprocessing.active_children()) - before) == 2
    assert not set(multiprocessing.active_children()) - before


def _after_a_pause(value):
    time.sleep(0.3)
    return value


class _PausesOnLoad:
    """A result whose unpickling, in the engine's process, stalls it."""

    def __init__(self, value):
        self.value = value

    def __reduce__(self):
        return _after_a_pause, (self.value,)


def _stalls_the_caller(name, seq):
    # the second worker answers item 1 while the first compiles item 2;
    # reading that answer stalls the caller past item 2's timeout
    if seq[0] == 1:
        time.sleep(0.02)
        return _PausesOnLoad(1)
    if seq[0] == 2:
        time.sleep(0.05)
    return seq[0]


def test_an_answer_waiting_while_the_caller_stalls_is_not_a_timeout():
    # a caller's pause (a long collection, say) must not time out an item
    # whose answer came in time and waits in the pipe
    with CompileEngine(_stalls_the_caller, jobs=2, timeout=0.1, max_retries=0) as eng:
        out = eng.compile_batch([("m", [i]) for i in range(3)])
    assert [o.status for o in out] == ["ok"] * 3
    assert [o.value for o in out] == [0, 1, 2]


def _pid(name, seq):
    return os.getpid()


def test_a_worker_killed_between_batches_is_forked_afresh():
    # its share was never attempted: the successor compiles it, and
    # nothing is quarantined
    with CompileEngine(_pid, jobs=3, timeout=TIMEOUT) as eng:
        eng.compile_batch([("m", [i]) for i in range(6)])
        victim = eng._workers[0].process
        victim.kill()
        victim.join()
        out = eng.compile_batch([("m", [i]) for i in range(6, 12)])
        assert [o.status for o in out] == ["ok"] * 6
        assert eng.stats()["quarantine_size"] == 0
        pids = [w.process.pid for w in eng._workers]
        assert len(pids) == 3 and victim.pid not in pids
        # equal misses split as round-robin does: the dead worker's share
        # went to its successor
        assert out[0].value == out[3].value == pids[0]


def _interrupt():
    raise KeyboardInterrupt


class _InterruptsOnLoad:
    """A result whose unpickling, in the engine's process, raises
    KeyboardInterrupt there (Ctrl-C while the caller reads answers)."""

    def __reduce__(self):
        return _interrupt, ()


def _interrupts_the_caller(name, seq):
    return _InterruptsOnLoad() if seq[0] == 0 else seq[0]


def test_an_interrupted_batch_leaves_the_workers_in_step():
    # the caller is interrupted while the workers still hold answers; the
    # next batch must not read them as its own
    with CompileEngine(_interrupts_the_caller, jobs=3, timeout=TIMEOUT) as eng:
        with pytest.raises(KeyboardInterrupt):
            eng.compile_batch([("m", [i]) for i in range(6)])
        for lo in (1, 7):
            out = eng.compile_batch([("m", [i]) for i in range(lo, lo + 6)])
            assert [o.value for o in out] == list(range(lo, lo + 6))


def _length(name, seq):
    return len(seq)


def test_a_batch_message_larger_than_the_pipe_buffer_does_not_stall():
    # each worker's share (like a journal of new states in its outbox)
    # pickles to several times a socket buffer (~200 KB); the worker must
    # read it as it is written, not when it next looks at its pipe
    with CompileEngine(_length, jobs=3, timeout=TIMEOUT) as eng:
        assert [o.value for o in eng.compile_batch([("m", [0]), ("m", [0, 1])])] == [1, 2]
        items = [("m", [k] * 200_000) for k in range(6)]
        t0 = time.perf_counter()
        out = eng.compile_batch(items)
        assert time.perf_counter() - t0 < 0.5
    assert [o.value for o in out] == [200_000] * 6


_ORPHAN_SCRIPT = """
import os, sys, time
from repro import CompileEngine

def compile_fn(name, seq):
    return os.getpid()

# a timeout puts every batch on the workers
engine = CompileEngine(compile_fn, jobs=3, timeout=30.0)
engine.compile_batch([("m", [i]) for i in range(6)])
print(" ".join(str(w.process.pid) for w in engine._workers), flush=True)
time.sleep(120)
"""


def _gone(pid):
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] in ("Z", "X")
    except OSError:
        return True


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_workers_exit_when_their_parent_is_killed():
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.Popen([sys.executable, "-c", _ORPHAN_SCRIPT], env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        pids = [int(p) for p in proc.stdout.readline().split()]
        assert len(pids) == 3 and not any(_gone(pid) for pid in pids)
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline and not all(_gone(pid) for pid in pids):
        time.sleep(0.1)
    assert all(_gone(pid) for pid in pids)


@pytest.mark.parametrize(
    "jobs, timeout, kind, workers",
    [
        (1, None, "serial", 0),
        (1, 5.0, "process", 1),
        (2, None, "serial", 0),
        (2, 5.0, "process", 2),
    ],
)
def test_engine_reports_resolved_executor(jobs, timeout, kind, workers):
    # workers fork only to enforce a timeout, jobs of them
    with CompileEngine(_sleepy_compile, jobs=jobs, timeout=timeout) as eng:
        assert eng.kind == kind
        assert eng.stats()["executor"] == kind
        eng.compile_batch([("m", [0]), ("m", [1])])
        assert len(eng._workers) == workers


def test_worker_timing_gives_parallel_ratio():
    # compile seconds are timed inside each worker and summed; two
    # processes sleeping side by side overlap, so the sum exceeds the wall
    with CompileEngine(_sleepy_compile, jobs=2, timeout=TIMEOUT) as eng:
        out = eng.compile_batch([("m", [i]) for i in range(8)])
        stats = eng.stats()
    assert [o.value for o in out] == [("m", (i,)) for i in range(8)]
    assert stats["executor"] == "process"
    assert stats["compile_cpu_seconds"] >= 0.8
    assert stats["compile_cpu_seconds"] / stats["compile_wall_seconds"] > 1.3


def test_result_json_names_the_executor(tmp_path):
    run_dir = tmp_path / "run"
    rc = main([
        "tune", "security_sha", "--budget", "6", "--seed", "1",
        "--seq-length", "8", "--jobs", "2", "--compile-timeout", str(TIMEOUT),
        "--trace-out", str(run_dir), "--log-level", "warning",
    ])
    assert rc == 0
    timing = json.loads((Path(run_dir) / "result.json").read_text())["timing"]
    assert timing["executor"] == "process"
    assert timing["jobs"] == 2
