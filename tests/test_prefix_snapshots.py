"""The compile graph: a compile that follows stored edges must equal a cold
compile, on every workload module.

The graph replaced pass-prefix snapshots; this file keeps their
equivalence tests and adds the graph's own.  Also covers the state key
(every IR field a pass reads is in it), that the graph runs each pass
once per distinct state, its bound, that it never hands out its own
modules, that a pass that raises leaves nothing behind, the trace/verifier
bypass, stats-only compiles, pickled and forked copies, copies kept in
sync through journals (process workers and the parent walk one graph),
concurrent use from threads, and the counters a task reports.
The last test checks that compile output does not depend on the string
hash seed.
"""

import dataclasses
import gc
import json
import multiprocessing
import os
import pickle
import random
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import pytest

from repro import AutotuningTask, Citroen, CompileEngine, cbench_names, cbench_program
from repro import spec_names, spec_program
from repro.compiler import opt_tool
from repro.compiler.ir import I32, I64, Block, Const, Function, GlobalVar, Instr, Module
from repro.compiler.opt_tool import CompileGraph, run_opt, state_key
from repro.compiler.pass_manager import PassManager, PassTrace, TargetInfo, registry
from repro.compiler.pipelines import SEARCH_PASSES
from repro.compiler.statistics import StatsCollector
from repro.compiler.textual import parse_module, print_module
from repro.core.faults import FaultInjector
from repro.machine.platforms import get_platform

SRC = str(Path(__file__).resolve().parents[1] / "src")
TARGET = get_platform("arm-a57").target_info()


@pytest.fixture(autouse=True)
def _no_chaos(monkeypatch):
    # an injector would keep the compiles on threads
    for var in ("REPRO_INJECT_FAULTS", "REPRO_FAULT_RATE", "REPRO_FAULT_SEED",
                "REPRO_FAULT_HANG_SECONDS"):
        monkeypatch.delenv(var, raising=False)


def _programs():
    return [cbench_program(n) for n in cbench_names()] + [
        spec_program(n) for n in spec_names()
    ]


def _output(cr):
    # items() keeps the order counters were first bumped in
    return print_module(cr.module), cr.stats_json(), list(cr.stats.items())


def _family(rng, length=16, parents=2, children=3):
    """Seeded sequences plus children sharing a parent's prefix, with the
    rest mutated."""
    seqs = []
    for _ in range(parents):
        parent = [rng.choice(SEARCH_PASSES) for _ in range(length)]
        seqs.append(parent)
        for _ in range(children):
            cut = rng.randrange(2, length)
            seqs.append(parent[:cut] + [rng.choice(SEARCH_PASSES)
                                        for _ in range(length - cut)])
    return seqs


def _state_module(graph, node):
    """``node``'s module, re-derived if the node handed it on."""
    with graph._lock:
        return graph._module(node)


def _assert_graph_sound(graph):
    """Every node's module (re-derived where it was handed on) prints to
    its key, and every stored edge, re-run cold from it, reaches the state
    it names with the statistics it stores."""
    targets = {tid: tkey for tkey, tid in graph._targets.items()}
    for node in list(graph._nodes.values()):
        module = _state_module(graph, node)
        assert state_key(module) == node.key
        for (tid, name), (key, delta) in node.edges.items():
            target = TargetInfo()
            target.__dict__.update(dict(targets[tid][1:]))
            work = module.clone()
            stats = StatsCollector()
            registry.create(name).run_on_module(work, stats, target)
            assert state_key(work) == key, name
            assert stats.snapshot() == delta, name


def test_resumed_compiles_equal_cold_on_every_workload_module():
    graph = CompileGraph()
    rng = random.Random(17)
    n_modules = 0
    for program in _programs():
        for module in program.modules:
            n_modules += 1
            source_text = print_module(module)
            seqs = _family(rng)
            # twice over: the first pass grows the graph, the second follows it
            for seq in seqs + seqs:
                got = run_opt(module, seq, target=TARGET, graph=graph)
                cold = run_opt(module, seq, target=TARGET)
                assert _output(got) == _output(cold), (program.name, module.name, seq)
                assert got.sequence == seq
            assert print_module(module) == source_text
    stats = graph.stats()
    n_passes = 2 * n_modules * len(seqs) * 16
    assert n_modules > 20
    assert stats["passes_run"] + stats["passes_skipped"] == n_passes
    assert stats["passes_skipped"] > n_passes / 2
    assert 0 < stats["nodes"] <= opt_tool.GRAPH_CAPACITY


def test_each_pass_runs_once_per_distinct_state():
    module = cbench_program("telecom_gsm").get_module("lpc")
    graph = CompileGraph()
    seq = list(SEARCH_PASSES[:16])
    run_opt(module, seq, target=TARGET, graph=graph)
    first = graph.stats()
    assert first["passes_run"] == 16 and first["passes_skipped"] == 0
    # the same sequence again runs nothing
    run_opt(module, seq, target=TARGET, graph=graph)
    assert graph.stats()["passes_run"] == 16
    assert graph.stats()["passes_skipped"] == 16
    # a pass repeated on a state it left unchanged runs once: the edge
    # loops back to the node it leaves
    run_opt(module, ["dce"] * 8, target=TARGET, graph=graph)
    stats = graph.stats()
    assert stats["passes_run"] - first["passes_run"] <= 2
    # another target is another edge
    other = get_platform("amd-x86").target_info()
    run_opt(module, seq[:4], target=other, graph=graph)
    assert graph.stats()["passes_run"] == stats["passes_run"] + 4
    # mem2reg changes the IR; run again, it leaves it identical, and that
    # run is settled without a fingerprint
    before = graph.stats()
    run_opt(module, ["mem2reg", "mem2reg"], target=TARGET, graph=graph)
    after = graph.stats()
    assert after["passes_run"] - before["passes_run"] == 2
    assert after["passes_unchanged"] - before["passes_unchanged"] == 1
    # fewer states than pass applications, one edge per run pass
    final = graph.stats()
    assert final["nodes"] <= 1 + final["passes_run"]
    assert final["edges"] == final["passes_run"]
    _assert_graph_sound(graph)


def test_state_key_covers_every_ir_field():
    # the key is the printed IR plus each function's fresh-name counter;
    # a new IR field must be added to the printer (or the key) and here
    assert Instr.__slots__ == ("op", "res", "ty", "args", "attrs")
    assert Block.__slots__ == ("name", "instrs")
    fn = Function("f", [("%a", I32)], I32)
    assert set(vars(fn)) == {"name", "params", "ret_ty", "blocks", "attrs", "_counter"}
    assert set(vars(Module("m"))) == {"name", "functions", "globals"}
    assert [f.name for f in dataclasses.fields(GlobalVar)] == [
        "name", "elem_ty", "init", "const"
    ]

    def build():
        mod = Module("m")
        mod.add_global(GlobalVar("g", I32, [1, 2]))
        f = mod.add_function(Function("f", [("%a", I32)], I32))
        blk = f.add_block("entry")
        blk.instrs.append(Instr("add", "%t.1", I32, ["%a", Const(1, I32)]))
        blk.instrs.append(Instr("ret", args=["%t.1"]))
        f._counter = 1
        return mod

    base = state_key(build())
    edits = {
        "module name": lambda m: setattr(m, "name", "n"),
        "global init": lambda m: m.globals["g"].init.append(3),
        "global const": lambda m: setattr(m.globals["g"], "const", True),
        "global type": lambda m: setattr(m.globals["g"], "elem_ty", I64),
        "function name": lambda m: setattr(m.functions["f"], "name", "h"),
        "function attrs": lambda m: m.functions["f"].attrs.add("readnone"),
        "params": lambda m: m.functions["f"].params.append(("%b", I32)),
        "return type": lambda m: setattr(m.functions["f"], "ret_ty", I64),
        "block name": lambda m: _rename_entry(m.functions["f"], "start"),
        "opcode": lambda m: setattr(m.functions["f"].entry.instrs[0], "op", "sub"),
        "result": lambda m: setattr(m.functions["f"].entry.instrs[0], "res", "%t.2"),
        "operand": lambda m: m.functions["f"].entry.instrs[0].args.__setitem__(1, Const(2, I32)),
        "instr attrs": lambda m: m.functions["f"].entry.instrs[0].attrs.update(nsw=1),
        "counter": lambda m: setattr(m.functions["f"], "_counter", 2),
    }
    for what, edit in edits.items():
        mod = build()
        edit(mod)
        assert state_key(mod) != base, what


def _rename_entry(fn, name):
    blk = fn.entry
    blk.name = name
    fn.blocks = {name: blk}


def test_states_differing_only_in_counter_get_distinct_keys():
    module = cbench_program("telecom_gsm").get_module("lpc")
    a, b = module.clone(), module.clone()
    fn = next(iter(b.functions.values()))
    fn.fresh()  # allocate a name without using it
    assert print_module(a) == print_module(b)
    assert state_key(a) != state_key(b)


def test_every_state_of_a_tune_round_trips_through_the_text_format():
    with _task(seq_length=16) as task:
        Citroen(task, seed=1, n_init=3, per_strategy=2).tune(8)
        nodes = list(task.graph._nodes.values())
        timing = task.timing_breakdown()
        flat = task.metrics.flat()
    assert len(nodes) > 10
    # most runs change nothing, and those are settled without a fingerprint
    assert 0 < timing["graph_passes_unchanged"] <= timing["graph_passes_run"]
    assert flat["compiler.graph_passes_unchanged"] == timing["graph_passes_unchanged"]
    for node in nodes:
        text = print_module(_state_module(task.graph, node))
        assert print_module(parse_module(text)) == text


def test_mutating_a_result_does_not_change_a_later_hit():
    module = cbench_program("telecom_gsm").get_module("lpc")
    graph = CompileGraph()
    # no promotion in the sequence, so the extra mem2reg below shows
    seq = ["simplifycfg", "instcombine", "dce", "early-cse", "reassociate",
           "dse", "gvn", "licm", "adce", "dce"]
    run_opt(module, seq, target=TARGET, graph=graph)
    ran = graph.stats()["passes_run"]
    hit = run_opt(module, seq, target=TARGET, graph=graph)
    # run more passes in place on the returned module, and on its stats
    PassManager(["mem2reg", "loop-unroll", "instcombine", "gvn"], target=TARGET).run(
        hit.module, hit.stats
    )
    again = run_opt(module, seq, target=TARGET, graph=graph)
    assert graph.stats()["passes_run"] == ran
    assert _output(again) == _output(run_opt(module, seq, target=TARGET))


def test_stats_only_compile_builds_no_module(monkeypatch):
    module = cbench_program("telecom_gsm").get_module("lpc")
    graph = CompileGraph()
    seq = list(SEARCH_PASSES[:16])
    kept = run_opt(module, seq, target=TARGET, graph=graph)
    clones = []
    clone = Module.clone
    monkeypatch.setattr(Module, "clone", lambda self: clones.append(self) or clone(self))
    bare = run_opt(module, seq, target=TARGET, graph=graph, stats_only=True)
    assert bare.module is None and clones == []
    assert list(bare.stats.items()) == list(kept.stats.items())
    # without a graph the flag still drops the module
    assert run_opt(module, seq, target=TARGET, stats_only=True).module is None


def test_store_never_exceeds_its_bound(monkeypatch):
    monkeypatch.setattr(opt_tool, "GRAPH_CAPACITY", 3)
    module = cbench_program("security_sha").modules[0]
    graph = CompileGraph()
    rng = random.Random(5)
    for _ in range(12):
        seq = [rng.choice(SEARCH_PASSES) for _ in range(8)]
        for _ in range(2):
            got = run_opt(module, seq, target=TARGET, graph=graph)
            assert graph.stats()["nodes"] <= 3
            assert _output(got) == _output(run_opt(module, seq, target=TARGET))
    assert graph.stats()["nodes"] == 3


def _failing_pass(monkeypatch, name, fail_on):
    """Make pass ``name`` raise on its ``fail_on``-th application."""
    cls = type(registry.create(name))
    real = cls.run_on_module
    calls = [0]

    def run_on_module(self, module, stats, target):
        calls[0] += 1
        if calls[0] == fail_on:
            # leave the module and statistics half-changed, as a crash would
            real(self, module, stats, target)
            stats.bump(name, "Half", 1)
            raise RuntimeError("pass crashed")
        return real(self, module, stats, target)

    monkeypatch.setattr(cls, "run_on_module", run_on_module)
    return calls


def test_a_pass_that_raises_leaves_no_node_or_edge(monkeypatch):
    module = cbench_program("telecom_gsm").get_module("lpc")
    graph = CompileGraph()
    seq = ["mem2reg", "instcombine", "gvn", "simplifycfg", "licm", "dce"]
    run_opt(module, seq[:2], target=TARGET, graph=graph)
    before = graph.stats()
    _failing_pass(monkeypatch, "gvn", fail_on=1)
    with pytest.raises(RuntimeError):
        run_opt(module, seq, target=TARGET, graph=graph)
    after = graph.stats()
    assert (after["nodes"], after["edges"]) == (before["nodes"], before["edges"])
    # no edge names the crashed pass
    assert all(name != "gvn" for n in graph._nodes.values() for _t, name in n.edges)
    # the pass works again: later compiles still equal cold ones
    rng = random.Random(3)
    for s in [seq] + _family(rng, length=8):
        got = run_opt(module, s, target=TARGET, graph=graph)
        assert _output(got) == _output(run_opt(module, s, target=TARGET))
    _assert_graph_sound(graph)


def test_an_injected_crash_leaves_the_task_graph_untouched():
    injector = FaultInjector(rate=1.0, seed=0, kinds=("crash",))
    with _task(fault_injector=injector) as task:
        before = task.graph.stats()
        outcomes = task.compile_batch([("lpc", [1, 2, 3]), ("lpc", [4, 5, 6])])
        assert not any(o.ok for o in outcomes)
        assert task.graph.stats() == before


def test_traced_and_verified_compiles_bypass_the_store():
    module = cbench_program("security_sha").modules[0]
    graph = CompileGraph()
    seq = list(SEARCH_PASSES[:8])
    traced = run_opt(module, seq, target=TARGET, trace=PassTrace(), graph=graph)
    verified = run_opt(module, seq, target=TARGET, verify_each=True, graph=graph)
    assert _output(traced) == _output(verified)
    assert graph.stats() == dict.fromkeys(graph.stats(), 0)


class _NoLock:
    def __enter__(self):
        raise AssertionError("the graph lock was taken")


def test_unknown_pass_is_rejected_before_any_work(monkeypatch):
    graph = CompileGraph()
    module = cbench_program("security_sha").modules[0]
    with pytest.raises(KeyError):
        run_opt(module, ["mem2reg"] * 4 + ["no-such-pass"], graph=graph)
    assert graph.stats() == dict.fromkeys(graph.stats(), 0)
    # the names are checked before any lock, clone or fingerprint, with a
    # graph that already knows every edge of the valid prefix
    run_opt(module, ["mem2reg"] * 4, graph=graph)
    graph._lock = _NoLock()
    monkeypatch.setattr(Module, "clone", None)
    monkeypatch.setattr(opt_tool, "state_key", None)
    with pytest.raises(KeyError, match="no-such-pass"):
        run_opt(module, ["mem2reg"] * 4 + ["no-such-pass"], graph=graph)


def _task(jobs=1, seq_length=16, **kw):
    return AutotuningTask(
        cbench_program("telecom_gsm"), platform="arm-a57", seed=0,
        seq_length=seq_length, jobs=jobs, **kw,
    )


def _warm(task):
    items = [("lpc", list(range(12)) + [i, i, i, i]) for i in range(4)]
    task.compile_batch(items)
    assert task.graph.stats()["nodes"] > 0


def test_pickled_task_compile_function_carries_no_snapshots():
    with _task() as task:
        _warm(task)
        clone = pickle.loads(pickle.dumps(task.engine.compile_fn))
    graphs = [a for a in clone.args if isinstance(a, CompileGraph)]
    assert len(graphs) == 1
    assert graphs[0].stats() == dict.fromkeys(graphs[0].stats(), 0)


def _tune_history(jobs, timeout=None):
    """A CITROEN tune of gsm; returns its history, compile count and
    the task's graph counters."""
    with _task(jobs=jobs, compile_timeout=timeout) as task:
        res = Citroen(task, seed=2, n_init=3, per_strategy=3).tune(10)
        assert task.engine.kind == ("serial" if timeout is None else "process")
        timing = task.timing_breakdown()
        graph = task.graph
    hist = [(m.module, m.sequence, m.runtime, m.correct, m.status)
            for m in res.measurements]
    return hist, timing, graph


@pytest.mark.parametrize("jobs", [2, 4])
def test_pool_workers_and_the_parent_walk_one_graph(monkeypatch, jobs):
    # a timeout puts every miss on the workers; at jobs=4 more processes
    # than cores merge and forward each other's journals
    absorbed = []
    absorb = CompileEngine._absorb

    def spy_absorb(engine, worker, journal, counts):
        absorbed.append((pickle.loads(journal) if journal else [], counts))
        return absorb(engine, worker, journal, counts)

    monkeypatch.setattr(CompileEngine, "_absorb", spy_absorb)
    serial, t1, _ = _tune_history(1)
    pooled, t2, graph = _tune_history(jobs, timeout=30.0)
    assert pooled == serial
    assert t2["n_compiles"] == t1["n_compiles"]
    # the parent's graph holds every edge a worker learned ...
    learned = [entry for entries, _counts in absorbed for entry in entries]
    assert any(entry[0] is not None for entry in learned)
    targets = graph._targets
    for src, tkey, name, key, delta, _module in learned:
        assert key in graph._nodes
        if src is not None:
            assert graph._nodes[src].edges[(targets[tkey], name)] == (key, delta)
    # ... and its counters count the pass applications of every process
    assert sum(counts[0] for _entries, counts in absorbed) > 0
    applied = t2["graph_passes_run"] + t2["graph_passes_skipped"]
    assert applied == t1["graph_passes_run"] + t1["graph_passes_skipped"]
    _assert_graph_sound(graph)


def _journaled(seqs_by_module):
    """A graph that compiled ``seqs_by_module`` with its journal kept,
    and the journal."""
    graph = CompileGraph()
    graph.take_journal()
    for module, seqs in seqs_by_module:
        for seq in seqs:
            run_opt(module, seq, target=TARGET, graph=graph)
    entries, counts = graph.take_journal()
    assert counts[0] + counts[2] == sum(len(s) for _m, seqs in seqs_by_module for s in seqs)
    return graph, entries


def test_a_graph_that_only_merged_compiles_as_cold_on_every_workload_module():
    rng = random.Random(23)
    plan = [(module, _family(rng)) for program in _programs() for module in program.modules]
    _source, entries = _journaled(plan)
    graph = CompileGraph()
    graph.merge(entries)
    assert graph.stats()["passes_run"] == 0
    for module, seqs in plan:
        # the merged sequences, then fresh tails on their prefixes
        fresh = _family(rng, parents=1, children=2)
        for seq in seqs + [s[:8] + f[8:] for s, f in zip(seqs, fresh)]:
            got = run_opt(module, seq, target=TARGET, graph=graph)
            assert _output(got) == _output(run_opt(module, seq, target=TARGET)), seq
    stats = graph.stats()
    assert stats["passes_skipped"] > stats["passes_run"] > 0
    _assert_graph_sound(graph)


def _graph_dump(graph):
    return [(key, node.module is not None, dict(node.edges))
            for key, node in graph._nodes.items()]


def test_merging_a_journal_twice_is_a_no_op():
    module = cbench_program("telecom_gsm").get_module("lpc")
    _source, entries = _journaled([(module, _family(random.Random(5)))])
    graph = CompileGraph()
    graph.take_journal()  # a replica: merged entries must not be journaled
    graph.merge(entries)
    once = (_graph_dump(graph), graph.stats(), dict(graph._targets))
    graph.merge(entries)
    assert (_graph_dump(graph), graph.stats(), dict(graph._targets)) == once
    assert graph.take_journal() == ([], (0, 0, 0, 0))


def test_a_merged_edge_into_a_missing_state_counts_as_missing():
    module = cbench_program("telecom_gsm").get_module("lpc")
    seq = ["mem2reg", "instcombine", "simplifycfg", "gvn"]
    _source, entries = _journaled([(module, [seq])])
    # mem2reg and simplifycfg change the IR; instcombine and gvn do not
    moves = [e for e in entries if e[0] is not None and e[3] != e[0]]
    assert [e[2] for e in moves] == ["mem2reg", "simplifycfg"]
    cold = _output(run_opt(module, seq, target=TARGET))
    # one graph evicts a state after the merge, the other never got it
    evicted = CompileGraph()
    evicted.merge(entries)
    del evicted._nodes[moves[0][3]]
    lacking = CompileGraph()
    lacking.merge([e[:5] + (None,) if e is moves[0] else e for e in entries])
    for graph in (evicted, lacking):
        assert moves[0][3] not in graph._nodes
        assert _output(run_opt(module, seq, target=TARGET, graph=graph)) == cold
        stats = graph.stats()
        # the pass into the missing state ran again, and so did the ones
        # after it (edges leaving a missing state went with it, or the
        # merge dropped them) until the walk met a state it still had
        assert stats["passes_run"] == 3 and stats["passes_skipped"] == 1
        assert moves[0][3] in graph._nodes


def _compile_in_child(graph, module, seq, queue):
    cr = run_opt(module, seq, target=TARGET, graph=graph)
    queue.put((_output(cr), graph.stats()))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_rearms_an_inherited_graph():
    module = cbench_program("telecom_gsm").get_module("lpc")
    seq = [SEARCH_PASSES[i] for i in range(16)]
    graph = CompileGraph()
    run_opt(module, seq, target=TARGET, graph=graph)
    before = graph.stats()
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_compile_in_child, args=(graph, module, seq, queue))
    # fork while this thread holds the graph's lock: the child gets a
    # fresh lock, or its compile would wait forever
    with graph._lock:
        child.start()
    try:
        output, child_stats = queue.get(timeout=120)
    finally:
        child.join(timeout=30)
    assert output == _output(run_opt(module, seq, target=TARGET))
    # the inherited nodes answered every pass; the counters started at 0
    assert child_stats["nodes"] == before["nodes"]
    assert (child_stats["passes_run"], child_stats["passes_skipped"]) == (0, 16)
    assert graph.stats() == before


def test_concurrent_threads_share_one_store():
    module = cbench_program("telecom_gsm").get_module("lpc")
    rng = random.Random(11)
    seqs = _family(rng, parents=3, children=4)
    cold = {tuple(s): _output(run_opt(module, s, target=TARGET)) for s in seqs}
    graph = CompileGraph()
    errors = []

    def worker(order):
        try:
            for seq in order:
                got = run_opt(module, seq, target=TARGET, graph=graph)
                if _output(got) != cold[tuple(seq)]:
                    errors.append(seq)
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=worker, args=(random.Random(i).sample(seqs, len(seqs)) * 2,))
            for i in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    stats = graph.stats()
    assert stats["passes_run"] + stats["passes_skipped"] == 6 * 2 * len(seqs) * 16
    assert 0 < stats["passes_run"] < stats["passes_skipped"]
    _assert_graph_sound(graph)


def test_task_reports_graph_counters():
    with _task() as task:
        _warm(task)
        task.compile_batch([("lpc", list(range(12)) + [7] * 4)])
        timing = task.timing_breakdown()
        flat = task.metrics.flat()
    stats = task.graph.stats()
    assert set(stats) == {"nodes", "edges", "passes_run", "passes_unchanged",
                          "passes_skipped", "rederived"}
    assert stats["passes_skipped"] >= 12
    for key, value in stats.items():
        assert timing[f"graph_{key}"] == value
        assert flat[f"compiler.graph_{key}"] == value
    assert not any(k.startswith("snapshot_") for k in timing)


def test_unclosed_tasks_and_their_snapshots_are_collected():
    # tasks are often built in a loop and never closed; each one, with the
    # states its graph holds, must stay reachable by the collector
    frozen = gc.get_freeze_count()
    refs = []
    for _ in range(3):
        task = _task()
        _warm(task)
        refs.append((weakref.ref(task), weakref.ref(task.graph)))
        del task
    assert gc.get_freeze_count() == frozen
    gc.collect()
    assert all(t() is None and g() is None for t, g in refs)


#: seeded 16-pass compiles whose output differed between string hash
#: seeds 0 and 1 when loops were found in set order
_HASH_SENSITIVE = [
    ("automotive_susan_c", "susan_c", "mem2reg memcpyopt function-attrs bdce instsimplify reassociate tailcallelim loop-unswitch loop-rotate instsimplify ipsccp correlated-propagation gvn loop-simplify memcpyopt tailcallelim"),
    ("consumer_bzip2d", "bz_rle", "dse licm constmerge instcombine inline sroa function-attrs div-rem-pairs div-rem-pairs simplifycfg instsimplify dse tailcallelim constmerge constmerge licm"),
    ("consumer_bzip2d", "bz_rle", "dce reassociate sroa loop-unswitch mem2reg loop-simplify dse inline sink loop-unroll mergefunc aggressive-instcombine gvn sink ipsccp instcombine"),
    ("consumer_tiff2bw", "tiff_scale", "constmerge sroa loop-vectorize aggressive-instcombine div-rem-pairs reassociate div-rem-pairs inline memcpyopt sroa slp-vectorizer licm early-cse licm tailcallelim loop-rotate"),
    ("network_patricia", "patricia", "loop-deletion loop-vectorize instsimplify loop-unroll mem2reg loop-rotate licm indvars gvn indvars inline loop-unroll lcssa sink deadargelim inline"),
    ("telecom_adpcm_c", "adpcm_coder", "loop-idiom loop-unroll correlated-propagation function-attrs loop-idiom div-rem-pairs sroa simplifycfg loop-simplify loop-vectorize loop-simplify gvn loop-rotate sink licm ipsccp"),
    ("519.lbm_r", "lbm_stream", "memcpyopt loop-vectorize function-attrs slp-vectorizer inline loop-unroll inline jump-threading loop-deletion instsimplify bdce mem2reg loop-rotate globalopt sink aggressive-instcombine"),
    ("557.xz_r", "xz_buffer", "constmerge sccp simplifycfg instsimplify div-rem-pairs deadargelim dse globaldce mem2reg constmerge memcpyopt tailcallelim loop-unroll constmerge lcssa dce"),
]

_HASH_SCRIPT = """
import json, sys
from repro import cbench_names, cbench_program, spec_program
from repro.compiler.opt_tool import run_opt
from repro.compiler.textual import print_module
from repro.machine.platforms import get_platform
target = get_platform("arm-a57").target_info()
out = []
for prog, mod, seq in json.loads(sys.argv[1]):
    program = cbench_program(prog) if prog in cbench_names() else spec_program(prog)
    cr = run_opt(program.get_module(mod), seq.split(), target=target)
    out.append([print_module(cr.module), cr.stats_json()])
print(json.dumps(out))
"""


def test_compile_output_does_not_depend_on_the_hash_seed():
    outputs = []
    for salt in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=salt,
                   PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run(
            [sys.executable, "-c", _HASH_SCRIPT, json.dumps(_HASH_SENSITIVE)],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        outputs.append(json.loads(proc.stdout))
    assert len(outputs[0]) == len(_HASH_SENSITIVE)
    for case, a, b in zip(_HASH_SENSITIVE, *outputs):
        assert a == b, case
