"""Seeded property test of the compile graph's in-place runs.

A pass that finds its edge missing runs on the node's own module, in
place, and a pass that changes the IR hands that module on to the state
it creates; the node it left re-derives its module (a clone of its
parent's plus the one creating pass) when it is needed again.  Whatever
the graph does with its modules, a compile through it must equal a cold
:func:`~repro.compiler.opt_tool.run_opt`, module text and statistics
alike.  The property is checked on ``random_program`` programs crossed
with pass sequences of up to 120 passes that share prefixes, with a graph
capacity small enough to force eviction and re-derivation, a pass that
raises in the middle of a run, and the journal merged into a second graph
that then compiles the same sequences and new ones.
"""

import random

import pytest

from repro.compiler import opt_tool
from repro.compiler.opt_tool import CompileGraph, run_opt, state_key
from repro.compiler.pass_manager import registry
from repro.compiler.pipelines import SEARCH_PASSES
from repro.compiler.textual import print_module
from repro.machine.platforms import get_platform
from repro.workloads.generator import random_program

TARGET = get_platform("arm-a57").target_info()
#: nodes a graph keeps here: a few states, so compiles evict and re-derive
CAPACITY = 6


def _output(cr):
    # items() keeps the order counters were first bumped in
    return print_module(cr.module), cr.stats_json(), list(cr.stats.items())


def _sequences(rng, n, max_len=120):
    """``n`` sequences of up to ``max_len`` passes; most share a prefix
    with an earlier one, so compiles meet known states."""
    seqs = []
    for _ in range(n):
        length = rng.randrange(1, max_len + 1)
        tail = [rng.choice(SEARCH_PASSES) for _ in range(length)]
        if seqs and rng.random() < 0.7:
            base = rng.choice(seqs)
            cut = rng.randrange(len(base) + 1)
            tail = base[:cut] + tail[: max(0, length - cut)]
        seqs.append(tail)
    return seqs


def _check_nodes(graph):
    """Every kept node's module, re-derived where it was handed on, prints
    to the node's key; no more modules than nodes, no more nodes than the
    capacity."""
    nodes = list(graph._nodes.values())
    assert len(nodes) <= CAPACITY
    for node in nodes:
        with graph._lock:
            module = graph._module(node)
        assert state_key(module) == node.key


def _raise_on(monkeypatch, name, call):
    """Make pass ``name`` raise on its ``call``-th application from now on,
    after changing the module half-way, as a crash would."""
    cls = type(registry.create(name))
    real = cls.run_on_module
    calls = [0]

    def run_on_module(self, module, stats, target):
        calls[0] += 1
        changed = real(self, module, stats, target)
        if calls[0] == call:
            next(iter(module.functions.values()))._counter += 1
            raise RuntimeError("pass crashed")
        return changed

    monkeypatch.setattr(cls, "run_on_module", run_on_module)
    return calls


@pytest.mark.parametrize("seed", range(6))
def test_in_place_compiles_equal_cold_ones(monkeypatch, seed):
    monkeypatch.setattr(opt_tool, "GRAPH_CAPACITY", CAPACITY)
    rng = random.Random(seed)
    program = random_program(1000 + seed, n_modules=2)
    plan = [(module, _sequences(rng, 6)) for module in program.modules]
    cold = {
        (module.name, tuple(seq)): _output(run_opt(module, seq, target=TARGET))
        for module, seqs in plan for seq in seqs
    }
    sources = {module.name: print_module(module) for module in program.modules}

    graph = CompileGraph()
    graph.take_journal()
    crash_at = rng.randrange(len(plan[0][1]))
    for module, seqs in plan:
        for i, seq in enumerate(seqs + seqs):
            if module is plan[0][0] and i == crash_at:
                # a pass that raises in the middle of this compile's runs
                with monkeypatch.context() as patch:
                    _raise_on(patch, seq[len(seq) // 2], 1)
                    with pytest.raises(RuntimeError, match="pass crashed"):
                        run_opt(module, seq, target=TARGET, graph=graph)
                _check_nodes(graph)
            got = run_opt(module, seq, target=TARGET, graph=graph)
            assert _output(got) == cold[(module.name, tuple(seq))], (seed, module.name, seq)
            _check_nodes(graph)
    stats = graph.stats()
    assert stats["passes_run"] > 0 and stats["passes_skipped"] > 0
    assert all(print_module(m) == sources[m.name] for m in program.modules)

    # a second graph that starts from the first one's journal
    entries, _counts = graph.take_journal()
    replica = CompileGraph()
    replica.merge(entries)
    _check_nodes(replica)
    for module, seqs in plan:
        fresh = _sequences(rng, 2)
        for seq in seqs + fresh:
            key = (module.name, tuple(seq))
            if key not in cold:
                cold[key] = _output(run_opt(module, seq, target=TARGET))
            got = run_opt(module, seq, target=TARGET, graph=replica)
            assert _output(got) == cold[key], (seed, module.name, seq)
    _check_nodes(replica)


def test_small_capacity_re_derives_handed_on_modules(monkeypatch):
    # the property above must exercise re-derivation, not only in-place runs
    monkeypatch.setattr(opt_tool, "GRAPH_CAPACITY", CAPACITY)
    rng = random.Random(99)
    program = random_program(99, n_modules=2)
    graph = CompileGraph()
    for module in program.modules:
        for seq in _sequences(rng, 8):
            for _ in range(2):
                got = run_opt(module, seq, target=TARGET, graph=graph)
                assert _output(got) == _output(run_opt(module, seq, target=TARGET))
    stats = graph.stats()
    assert stats["rederived"] > 0
    assert stats["passes_unchanged"] > stats["passes_run"] / 2
    _check_nodes(graph)


def test_a_miss_resumes_where_its_walk_stopped(monkeypatch):
    # the run step continues from the walk's node, walks nothing twice,
    # can be called again after a pass raised, and starts from the source
    # module once the node it stopped at was dropped
    monkeypatch.setattr(opt_tool, "GRAPH_CAPACITY", CAPACITY)
    rng = random.Random(3)
    module = random_program(3, n_modules=1).modules[0]
    seq = [rng.choice(SEARCH_PASSES) for _ in range(40)]
    cold = _output(run_opt(module, seq, target=TARGET))
    graph = CompileGraph()
    run_opt(module, seq[:20], target=TARGET, graph=graph)
    before = graph.stats()
    miss = graph.walk(module, seq, TARGET)
    assert isinstance(miss, opt_tool.Miss) and miss.i + miss.left == 40 and miss.i >= 20
    with monkeypatch.context() as patch:
        _raise_on(patch, seq[miss.i], 1)
        with pytest.raises(RuntimeError, match="pass crashed"):
            graph.resume(miss)
    assert _output(graph.resume(miss)) == cold
    stats = graph.stats()
    assert stats["passes_run"] - before["passes_run"] <= miss.left + 1  # the raised run
    assert stats["passes_skipped"] - before["passes_skipped"] >= miss.i
    _check_nodes(graph)

    graph = CompileGraph()
    run_opt(module, seq[:20], target=TARGET, graph=graph)
    miss = graph.walk(module, seq, TARGET)
    for other in _sequences(rng, 4, max_len=30):
        run_opt(module, other, target=TARGET, graph=graph)
    assert _output(graph.resume(miss)) == cold
    _check_nodes(graph)


def test_a_resume_walks_the_edges_added_since_its_walk():
    # two candidates of one batch share a prefix past where both walks
    # stopped: compiling the first adds the edges the second then walks,
    # so the shared passes run once, as in a compile from the root
    rng = random.Random(5)
    module = random_program(5, n_modules=1).modules[0]
    head = [rng.choice(SEARCH_PASSES) for _ in range(20)]
    first, second = head + ["dce"], head + ["adce"]
    graph = CompileGraph()
    run_opt(module, head[:5], target=TARGET, graph=graph)
    misses = [graph.walk(module, seq, TARGET) for seq in (first, second)]
    assert all(isinstance(miss, opt_tool.Miss) for miss in misses)
    runs = graph.stats()["passes_run"]
    graph.resume(misses[0])
    shared = graph.stats()["passes_run"] - runs
    assert _output(graph.resume(misses[1])) == _output(run_opt(module, second, target=TARGET))
    assert graph.stats()["passes_run"] - runs == shared + 1
