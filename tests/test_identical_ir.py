"""The ``changed`` flag passes report, which the compile graph keys on.

A pass run on a missing edge that reports no change leaves the IR
identical: the graph runs it in place on the node's module, keeps that
module, and loops the edge back without a fingerprint; a reported change is keyed by
:func:`~repro.compiler.opt_tool.state_key`.  Every registered pass is
checked as that oracle: at states reached by prefixes of up to 120 passes
over every workload module and ``random_program`` programs, a
``changed=False`` must keep the key (``tests/flag_sweep.py`` sweeps more
seeds).  Compiles through the graph must equal cold ones, long sequences
included.  Targeted edits that value equality would miss (``Const(I1,
1)`` vs ``Const(I1, True)``, ``0.0`` vs ``-0.0``) must move the key, and
an edit a pass reports lands on the node its key names.
"""

import random

import pytest

from repro.compiler import opt_tool
from repro.compiler.ir import F64, I1, I32, Const, Function, GlobalVar, Instr, Module
from repro.compiler.opt_tool import CompileGraph, run_opt, state_key
from repro.compiler.pass_manager import Pass, registry
from repro.compiler.pipelines import SEARCH_PASSES
from repro.compiler.statistics import StatsCollector
from repro.compiler.textual import print_module
from tests.flag_sweep import TARGET, Tally, random_modules, sweep, workload_modules


def _output(cr):
    # items() keeps the order counters were first bumped in
    return print_module(cr.module), cr.stats_json(), list(cr.stats.items())


def test_every_unchanged_verdict_agrees_with_the_state_key(monkeypatch):
    rng = random.Random(23)
    work = [
        (module, [[rng.choice(SEARCH_PASSES) for _ in range(16)] for _ in range(4)])
        for _, module in workload_modules()
    ]
    cold = [[_output(run_opt(m, seq, target=TARGET)) for seq in seqs] for m, seqs in work]

    verdicts = []  # (the flag, whether the run kept the key)
    fingerprints = []
    create = registry.create

    def checked_create(name):
        pss = create(name)
        run = pss.run_on_module

        def run_on_module(module, stats, target):
            before = state_key(module)
            changed = run(module, stats, target)
            verdicts.append((changed, state_key(module) == before))
            return changed

        pss.run_on_module = run_on_module
        return pss

    monkeypatch.setattr(registry, "create", checked_create)
    monkeypatch.setattr(
        opt_tool, "state_key", lambda m: fingerprints.append(m) or state_key(m)
    )
    for (module, seqs), outputs in zip(work, cold):
        graph, start, keyed = CompileGraph(), len(verdicts), len(fingerprints)
        for seq, expected in zip(seqs, outputs):
            assert _output(run_opt(module, seq, target=TARGET, graph=graph)) == expected
        ran = verdicts[start:]
        stats = graph.stats()
        # re-deriving a handed-on module reruns the pass that created it
        assert stats["passes_run"] + stats["rederived"] == len(ran)
        assert stats["passes_unchanged"] == sum(kept for _, kept in ran)
        # one fingerprint for the source, one per reported change of a run
        # (a re-derivation is not keyed)
        assert len(fingerprints) - keyed == (
            1 + sum(changed for changed, _ in ran) - stats["rederived"]
        )
    unchanged = [kept for changed, kept in verdicts if not changed]
    # sound: a pass that reports no change always keeps the key ...
    assert all(unchanged)
    # ... and on these modules no pass over-reports
    assert sum(kept for _, kept in verdicts) == len(unchanged)
    assert len(unchanged) > len(verdicts) / 2


def _module():
    mod = Module("m")
    mod.add_global(GlobalVar("g", I32, [1, 2, 0.0]))
    mod.add_global(GlobalVar("k", F64, [0.5], const=True))
    f = mod.add_function(Function("f", [("%a", I1), ("%x", F64)], I32))
    entry, loop, done = f.add_block("entry"), f.add_block("loop"), f.add_block("done")
    entry.instrs += [
        Instr("fadd", "%t.1", F64, ["%x", Const(0.0, F64)]),
        Instr("jmp", target="loop"),
    ]
    loop.instrs += [
        Instr("phi", "%t.2", I32, incoming=[("entry", Const(1, I32)), ("loop", "%t.3")]),
        Instr("add", "%t.3", I32, ["%t.2", Const(1, I32)], nsw=1, nuw=1),
        Instr("select", "%t.4", I1, ["%a", Const(1, I1), Const(0, I1)]),
        Instr("br", args=["%t.4"], targets=("loop", "done")),
    ]
    done.instrs += [Instr("output", args=["%t.1"]), Instr("ret", args=["%t.3"])]
    f._counter = 4
    return mod


def _instr(mod, block, i):
    return mod.functions["f"].blocks[block].instrs[i]


def _set_arg(mod, block, i, j, value):
    _instr(mod, block, i).args[j] = value


def _reorder(mod):
    f = mod.functions["f"]
    f.reorder_blocks(["entry", "done", "loop"])


def _rebuild_incoming(mod):
    inc = _instr(mod, "loop", 0).attrs["incoming"]
    inc[1] = tuple(list(inc[1]))


#: edits value equality (or a printed form) would miss, and plain ones
_EDITS = {
    "Const(I1, 1) -> Const(I1, True)": lambda m: _set_arg(m, "loop", 2, 1, Const(True, I1)),
    "0.0 -> -0.0": lambda m: _set_arg(m, "entry", 0, 1, Const(-0.0, F64)),
    "equal new phi-incoming tuple": _rebuild_incoming,
    "reordered blocks": _reorder,
    "bumped counter": lambda m: m.functions["f"].fresh(),
    "flipped global const": lambda m: setattr(m.globals["k"], "const", False),
    "replaced init element": lambda m: m.globals["g"].init.__setitem__(2, -0.0),
    "init element 1 -> True": lambda m: m.globals["g"].init.__setitem__(0, True),
    "equal new Const operand": lambda m: _set_arg(m, "loop", 1, 1, Const(1, I32)),
    "attr value 1 -> True": lambda m: _instr(m, "loop", 1).attrs.update(nsw=True),
    "attr order": lambda m: setattr(
        _instr(m, "loop", 1), "attrs", dict(reversed(_instr(m, "loop", 1).attrs.items()))
    ),
    "new incoming list entry": lambda m: _instr(m, "loop", 0).attrs["incoming"].append(
        ("done", Const(1, I32))
    ),
    "params": lambda m: m.functions["f"].params.reverse(),
    "function attrs": lambda m: m.functions["f"].attrs.add("readnone"),
    "inserted instruction": lambda m: m.functions["f"].blocks["done"].instrs.insert(
        0, Instr("output", args=["%t.3"])
    ),
}


def test_a_clone_is_identical_to_its_source():
    mod = _module()
    assert state_key(mod) == state_key(mod.clone())
    # a pass that changes nothing says so and keeps the key ...
    work = mod.clone()
    assert registry.create("dce").run_on_module(work, StatsCollector(), TARGET) is False
    assert state_key(work) == state_key(mod)
    # ... so the graph loops its edge back to the source's node
    graph = CompileGraph()
    run_opt(mod, ["dce"], target=TARGET, graph=graph)
    stats = graph.stats()
    assert (stats["nodes"], stats["passes_run"], stats["passes_unchanged"]) == (1, 1, 1)


#: edits that rebuild an equal IR: the printed form, and so the key, stay
_KEY_KEEPING = {"equal new phi-incoming tuple", "equal new Const operand", "attr order"}


@pytest.mark.parametrize("what", list(_EDITS))
def test_edits_value_equality_misses_read_as_changes(what, monkeypatch):
    class Edit(Pass):
        # makes the edit and reports it
        name = "test-edit"

        def run_on_module(self, module, stats, target):
            _EDITS[what](module)
            return True

    monkeypatch.setitem(registry._factories, "test-edit", Edit)
    mod = _module()
    graph = CompileGraph()
    got = run_opt(mod, ["test-edit"], target=TARGET, graph=graph)
    cold = run_opt(mod, ["test-edit"], target=TARGET)
    assert state_key(got.module) == state_key(cold.module), what
    assert print_module(got.module) == print_module(cold.module), what
    # a reported change is keyed: it lands on a new node, or, when the
    # edit rebuilt an equal value, back on the source's own node
    moved = state_key(cold.module) != state_key(mod)
    stats = graph.stats()
    assert (stats["nodes"], stats["passes_unchanged"]) == (1 + moved, int(not moved)), what
    assert moved == (what not in _KEY_KEEPING), what


@pytest.mark.parametrize("flag", [None, 0, ""])
def test_only_an_explicit_false_is_trusted(flag, monkeypatch):
    class Sloppy(Pass):
        # edits the IR but returns a falsy non-bool
        name = "test-sloppy"

        def run_on_module(self, module, stats, target):
            _EDITS["0.0 -> -0.0"](module)
            return flag

    monkeypatch.setitem(registry._factories, "test-sloppy", Sloppy)
    mod = _module()
    graph = CompileGraph()
    cold = run_opt(mod, ["test-sloppy"], target=TARGET)
    for _ in range(2):
        got = run_opt(mod, ["test-sloppy"], target=TARGET, graph=graph)
        assert print_module(got.module) == print_module(cold.module)
    # the result was keyed, so the edit reached a node of its own
    stats = graph.stats()
    assert (stats["nodes"], stats["passes_run"], stats["passes_unchanged"]) == (2, 1, 0)


def test_value_equal_edits_print_differently():
    # why the check is not ==: each pair compares equal yet prints apart
    assert Const(1, I1) == Const(True, I1)
    assert Const(0.0, F64) == Const(-0.0, F64)
    for what in ("Const(I1, 1) -> Const(I1, True)", "0.0 -> -0.0", "replaced init element"):
        mod = _module()
        work = mod.clone()
        _EDITS[what](work)
        assert state_key(work) != state_key(mod), what


def test_a_pass_that_reports_no_change_keeps_the_state_key():
    # every registered pass, at states up to 120 passes deep, on every
    # workload module and on random programs
    tally = Tally()
    workloads, randoms = workload_modules(), random_modules(31, 4)
    assert sweep(29, workloads, 2, 120, tally)
    assert sweep(31, randoms, 3, 120, tally)
    assert tally.failures == []
    assert tally.checked == (2 * len(workloads) + 3 * len(randoms)) * len(registry.names())
    assert tally.unchanged > tally.checked / 2


def test_long_sequences_through_the_graph_equal_cold():
    # 120-pass sequences, twice over: the second compile follows the edges
    # the first one stored
    rng = random.Random(37)
    graph = CompileGraph()
    workloads = workload_modules()
    for program, module in workloads:
        seq = [rng.choice(SEARCH_PASSES) for _ in range(120)]
        cold = _output(run_opt(module, seq, target=TARGET))
        for _ in range(2):
            got = run_opt(module, seq, target=TARGET, graph=graph)
            assert _output(got) == cold, (program, module.name, seq)
    assert graph.stats()["passes_skipped"] >= len(workloads) * 120
