"""The compile graph's identity check, and the ``changed`` flag passes
report.

A pass run on a missing edge is compared with the node's module by
:func:`~repro.compiler.opt_tool.identical_ir`; only a changed result is
fingerprinted.  The check must never call two states the same when their
:func:`~repro.compiler.opt_tool.state_key` differs: a seeded sweep over
every workload module compares each verdict with the keys, and targeted
edits that value equality would miss (``Const(I1, 1)`` vs ``Const(I1,
True)``, ``0.0`` vs ``-0.0``, equal but rebuilt phi tuples) must read as
changes.  The ``changed`` flag a pass returns lands in ``pass.run`` trace
spans, so a pass that reports no change must leave the key as it was.
"""

import random

import pytest

from repro import cbench_names, cbench_program, spec_names, spec_program
from repro.compiler import opt_tool
from repro.compiler.ir import F64, I1, I32, Const, Function, GlobalVar, Instr, Module
from repro.compiler.opt_tool import CompileGraph, identical_ir, run_opt, state_key
from repro.compiler.pass_manager import registry
from repro.compiler.pipelines import SEARCH_PASSES
from repro.compiler.statistics import StatsCollector
from repro.machine.platforms import get_platform

TARGET = get_platform("arm-a57").target_info()


def _modules():
    programs = [cbench_program(n) for n in cbench_names()] + [
        spec_program(n) for n in spec_names()
    ]
    return [m for p in programs for m in p.modules]


def test_every_unchanged_verdict_agrees_with_the_state_key(monkeypatch):
    verdicts = []

    def checked(before, after):
        same = identical_ir(before, after)
        verdicts.append((same, state_key(before) == state_key(after)))
        return same

    monkeypatch.setattr(opt_tool, "identical_ir", checked)
    rng = random.Random(23)
    for module in _modules():
        graph, start = CompileGraph(), len(verdicts)
        for _ in range(4):
            seq = [rng.choice(SEARCH_PASSES) for _ in range(16)]
            got = run_opt(module, seq, target=TARGET, graph=graph)
            cold = run_opt(module, seq, target=TARGET)
            assert state_key(got.module) == state_key(cold.module)
            assert got.stats_json() == cold.stats_json()
        stats = graph.stats()
        assert stats["passes_run"] == len(verdicts) - start
        assert stats["passes_unchanged"] == sum(same for same, _ in verdicts[start:])
    unchanged = [keys for same, keys in verdicts if same]
    # sound: an identical verdict always means an equal key ...
    assert all(unchanged)
    # ... and on these modules it settles every run that kept the key
    assert sum(keys for _, keys in verdicts) == len(unchanged)
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
    assert identical_ir(mod, mod.clone())
    # a pass that changes nothing keeps it so
    work = mod.clone()
    assert not registry.create("dce").run_on_module(work, StatsCollector(), TARGET)
    assert identical_ir(mod, work)


@pytest.mark.parametrize("what", list(_EDITS))
def test_edits_value_equality_misses_read_as_changes(what):
    mod = _module()
    work = mod.clone()
    _EDITS[what](work)
    assert not identical_ir(mod, work), what


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
    rng = random.Random(29)
    names = sorted(registry.names())
    graph = CompileGraph()
    checked = 0
    for module in _modules():
        for _ in range(3):
            prefix = [rng.choice(SEARCH_PASSES) for _ in range(rng.randrange(12))]
            state = run_opt(module, prefix, target=TARGET, graph=graph).module
            key = state_key(state)
            for name in names:
                work = state.clone()
                changed = registry.create(name).run_on_module(work, StatsCollector(), TARGET)
                if not changed:
                    assert state_key(work) == key, (module.name, prefix, name)
                    checked += 1
    assert checked > 1000
