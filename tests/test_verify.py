"""Verifier tests: each structural invariant is actually enforced."""

import pytest

from repro.compiler.builder import FunctionBuilder, c
from repro.compiler.ir import Const, I1, I32, Instr, Module, VOID
from repro.compiler.opt_tool import run_opt
from repro.compiler.pipelines import pipeline
from repro.compiler.verify import VerifyError, verify_function, verify_module
from repro.workloads import cbench_names, cbench_program, spec_names, spec_program


def valid_fn():
    mod = Module("m")
    b = FunctionBuilder(mod, "f", [("x", I32)], I32)
    cond = b.icmp("slt", "x", c(0, I32))
    b.br(cond, "a", "bb")
    b.block("a")
    b.jmp("bb")
    b.block("bb")
    b.ret(c(0, I32))
    return mod, b.fn


def test_valid_function_passes():
    mod, fn = valid_fn()
    verify_function(fn, mod)
    verify_module(mod)


def test_missing_terminator():
    mod = Module("m")
    fn = mod.add_function(__import__("repro.compiler.ir", fromlist=["Function"]).Function("f", [], VOID))
    blk = fn.add_block("entry")
    blk.instrs.append(Instr("add", "%x", I32, (Const(1, I32), Const(2, I32))))
    with pytest.raises(VerifyError, match="terminator"):
        verify_function(fn)


def test_terminator_mid_block():
    mod, fn = valid_fn()
    fn.blocks["a"].instrs.insert(0, Instr("ret", None, VOID, (Const(0, I32),)))
    with pytest.raises(VerifyError, match="mid-block"):
        verify_function(fn)


def test_double_definition():
    mod, fn = valid_fn()
    dup = fn.blocks["a"]
    dup.instrs.insert(0, Instr("add", "%d", I32, (Const(1, I32), Const(1, I32))))
    dup.instrs.insert(1, Instr("add", "%d", I32, (Const(1, I32), Const(1, I32))))
    with pytest.raises(VerifyError, match="defined twice"):
        verify_function(fn)


def test_branch_to_unknown_block():
    mod, fn = valid_fn()
    fn.blocks["a"].instrs[-1] = Instr("jmp", None, VOID, (), target="nope")
    with pytest.raises(VerifyError, match="unknown block"):
        verify_function(fn)


def test_use_of_undefined_register():
    mod, fn = valid_fn()
    fn.blocks["bb"].instrs.insert(0, Instr("add", "%u", I32, ("%ghost", Const(1, I32))))
    with pytest.raises(VerifyError, match="undefined"):
        verify_function(fn)


def test_phi_incoming_mismatch():
    mod, fn = valid_fn()
    # bb has preds {entry, a}; a phi citing only `a` must be rejected
    fn.blocks["bb"].instrs.insert(
        0, Instr("phi", "%p", I32, (), incoming=[("a", Const(1, I32))])
    )
    with pytest.raises(VerifyError, match="phi incoming"):
        verify_function(fn)


def test_phi_after_non_phi():
    mod, fn = valid_fn()
    blk = fn.blocks["bb"]
    blk.instrs.insert(0, Instr("add", "%q", I32, (Const(1, I32), Const(1, I32))))
    blk.instrs.insert(
        1,
        Instr("phi", "%p", I32, (), incoming=[("entry", Const(1, I32)), ("a", Const(2, I32))]),
    )
    with pytest.raises(VerifyError, match="phi after non-phi"):
        verify_function(fn)


def test_use_not_dominated():
    mod = Module("m")
    b = FunctionBuilder(mod, "f", [("x", I32)], I32)
    cond = b.icmp("slt", "x", c(0, I32))
    b.br(cond, "a", "bb")
    b.block("a")
    v = b.add(c(1, I32), c(2, I32))
    b.jmp("bb")
    b.block("bb")
    b.ret(v)  # `v` defined only on the `a` path
    with pytest.raises(VerifyError, match="not dominated"):
        verify_function(b.fn)


def test_use_before_def_in_block():
    mod, fn = valid_fn()
    blk = fn.blocks["a"]
    blk.instrs.insert(0, Instr("add", "%y", I32, ("%z", Const(1, I32))))
    blk.instrs.insert(1, Instr("add", "%z", I32, (Const(1, I32), Const(1, I32))))
    with pytest.raises(VerifyError):
        verify_function(fn)


def test_call_arity_checked_at_module_level():
    mod = Module("m")
    g = FunctionBuilder(mod, "g", [("a", I32)], I32)
    g.ret("a")
    b = FunctionBuilder(mod, "f", [], I32)
    b.emit(Instr("call", "%r", I32, (), callee="g"))
    b.ret("%r")
    with pytest.raises(VerifyError, match="expects"):
        verify_module(mod)


def test_unreachable_blocks_tolerated():
    mod, fn = valid_fn()
    orphan = fn.add_block("orphan")
    # even a structurally odd (but terminated) unreachable block is fine
    orphan.instrs.append(Instr("jmp", None, VOID, (), target="bb"))
    verify_function(fn, mod)


def test_list_branch_targets_rejected():
    mod, fn = valid_fn()
    fn.entry.instrs[-1] = Instr("br", None, VOID, (fn.entry.instrs[0].res,), targets=["a", "bb"])
    with pytest.raises(VerifyError, match="mutable"):
        verify_function(fn, mod)


@pytest.mark.parametrize(
    "attrs",
    [
        {"meta": {"k": 1}},
        {"meta": {1, 2}},
        {"meta": ("x", [1])},
        {"meta": Const((1, [2]), I32)},
    ],
    ids=["dict", "set", "list-in-tuple", "list-in-const"],
)
def test_mutable_attr_values_rejected(attrs):
    mod, fn = valid_fn()
    fn.blocks["a"].instrs.insert(0, Instr("add", "%y", I32, ("x", Const(1, I32)), **attrs))
    with pytest.raises(VerifyError, match="mutable"):
        verify_function(fn, mod)


@pytest.mark.parametrize(
    "incoming",
    [
        (("entry", Const(1, I32)), ("a", Const(2, I32))),
        [("entry", Const(1, I32)), ["a", Const(2, I32)]],
    ],
    ids=["tuple", "list-edge"],
)
def test_phi_incoming_must_be_list_of_pairs(incoming):
    mod, fn = valid_fn()
    fn.blocks["bb"].instrs.insert(0, Instr("phi", "%p", I32, (), incoming=incoming))
    with pytest.raises(VerifyError, match="phi incoming must be a list"):
        verify_function(fn, mod)


@pytest.mark.parametrize("name", cbench_names() + spec_names())
def test_shipped_workloads_verify_after_o3(name):
    program = cbench_program(name) if name in cbench_names() else spec_program(name)
    for mod in program.modules:
        verify_module(mod)
        verify_module(run_opt(mod, pipeline("-O3"), verify_each=True).module)
