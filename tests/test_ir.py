"""Unit tests for the IR data structures and builder."""

import numpy as np
import pytest

from repro.compiler.builder import FunctionBuilder, c
from repro.compiler.ir import (
    BIN_OPS,
    Const,
    F64,
    Function,
    GlobalVar,
    I1,
    I16,
    I32,
    I64,
    Instr,
    Module,
    PTR,
    TERMINATORS,
    Type,
    VOID,
    is_commutative,
    vec,
)
from repro.compiler.opt_tool import run_opt
from repro.compiler.pass_manager import PassManager
from repro.compiler.pipelines import SEARCH_PASSES, pipeline
from repro.compiler.textual import print_module
from repro.workloads import cbench_names, cbench_program, spec_names, spec_program


class TestTypes:
    def test_scalar_reprs(self):
        assert repr(I32) == "i32"
        assert repr(F64) == "f64"
        assert repr(PTR) == "ptr"
        assert repr(VOID) == "void"

    def test_byte_sizes(self):
        assert I16.byte_size() == 2
        assert I32.byte_size() == 4
        assert I64.byte_size() == 8
        assert PTR.byte_size() == 8
        assert F64.byte_size() == 8
        assert I1.byte_size() == 1  # sub-byte rounds up

    def test_vec_interning(self):
        assert vec(I32, 4) is vec(I32, 4)
        assert vec(I32, 4) is not vec(I32, 8)
        assert vec(I32, 4).byte_size() == 16

    def test_kind_predicates(self):
        assert I32.is_int and not I32.is_float
        assert F64.is_float and not F64.is_int
        assert PTR.is_ptr
        assert vec(I32, 4).is_vec

    def test_types_hashable(self):
        assert len({I32, I32, I64}) == 2


class TestInstr:
    def test_clone_is_deep(self):
        inst = Instr("phi", "%x", I32, (), incoming=[("a", "%v"), ("b", Const(1, I32))])
        cl = inst.clone()
        cl.attrs["incoming"].append(("c", Const(2, I32)))
        assert cl.replace_uses({"%v": "%w"})
        cl.args.append("%y")
        cl.attrs["extra"] = 1
        assert inst.attrs == {"incoming": [("a", "%v"), ("b", Const(1, I32))]}
        assert inst.args == []
        assert cl.attrs["incoming"][0] == ("a", "%w")

    def test_operands_include_phi_incoming(self):
        inst = Instr("phi", "%x", I32, (), incoming=[("a", "%v"), ("b", Const(2, I32))])
        assert list(inst.reg_operands()) == ["%v"]

    def test_replace_uses_args_and_phis(self):
        inst = Instr("add", "%x", I32, ("%a", "%b"))
        assert inst.replace_uses({"%a": "%c"})
        assert inst.args == ["%c", "%b"]
        phi = Instr("phi", "%p", I32, (), incoming=[("blk", "%a")])
        assert phi.replace_uses({"%a": Const(7, I32)})
        assert phi.attrs["incoming"][0][1] == Const(7, I32)

    def test_successors_and_retarget(self):
        br = Instr("br", None, VOID, ("%c",), targets=("t", "f"))
        assert br.successors() == ("t", "f")
        br.retarget("t", "x")
        assert br.successors() == ("x", "f")
        jmp = Instr("jmp", None, VOID, (), target="a")
        jmp.retarget("a", "b")
        assert jmp.successors() == ("b",)

    def test_terminator_property(self):
        for op in TERMINATORS:
            assert Instr(op).is_terminator
        assert not Instr("add", "%x", I32, ()).is_terminator

    def test_commutativity_table(self):
        assert is_commutative("add") and is_commutative("fmul")
        assert not is_commutative("sub") and not is_commutative("sdiv")
        assert BIN_OPS >= {"add", "fdiv", "xor"}


class TestFunctionModule:
    def test_fresh_names_unique(self):
        fn = Function("f", [], VOID)
        names = {fn.fresh() for _ in range(100)}
        assert len(names) == 100

    def test_duplicate_block_rejected(self):
        fn = Function("f", [], VOID)
        fn.add_block("entry")
        with pytest.raises(ValueError):
            fn.add_block("entry")

    def test_predecessors(self):
        mod = Module("m")
        b = FunctionBuilder(mod, "f", [], VOID)
        b.br(c(1, I1), "a", "bb")
        b.block("a")
        b.jmp("bb")
        b.block("bb")
        b.ret()
        preds = b.fn.predecessors()
        assert sorted(preds["bb"]) == ["a", "entry"]

    def test_clone_independent(self):
        mod = Module("m")
        b = FunctionBuilder(mod, "f", [], I32)
        x = b.add(c(1, I32), c(2, I32))
        b.ret(x)
        cl = mod.clone()
        cl.functions["f"].entry.instrs.clear()
        assert mod.functions["f"].num_instrs() == 2

    def test_module_global_dup_rejected(self):
        mod = Module("m")
        mod.add_global(GlobalVar("g", I32, [1]))
        with pytest.raises(ValueError):
            mod.add_global(GlobalVar("g", I32, [2]))

    def test_defs_map(self):
        mod = Module("m")
        b = FunctionBuilder(mod, "f", [], I32)
        x = b.add(c(1, I32), c(2, I32))
        b.ret(x)
        defs = b.fn.defs()
        assert defs[x].op == "add"

    def test_replace_all_uses_counts(self):
        mod = Module("m")
        b = FunctionBuilder(mod, "f", [], I32)
        x = b.add(c(1, I32), c(2, I32))
        y = b.mul(x, x, I32)
        b.ret(y)
        n = b.fn.replace_all_uses({x: Const(3, I32)})
        assert n == 1  # one instruction (the mul) was changed

    def test_reorder_blocks(self):
        mod = Module("m")
        b = FunctionBuilder(mod, "f", [], VOID)
        b.jmp("second")
        b.block("second")
        b.ret()
        b.fn.reorder_blocks(["entry", "second"])
        assert list(b.fn.blocks) == ["entry", "second"]


class TestBuilder:
    def test_counted_loop_shape(self, sum_loop_module):
        fn = sum_loop_module.functions["main"]
        # front-end style: induction variable lives in memory
        allocas = [i for i in fn.instructions() if i.op == "alloca"]
        assert len(allocas) >= 2  # i slot + accumulator
        assert len(fn.blocks) == 5  # entry, header, body, latch, exit

    def test_if_then_else_blocks(self):
        mod = Module("m")
        b = FunctionBuilder(mod, "f", [("x", I32)], I32)
        cond = b.icmp("slt", "x", c(0, I32))
        slot = b.alloca(I32)
        b.if_then(cond, lambda bt: bt.store(c(-1, I32), slot), lambda bt: bt.store(c(1, I32), slot))
        b.ret(b.load(I32, slot))
        assert len(b.fn.blocks) == 4  # entry, then, else, merge

    def test_call_void_returns_none(self):
        mod = Module("m")
        cal = FunctionBuilder(mod, "callee", [], VOID)
        cal.ret()
        b = FunctionBuilder(mod, "f", [], VOID)
        assert b.call("callee", []) is None
        b.ret()


_SUITE_PROGRAMS = [("cbench", n) for n in cbench_names()] + [("spec", n) for n in spec_names()]


@pytest.mark.parametrize("suite,name", _SUITE_PROGRAMS)
def test_optimising_a_clone_leaves_the_original_unchanged(suite, name):
    """Clones share immutable attrs with their source; a random 16-pass
    pipeline on the clone must not reach back into the original.  Source
    modules are alloca-based, so their -O3 builds are cloned too: those
    carry the phis whose incoming lists the passes rewrite in place."""
    program = cbench_program(name) if suite == "cbench" else spec_program(name)
    rng = np.random.default_rng(sum(name.encode()))
    o3 = [run_opt(mod, pipeline("-O3")).module for mod in program.modules]
    assert any(
        inst.op == "phi" for m in o3 for fn in m.functions.values() for inst in fn.instructions()
    )
    for mod in list(program.modules) + o3:
        before = print_module(mod)
        for _ in range(6):
            seq = [SEARCH_PASSES[i] for i in rng.integers(0, len(SEARCH_PASSES), 16)]
            PassManager(seq, verify_each=True).run(mod.clone())
            assert print_module(mod) == before, seq
