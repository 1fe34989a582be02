"""Unit tests for CFG cleanup and loop transformation passes."""

import numpy as np
import pytest

from repro.compiler.analysis import find_loops
from repro.compiler.builder import FunctionBuilder, c
from repro.compiler.ir import Const, GlobalVar, I1, I32, I64, Instr, Module, PTR, VOID
from repro.compiler.opt_tool import run_opt
from repro.compiler.pipelines import SEARCH_PASSES
from repro.machine.interp import run_program
from repro.workloads import random_program

from tests.conftest import build_sum_loop_module


def _opcount(mod, op):
    return sum(1 for f in mod.functions.values() for i in f.instructions() if i.op == op)


def _check(mod, seq):
    ref = run_program([mod]).output_signature()
    cr = run_opt(mod, seq, verify_each=True)
    out = run_program([cr.module]).output_signature()
    assert out == ref, f"{seq} changed semantics: {out} vs {ref}"
    return cr


class TestSimplifyCFG:
    def test_removes_unreachable(self):
        mod = Module("m")
        b = FunctionBuilder(mod, "main", [], I32)
        b.ret(c(0, I32))
        orphan = b.fn.add_block("orphan")
        orphan.instrs.append(Instr("ret", None, VOID, (Const(1, I32),)))
        cr = _check(mod, ["simplifycfg"])
        assert "orphan" not in cr.module.functions["main"].blocks

    def test_merges_linear_chain(self):
        mod = Module("m")
        b = FunctionBuilder(mod, "main", [], I32)
        b.jmp("b1")
        b.block("b1")
        x = b.add(c(1, I32), c(2, I32))
        b.jmp("b2")
        b.block("b2")
        b.output(x)
        b.ret(x)
        cr = _check(mod, ["simplifycfg"])
        assert len(cr.module.functions["main"].blocks) == 1

    def test_folds_same_target_branch(self):
        mod = Module("m")
        mod.add_global(GlobalVar("g", I32, [1]))
        b = FunctionBuilder(mod, "main", [], I32)
        v = b.load(I32, b.gaddr("g"))
        cond = b.icmp("slt", v, c(5, I32))
        b.br(cond, "t", "t")
        b.block("t")
        b.output(v)
        b.ret(v)
        cr = _check(mod, ["simplifycfg"])
        assert _opcount(cr.module, "br") == 0

    def test_const_branch_folded_and_phi_pruned(self):
        mod = Module("m")
        b = FunctionBuilder(mod, "main", [], I32)
        b.br(c(1, I1), "t", "f")
        b.block("t")
        b.jmp("merge")
        b.block("f")
        b.jmp("merge")
        b.block("merge")
        p = b.phi(I32, [("t", c(10, I32)), ("f", c(20, I32))])
        b.output(p)
        b.ret(p)
        cr = _check(mod, ["simplifycfg"])
        assert run_program([cr.module]).ret == 10
        assert _opcount(cr.module, "phi") == 0


class TestJumpThreading:
    def test_threads_constant_phi_condition(self):
        mod = Module("m")
        mod.add_global(GlobalVar("g", I32, [1]))
        b = FunctionBuilder(mod, "main", [], I32)
        v = b.load(I32, b.gaddr("g"))
        c0 = b.icmp("slt", v, c(100, I32))
        b.br(c0, "a", "bb")
        b.block("a")
        b.jmp("hub")
        b.block("bb")
        b.jmp("hub")
        b.block("hub")
        cond = b.phi(I1, [("a", c(1, I1)), ("bb", c(0, I1))])
        b.br(cond, "yes", "no")
        b.block("yes")
        b.output(c(111, I32))
        b.ret(c(1, I32))
        b.block("no")
        b.output(c(222, I32))
        b.ret(c(0, I32))
        cr = _check(mod, ["jump-threading"])
        assert cr.stats.get("jump-threading", "NumThreads") >= 1


class TestSink:
    def test_sinks_single_use_into_branch(self):
        mod = Module("m")
        mod.add_global(GlobalVar("g", I32, [1]))
        b = FunctionBuilder(mod, "main", [], I32)
        v = b.load(I32, b.gaddr("g"))
        expensive = b.mul(v, c(1234, I32), I32)  # only used on one arm
        cond = b.icmp("slt", v, c(0, I32))
        b.br(cond, "use", "skip")
        b.block("use")
        b.output(expensive)
        b.ret(c(1, I32))
        b.block("skip")
        b.output(c(0, I32))
        b.ret(c(0, I32))
        cr = _check(mod, ["sink"])
        assert cr.stats.get("sink", "NumSunk") == 1
        fn = cr.module.functions["main"]
        assert any(i.op == "mul" for i in fn.blocks["use"].instrs)


class TestCorrelatedPropagation:
    def test_propagates_eq_constant(self):
        mod = Module("m")
        mod.add_global(GlobalVar("g", I32, [7]))
        b = FunctionBuilder(mod, "main", [], I32)
        v = b.load(I32, b.gaddr("g"))
        cond = b.icmp("eq", v, c(7, I32))
        b.br(cond, "yes", "no")
        b.block("yes")
        out = b.add(v, c(1, I32), I32)  # v is 7 here
        b.output(out)
        b.ret(out)
        b.block("no")
        b.output(v)
        b.ret(v)
        cr = _check(mod, ["correlated-propagation"])
        assert cr.stats.get("correlated-propagation", "NumReplacements") >= 1


class TestLICM:
    def test_hoists_invariant_arith(self):
        mod = Module("m")
        mod.add_global(GlobalVar("g", I32, [5]))
        b = FunctionBuilder(mod, "main", [], I32)
        v = b.load(I32, b.gaddr("g"))
        acc = b.alloca(I32)
        b.store(c(0, I32), acc)

        def body(bb, i):
            heavy = bb.mul(v, c(17, I32), I32)  # loop-invariant
            cur = bb.load(I32, acc)
            bb.store(bb.add(cur, heavy, I32), acc)

        b.counted_loop(c(0, I32), c(8, I32), body)
        out = b.load(I32, acc)
        b.output(out)
        b.ret(out)
        cr = _check(mod, ["mem2reg", "licm"])
        assert cr.stats.get("licm", "NumHoisted") >= 1
        # the multiply must now execute once, not 8 times
        r = run_program([cr.module])
        fn = cr.module.functions["main"]
        mul_blocks = [
            bn for bn, blk in fn.blocks.items() if any(i.op == "mul" for i in blk.instrs)
        ]
        loops = find_loops(fn)
        assert loops and all(bn not in loops[0].blocks for bn in mul_blocks)

    def test_load_not_hoisted_when_loop_writes(self):
        mod = Module("m")
        mod.add_global(GlobalVar("g", I32, [5]))
        b = FunctionBuilder(mod, "main", [], I32)
        gaddr = b.gaddr("g")
        acc = b.alloca(I32)
        b.store(c(0, I32), acc)

        def body(bb, i):
            v = bb.load(I32, gaddr)  # NOT invariant: the loop writes g
            cur = bb.load(I32, acc)
            bb.store(bb.add(cur, v, I32), acc)
            bb.store(bb.add(v, c(1, I32), I32), gaddr)

        b.counted_loop(c(0, I32), c(4, I32), body)
        out = b.load(I32, acc)
        b.output(out)
        b.ret(out)
        _check(mod, ["mem2reg", "licm"])  # semantics preserved is the test


class TestLoopRotate:
    def test_rotation_preserves_semantics_and_counts(self, sum_loop_module):
        cr = _check(sum_loop_module, ["mem2reg", "loop-rotate", "simplifycfg"])
        assert cr.stats.get("loop-rotate", "NumRotated") == 1
        # rotated form runs fewer blocks per iteration
        r = run_program([cr.module])
        assert r.ret == sum(range(1, 17))

    def test_zero_trip_guard(self):
        mod = Module("m")
        b = FunctionBuilder(mod, "main", [], I32)
        acc = b.alloca(I32)
        b.store(c(42, I32), acc)

        def body(bb, i):
            bb.store(c(0, I32), acc)

        b.counted_loop(c(5, I32), c(5, I32), body)  # zero iterations
        out = b.load(I32, acc)
        b.output(out)
        b.ret(out)
        cr = _check(mod, ["mem2reg", "loop-rotate", "simplifycfg", "sccp", "dce"])
        assert run_program([cr.module]).ret == 42

    def test_exit_shared_by_unswitched_copies(self):
        # loop-unswitch leaves two copies of a loop exiting to one block,
        # and each copy a dead arm that reads its header phi; rotating
        # them used to put a merge phi in the shared exit that named only
        # one copy's edges (found by the differential property test)
        program = random_program(seed=1, n_modules=1)
        rng = np.random.default_rng(2037)
        length = int(rng.integers(1, 25))
        seq = [SEARCH_PASSES[i] for i in rng.integers(0, len(SEARCH_PASSES), length)]
        assert seq[8:10] == ["loop-unswitch", "loop-rotate"]
        ref = program.reference_output().output_signature()
        cr = run_opt(program.modules[0], seq, verify_each=True)
        assert cr.stats.get("loop-rotate", "NumRotated") == 2
        out = run_program([cr.module], program.entry, fuel=program.fuel)
        assert out.output_signature() == ref


class TestLoopUnroll:
    def test_full_unroll_removes_loop(self, sum_loop_module):
        cr = _check(sum_loop_module, ["mem2reg", "loop-unroll", "simplifycfg"])
        assert cr.stats.get("loop-unroll", "NumFullyUnrolled") == 1
        fn = cr.module.functions["main"]
        assert not find_loops(fn)
        assert run_program([cr.module]).ret == sum(range(1, 17))

    def test_threshold_blocks_large_loops(self):
        mod = Module("m")
        mod.add_global(GlobalVar("g", I32, [0] * 4))
        b = FunctionBuilder(mod, "main", [], I32)
        g = b.gaddr("g")
        acc = b.alloca(I32)
        b.store(c(0, I32), acc)

        def body(bb, i):  # big body so trips*size exceeds the threshold
            cur = bb.load(I32, acc)
            for _ in range(12):
                cur = bb.add(cur, bb.load(I32, bb.gep(g, bb.and_(i, c(3, I32), I32), I32)), I32)
            bb.store(cur, acc)

        b.counted_loop(c(0, I32), c(64, I32), body)
        out = b.load(I32, acc)
        b.output(out)
        b.ret(out)
        cr = _check(mod, ["mem2reg", "loop-unroll"])
        assert cr.stats.get("loop-unroll", "NumFullyUnrolled") == 0

    def test_unroll_requires_mem2reg_first(self, sum_loop_module):
        cr = _check(sum_loop_module, ["loop-unroll"])
        assert cr.stats.get("loop-unroll", "NumFullyUnrolled") == 0


class TestLoopDeletion:
    def test_deletes_dead_loop(self):
        mod = Module("m")
        b = FunctionBuilder(mod, "main", [], I32)
        junk = b.alloca(I32)
        b.store(c(0, I32), junk)

        def body(bb, i):
            v = bb.load(I32, junk)
            bb.store(bb.add(v, c(1, I32), I32), junk)

        b.counted_loop(c(0, I32), c(10, I32), body)
        b.output(c(5, I32))
        b.ret(c(5, I32))
        cr = _check(mod, ["mem2reg", "dce", "loop-deletion", "simplifycfg"])
        assert cr.stats.get("loop-deletion", "NumDeleted") == 1

    def test_keeps_observable_loop(self, sum_loop_module):
        cr = _check(sum_loop_module, ["mem2reg", "loop-deletion"])
        assert cr.stats.get("loop-deletion", "NumDeleted") == 0


class TestLoopIdiom:
    def test_memset_recognised(self):
        mod = Module("m")
        mod.add_global(GlobalVar("buf", I32, [9] * 8))
        b = FunctionBuilder(mod, "main", [], I32)
        buf = b.gaddr("buf")

        def body(bb, i):
            bb.store(c(0, I32), bb.gep(buf, i, I32))

        b.counted_loop(c(0, I32), c(8, I32), body)
        out = b.load(I32, b.gep(buf, c(7, I64), I32))
        b.output(out)
        b.ret(out)
        cr = _check(mod, ["mem2reg", "loop-idiom"])
        assert cr.stats.get("loop-idiom", "NumMemSet") == 1
        assert _opcount(cr.module, "memset") == 1
        assert run_program([cr.module]).ret == 0

    def test_memcpy_recognised_for_disjoint_globals(self):
        mod = Module("m")
        mod.add_global(GlobalVar("src", I32, list(range(8))))
        mod.add_global(GlobalVar("dst", I32, [0] * 8))
        b = FunctionBuilder(mod, "main", [], I32)
        src, dst = b.gaddr("src"), b.gaddr("dst")

        def body(bb, i):
            bb.store(bb.load(I32, bb.gep(src, i, I32)), bb.gep(dst, i, I32))

        b.counted_loop(c(0, I32), c(8, I32), body)
        out = b.load(I32, b.gep(dst, c(5, I64), I32))
        b.output(out)
        b.ret(out)
        cr = _check(mod, ["mem2reg", "loop-idiom"])
        assert cr.stats.get("loop-idiom", "NumMemCpy") == 1
        assert run_program([cr.module]).ret == 5

    def test_same_base_copy_not_memcpy(self):
        # potential overlap: shifting within one array must NOT become memcpy
        mod = Module("m")
        mod.add_global(GlobalVar("a", I32, list(range(10))))
        b = FunctionBuilder(mod, "main", [], I32)
        a = b.gaddr("a")
        a1 = b.gep(a, c(1, I64), I32)

        def body(bb, i):
            bb.store(bb.load(I32, bb.gep(a, i, I32)), bb.gep(a1, i, I32))

        b.counted_loop(c(0, I32), c(8, I32), body)
        out = b.load(I32, b.gep(a, c(8, I64), I32))
        b.output(out)
        b.ret(out)
        cr = _check(mod, ["mem2reg", "loop-idiom"])
        assert cr.stats.get("loop-idiom", "NumMemCpy") == 0


class TestIndVars:
    def test_widen_removes_loop_sext(self):
        mod = Module("m")
        mod.add_global(GlobalVar("g", I32, list(range(8))))
        b = FunctionBuilder(mod, "main", [], I32)
        g = b.gaddr("g")
        acc = b.alloca(I32)
        b.store(c(0, I32), acc)

        def body(bb, i):
            wide = bb.sext(i, I64)
            v = bb.load(I32, bb.gep(g, wide, I32))
            cur = bb.load(I32, acc)
            bb.store(bb.add(cur, v, I32), acc)

        b.counted_loop(c(0, I32), c(8, I32), body)
        out = b.load(I32, acc)
        b.output(out)
        b.ret(out)
        cr = _check(mod, ["mem2reg", "early-cse", "indvars"])
        assert cr.stats.get("indvars", "NumWidened") == 1


class TestLoopUnswitch:
    def test_hoists_invariant_branch(self):
        mod = Module("m")
        mod.add_global(GlobalVar("flag", I32, [1]))
        mod.add_global(GlobalVar("g", I32, list(range(8))))
        b = FunctionBuilder(mod, "main", [], I32)
        fl = b.load(I32, b.gaddr("flag"))
        inv = b.icmp("eq", fl, c(1, I32))
        g = b.gaddr("g")
        acc = b.alloca(I32)
        b.store(c(0, I32), acc)

        def body(bb, i):
            slot = bb.alloca(I32)

            def yes(bt):
                bt.store(bt.load(I32, bt.gep(g, i, I32)), slot)

            def no(bt):
                bt.store(c(0, I32), slot)

            bb.if_then(inv, yes, no, tag="sw")
            cur = bb.load(I32, acc)
            bb.store(bb.add(cur, bb.load(I32, slot), I32), acc)

        b.counted_loop(c(0, I32), c(8, I32), body)
        out = b.load(I32, acc)
        b.output(out)
        b.ret(out)
        cr = _check(mod, ["mem2reg", "loop-unswitch", "sccp", "simplifycfg", "dce"])
        assert cr.stats.get("loop-unswitch", "NumBranches") == 1
        assert run_program([cr.module]).ret == sum(range(8))
