"""Differential sweep for translated bytecode.

Translating functions into generated Python (:mod:`repro.machine.codegen`)
must be *observably invisible*: for every program, every optimisation
level and every fuel budget, the translated code produces bit-identical
results — outputs, step counts, block counts *in first-execution order*
(the cycle model sums floats in that order) and ``FuelExhausted``
behaviour — to the bytecode dispatch loop and the reference tree walker.
This file sweeps that property over the parity kernel families
(:mod:`tests.kernel_families`), cbench workloads at -O0/-O1/-O3, random
programs under hypothesis, and exact fuel budgets crossing every segment
boundary; ``tests/vm_parity_sweep.py`` is the longer seeded sweep.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compiler.opt_tool import run_opt
from repro.compiler.pipelines import SEARCH_PASSES, pipeline
from repro.machine.bytecode import BytecodeVM, compile_module
from repro.machine.codegen import translate_module
from repro.machine.interp import run_program
from repro.workloads import cbench_program, random_program

from tests.kernel_families import KERNEL_FAMILIES
from tests.vm_parity_sweep import Engines, Tally, divergence, sweep

_SETTINGS = dict(
    deadline=None,
    max_examples=15,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

_FUEL = 5_000_000


def _tri_engine_check(modules, entry, fuel=_FUEL):
    """tree vs dispatch loop vs translated code: identical signature, steps
    and ordered block counts."""
    tree = run_program(modules, entry, fuel=fuel)
    bcs = [compile_module(m) for m in modules]
    plain = BytecodeVM(bcs, fuel=fuel).run(entry)
    translated_bcs = [translate_module(bm) for bm in bcs]
    translated = BytecodeVM(translated_bcs, fuel=fuel).run(entry)
    assert tree.output_signature() == plain.output_signature()
    assert plain.output_signature() == translated.output_signature()
    assert tree.steps == plain.steps == translated.steps
    counts = list(tree.block_counts.items())
    assert list(plain.block_counts.items()) == counts
    assert list(translated.block_counts.items()) == counts
    return translated_bcs


@pytest.mark.parametrize("family", sorted(KERNEL_FAMILIES))
def test_kernel_families_bit_exact(family):
    mod = KERNEL_FAMILIES[family](200)
    _tri_engine_check([mod], "main")


@pytest.mark.parametrize("family", sorted(KERNEL_FAMILIES))
@pytest.mark.parametrize("level", ["-O1", "-O3"])
def test_kernel_families_optimized_bit_exact(family, level):
    mod = KERNEL_FAMILIES[family](150)
    opt = run_opt(mod, pipeline(level)).module
    _tri_engine_check([opt], "main")


@pytest.mark.parametrize("name", ["telecom_gsm", "security_sha"])
@pytest.mark.parametrize("level", ["-O0", "-O1", "-O3"])
def test_cbench_bit_exact(name, level):
    prog = cbench_program(name)
    if level == "-O0":
        modules = list(prog.modules)
    else:
        modules = [run_opt(m, pipeline(level)).module for m in prog.modules]
    _tri_engine_check(modules, prog.entry, fuel=prog.fuel)


# -- wide levels with interleaved dependences ---------------------------------
#
# Translations are emitted in program order.  These two shapes interleave a
# wide level of independent same-shape ops with their consumers: a consumer
# of the first lane right after it, and a level whose operand producers
# trail into the next level.  Any emission that reorders ops within a block
# reads a stale register value here.

#: independent lanes per level in the interleaved shapes
_LANES = 48


def _interleaved_consumer_module():
    """``_LANES`` independent level-1 adds with a level-2 consumer of the
    first add interleaved right after it — far before the last lane."""
    from repro.compiler.builder import FunctionBuilder, c
    from repro.compiler.ir import I32, I64, Module

    mod = Module("m_interleaved")
    b = FunctionBuilder(mod, "main", [], I64)
    acc = b.alloca(I64, hint="acc")
    b.store(c(0, I64), acc)

    def body(bb, i):
        iw = bb.sext(i, I64)
        lanes = []
        consumer = None
        for k in range(_LANES):
            lanes.append(bb.add(iw, c(k + 1, I64), I64))
            if k == 0:
                consumer = bb.add(lanes[0], lanes[0], I64)
        t = consumer
        for x in lanes:
            t = bb.add(t, x, I64)
        cur = bb.load(I64, acc)
        bb.store(bb.add(cur, t, I64), acc)

    b.counted_loop(c(0, I32), c(3, I32), body)
    out = b.load(I64, acc)
    b.output(out)
    b.ret(out)
    return mod


def _anchor_inversion_module():
    """A level-2 add group that ends before the level-1 mul group does: a
    trailing consumer-free mul follows every add, so a kernel that emitted
    each group at its last member would emit the adds' operand producers
    after the adds."""
    from repro.compiler.builder import FunctionBuilder, c
    from repro.compiler.ir import I32, I64, Module

    mod = Module("m_inverted")
    b = FunctionBuilder(mod, "main", [], I64)
    acc = b.alloca(I64, hint="acc")
    b.store(c(0, I64), acc)

    def body(bb, i):
        iw = bb.sext(i, I64)
        muls, adds = [], []
        for k in range(_LANES):
            muls.append(bb.mul(iw, c(2 * k + 1, I64), I64))
            if k >= 1:
                adds.append(bb.add(muls[k - 1], c(7, I64), I64))
        adds.append(bb.add(muls[-1], c(7, I64), I64))
        extra = bb.mul(iw, c(9999, I64), I64)
        t = extra
        for x in adds:
            t = bb.add(t, x, I64)
        cur = bb.load(I64, acc)
        bb.store(bb.add(cur, t, I64), acc)

    b.counted_loop(c(0, I32), c(3, I32), body)
    out = b.load(I64, acc)
    b.output(out)
    b.ret(out)
    return mod


@pytest.mark.parametrize(
    "build", [_interleaved_consumer_module, _anchor_inversion_module],
    ids=["interleaved-consumer", "anchor-inversion"],
)
def test_batch_cohort_emission_order_bit_exact(build):
    mod = build()
    translated_bcs = _tri_engine_check([mod], "main")
    assert all(bf.native is not None for bf in translated_bcs[0].functions)


# -- fuel exhaustion at every segment boundary -------------------------------


def _exact_fuel_sweep(modules, entry, total_steps):
    """Every fuel budget in [0, total_steps + 1]: identical verdict, steps,
    ordered counts, or trap message on all three engines."""
    engines = Engines(modules)
    for fuel in range(total_steps + 2):
        diff = divergence(engines.outcomes(entry, fuel))
        assert not diff, f"fuel={fuel}:{diff}"


def test_fuel_exhaustion_every_boundary_fused_chain():
    """Every prefix budget through a long straight-line ALU body, including
    budgets landing on every position inside a block."""
    mod = KERNEL_FAMILIES["fused_chain"](4)
    ref = run_program([mod], "main", fuel=_FUEL)
    assert ref.steps < 600  # keep the exact sweep cheap
    _exact_fuel_sweep([mod], "main", ref.steps)


def test_fuel_exhaustion_every_boundary_wide():
    mod = KERNEL_FAMILIES["fused_wide"](1)
    ref = run_program([mod], "main", fuel=_FUEL)
    assert ref.steps < 2500
    _exact_fuel_sweep([mod], "main", ref.steps)


def test_fuel_exhaustion_every_boundary_int_alu_o3():
    mod = run_opt(KERNEL_FAMILIES["int_alu"](3), pipeline("-O3")).module
    ref = run_program([mod], "main", fuel=_FUEL)
    assert ref.steps < 800
    _exact_fuel_sweep([mod], "main", ref.steps)


# -- hypothesis: random programs, random sequences ---------------------------


@given(prog_seed=st.integers(0, 10**6), seq_seed=st.integers(0, 10**6))
@settings(**_SETTINGS)
def test_random_program_random_sequence_fused(prog_seed, seq_seed):
    program = random_program(seed=prog_seed, n_modules=1)
    rng = np.random.default_rng(seq_seed)
    length = int(rng.integers(0, 20))
    seq = [SEARCH_PASSES[i] for i in rng.integers(0, len(SEARCH_PASSES), length)]
    modules = [run_opt(m, seq).module for m in program.modules]
    _tri_engine_check(modules, program.entry, fuel=program.fuel)


@given(prog_seed=st.integers(0, 10**6), frac=st.floats(0.05, 0.95))
@settings(**_SETTINGS)
def test_random_program_fuel_cut_fused(prog_seed, frac):
    """A random mid-run fuel budget: identical FuelExhausted verdicts."""
    program = random_program(seed=prog_seed, n_modules=1)
    ref = run_program(list(program.modules), program.entry, fuel=program.fuel)
    fuel = max(1, int(ref.steps * frac))
    outcomes = Engines(program.modules).outcomes(program.entry, fuel)
    assert outcomes["tree"][0] == "FuelExhausted"
    assert not divergence(outcomes)


def test_translate_module_attaches_one_function_each():
    for family in ("fused_chain", "fused_wide", "calls"):
        bm = compile_module(KERNEL_FAMILIES[family](10))
        translated = translate_module(bm)
        assert [bf.name for bf in translated.functions] == [bf.name for bf in bm.functions]
        assert all(bf.native is None for bf in bm.functions), family
        assert all(callable(bf.native) for bf in translated.functions), family
        assert [bf.code for bf in translated.functions] == [bf.code for bf in bm.functions]


def test_translated_errors_match_at_call_time():
    """Unknown callees, arity mismatches and call depth fail when the call
    executes, with the dispatch loop's messages, not at translation."""
    from repro.compiler.builder import FunctionBuilder, c
    from repro.compiler.ir import I64, Module

    def caller(callee, nargs):
        mod = Module("m_calls")
        b = FunctionBuilder(mod, "main", [], I64)
        b.output(c(1, I64))
        b.output(b.call(callee, [c(k, I64) for k in range(nargs)], I64))
        b.ret(c(0, I64))
        return mod

    recursive = Module("m_rec")
    rb = FunctionBuilder(recursive, "main", [], I64)
    rb.ret(rb.call("main", [], I64))
    lib = Module("m_lib")
    lb = FunctionBuilder(lib, "two", [("a", I64), ("b", I64)], I64)
    lb.ret(lb.add("a", "b", I64))
    cases = {
        "unknown": ([caller("nope", 1)], "call to unknown function @nope"),
        "arity": ([caller("two", 3), lib], "@two called with 3 args, expects 2"),
        "depth": ([recursive], "call depth exceeded at @main"),
    }
    for name, (mods, message) in cases.items():
        outcomes = Engines(mods).outcomes("main", _FUEL)
        assert not divergence(outcomes), outcomes
        assert outcomes["translated"] == ("InterpError", message), name
    ok = Engines([caller("two", 2), lib]).outcomes("main", _FUEL)
    assert not divergence(ok) and ok["translated"][0] == "ok"


def test_repeated_parameter_name_last_argument_wins():
    """The verifier accepts ``@f(a, a)``; every engine binds the last
    argument (a Python function cannot repeat a parameter name)."""
    from repro.compiler.builder import FunctionBuilder, c
    from repro.compiler.ir import I64, Module

    mod = Module("m_params")
    fb = FunctionBuilder(mod, "f", [("a", I64), ("a", I64)], I64)
    fb.ret(fb.add("a", c(100, I64), I64))
    b = FunctionBuilder(mod, "main", [], I64)
    r = b.call("f", [c(1, I64), c(2, I64)], I64)
    b.output(r)
    b.ret(r)
    outcomes = Engines([mod]).outcomes("main", _FUEL)
    assert not divergence(outcomes), outcomes
    assert outcomes["translated"][1] == (102, (102,))


def test_special_float_constants_bound_by_name():
    """NaN, the infinities and -0.0 keep their identity as inlined
    constants."""
    from repro.compiler.builder import FunctionBuilder, c
    from repro.compiler.ir import F64, I64, Module

    mod = Module("m_floats")
    b = FunctionBuilder(mod, "main", [], I64)
    for value in (float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e300, -2.5):
        b.output(b.fadd(c(value, F64), c(-0.0, F64), F64))
        b.output(b.fmul(c(value, F64), c(1.0, F64), F64))
    b.ret(c(0, I64))
    outcomes = Engines([mod]).outcomes("main", _FUEL)
    assert not divergence(outcomes), outcomes


def test_deeply_nested_branches_translate():
    """Branches nested deeper than Python's indentation limit: blocks past
    the nesting bound become labels instead of nesting further."""
    from repro.compiler.builder import FunctionBuilder, c
    from repro.compiler.ir import I64, Module

    mod = Module("m_nested")
    b = FunctionBuilder(mod, "main", [], I64)
    acc = b.alloca(I64, hint="acc")
    b.store(c(0, I64), acc)

    def nest(bb, depth):
        bb.store(bb.add(bb.load(I64, acc), c(depth, I64), I64), acc)
        if depth < 120:
            cond = bb.icmp("slt", c(depth, I64), c(1000, I64))
            bb.if_then(cond, lambda inner: nest(inner, depth + 1), tag=f"n{depth}")

    nest(b, 0)
    out = b.load(I64, acc)
    b.output(out)
    b.ret(out)
    _tri_engine_check([mod], "main")


def test_vm_parity_sweep_short():
    """The seeded three-engine sweep CI runs at 16 seeds, on one seed."""
    tally = Tally()
    assert sweep(1, 12, 120, 3, tally)
    assert tally.compared == 14 * 4 and tally.trapped > 0
    assert not tally.failures, tally.failures[0]


def test_vector_family_emits_vector_instructions():
    mod = KERNEL_FAMILIES["vector"](10)
    assert any(
        ins.op.startswith("v")
        for fn in mod.functions.values()
        for blk in fn.blocks.values()
        for ins in blk.instrs
    )
