"""Differential sweep for fused superblock kernels.

The fusion pass (:mod:`repro.machine.fuse`) must be *observably invisible*:
for every program, every optimisation level and every fuel budget, the
fused VM produces bit-identical results — outputs, step counts, block
counts and ``FuelExhausted`` behaviour — to the unfused VM and the
reference tree walker.  This file sweeps that property over the bench
kernel families, cbench workloads at -O0/-O3, random programs under
hypothesis, and exact fuel budgets crossing every segment boundary of a
fused kernel.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench import KERNEL_FAMILIES
from repro.compiler.opt_tool import run_opt
from repro.compiler.pipelines import SEARCH_PASSES, pipeline
from repro.machine.bytecode import OP_FUSED, BytecodeVM, compile_module
from repro.machine.fuse import fuse_module, fused_stats
from repro.machine.interp import FuelExhausted, run_program
from repro.workloads import cbench_program, random_program

_SETTINGS = dict(
    deadline=None,
    max_examples=15,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

_FUEL = 5_000_000


def _tri_engine_check(modules, entry, fuel=_FUEL):
    """tree vs unfused VM vs fused VM: identical signature/steps/counts."""
    tree = run_program(modules, entry, fuel=fuel)
    bcs = [compile_module(m) for m in modules]
    plain = BytecodeVM(bcs, fuel=fuel).run(entry)
    fused_bcs = [fuse_module(bm)[0] for bm in bcs]
    fused = BytecodeVM(fused_bcs, fuel=fuel).run(entry)
    assert tree.output_signature() == plain.output_signature()
    assert plain.output_signature() == fused.output_signature()
    assert tree.steps == plain.steps == fused.steps
    assert plain.block_counts == fused.block_counts
    return fused_bcs


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
@pytest.mark.parametrize("level", ["-O0", "-O3"])
def test_cbench_bit_exact(name, level):
    prog = cbench_program(name)
    if level == "-O0":
        modules = list(prog.modules)
    else:
        modules = [run_opt(m, pipeline(level)).module for m in prog.modules]
    _tri_engine_check(modules, prog.entry, fuel=prog.fuel)


# -- wide levels with interleaved dependences ---------------------------------
#
# Kernels are emitted in program order.  These two shapes interleave a wide
# level of independent same-shape ops with their consumers: a consumer of
# the first lane right after it, and a level whose operand producers trail
# into the next level.  Any emission that reorders ops within a kernel (as
# lane batching once did) gathers a stale pre-kernel register value here.

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
    fused_bcs = _tri_engine_check([mod], "main")
    # the body must still fuse (no fusion bail-out)
    assert fused_stats(fused_bcs[0])["kernels"] >= 1


# -- fuel exhaustion at every segment boundary -------------------------------


def _exact_fuel_sweep(modules, entry, total_steps):
    """Every fuel budget in [1, total_steps]: identical verdict + state."""
    bcs = [compile_module(m) for m in modules]
    fused_bcs = [fuse_module(bm)[0] for bm in bcs]
    for fuel in range(1, total_steps + 1):
        try:
            plain = BytecodeVM(bcs, fuel=fuel).run(entry)
            plain_out = ("ok", plain.output_signature(), plain.steps)
        except FuelExhausted as exc:
            plain_out = ("fuel", str(exc))
        try:
            fused = BytecodeVM(fused_bcs, fuel=fuel).run(entry)
            fused_out = ("ok", fused.output_signature(), fused.steps)
        except FuelExhausted as exc:
            fused_out = ("fuel", str(exc))
        assert plain_out == fused_out, f"fuel={fuel}: {plain_out} != {fused_out}"


def test_fuel_exhaustion_every_boundary_fused_chain():
    """Every prefix budget through a heavily-fused body, including budgets
    landing on every internal position of every fused kernel."""
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
    bcs = [compile_module(m) for m in program.modules]
    fused_bcs = [fuse_module(bm)[0] for bm in bcs]
    try:
        plain = BytecodeVM(bcs, fuel=fuel).run(program.entry)
        plain_out = ("ok", plain.output_signature(), plain.steps)
    except FuelExhausted as exc:
        plain_out = ("fuel", str(exc))
    try:
        fused = BytecodeVM(fused_bcs, fuel=fuel).run(program.entry)
        fused_out = ("ok", fused.output_signature(), fused.steps)
    except FuelExhausted as exc:
        fused_out = ("fuel", str(exc))
    assert plain_out == fused_out


def test_fused_stats_reports_kernels():
    bm = compile_module(KERNEL_FAMILIES["fused_chain"](10))
    fused, stats = fuse_module(bm)
    assert stats["kernels"] > 0 and stats["fused_ops"] >= 3 * stats["kernels"]
    assert fused_stats(fused)["kernels"] == stats["kernels"]
