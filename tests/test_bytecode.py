"""Bytecode VM parity, interpreter semantics fixes, and engine wiring.

Three concerns:

* the flat register VM is a bit-identical drop-in for the tree walker
  (signatures, block counts, step totals, and error behaviour — including
  fuel exhaustion mid-block);
* the signed/unsigned comparison fixes (unsigned ``icmp`` predicates use
  two's-complement reinterpretation at the operand width; ``fcmp`` is
  NaN-aware and rejects unsigned predicates) hold on *both* engines;
* the profiler/task wiring (bytecode cache, batch measurement) is
  RNG-transparent: the candidates a task measures run bit-identically on
  the profiler's VM and on the tree-walking interpreter.
"""

import pytest

from repro.compiler.builder import FunctionBuilder, c
from repro.compiler.ir import F64, I8, I16, I32, I64, Module, vec
from repro.compiler.opt_tool import run_opt
from repro.compiler.pipelines import pipeline
from repro.machine.artifacts import ArtifactStore
from repro.machine.bytecode import BytecodeVM, compile_module, run_bytecode
from repro.machine.cost_model import block_cycles, estimate_cycles
from repro.machine.interp import (
    FuelExhausted,
    Interpreter,
    InterpError,
    _fcmp,
    _icmp,
    _scalar_bits,
    run_program,
)
from repro.machine.platforms import get_platform
from repro.machine.profiler import Profiler
from repro.workloads import cbench_program

from tests.conftest import build_dot_kernel, build_sum_loop_module


def _outcome(runner, modules, entry="main", fuel=2_000_000):
    try:
        res = runner(modules, entry, fuel=fuel)
    except FuelExhausted as exc:
        return ("fuel", str(exc))
    except InterpError as exc:
        return ("err", str(exc))
    except KeyError as exc:
        return ("key", str(exc))
    return ("ok", res.output_signature(), list(res.block_counts.items()), res.steps)


def _assert_parity(modules, entry="main", fuel=2_000_000):
    tree = _outcome(run_program, modules, entry, fuel)
    bc = _outcome(run_bytecode, modules, entry, fuel)
    translated = _outcome(
        lambda m, e, fuel: run_bytecode(m, e, fuel=fuel, translate=True), modules, entry, fuel
    )
    assert tree == bc == translated


# ---------------------------------------------------------------------------
# parity on real workloads
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["telecom_gsm", "security_sha", "telecom_adpcm_c"])
@pytest.mark.parametrize("level", ["-O0", "-O3"])
def test_cbench_parity(name, level):
    prog = cbench_program(name)
    if level == "-O0":
        modules = list(prog.modules)
    else:
        seq = pipeline(level)
        modules = [run_opt(m, seq).module for m in prog.modules]
    _assert_parity(modules, prog.entry, prog.fuel)


def test_kernel_parity(dot_module, sum_loop_module):
    _assert_parity([dot_module])
    _assert_parity([sum_loop_module])


def test_fuel_sweep_exact_parity():
    """Careful-mode replay: every fuel value gives the identical outcome
    (including the exact trip point and error message) on both engines."""
    mod = build_sum_loop_module(n=8)
    full = run_program([mod], fuel=10_000).steps
    for fuel in range(full + 2):
        _assert_parity([mod], fuel=fuel)


def test_fuel_exhausted_is_interp_error():
    mod = build_sum_loop_module(n=8)
    with pytest.raises(InterpError):
        run_bytecode([mod], fuel=3)
    with pytest.raises(FuelExhausted):
        run_bytecode([mod], fuel=3)


# ---------------------------------------------------------------------------
# unsigned icmp semantics (the signedness bugfix)
# ---------------------------------------------------------------------------

def test_icmp_unsigned_negative_operands():
    # -1 reinterprets as the max unsigned value at the operand width
    assert _icmp("ult", -1, 1, 32) is False
    assert _icmp("ugt", -1, 1, 32) is True
    assert _icmp("uge", -1, 0, 8) is True
    assert _icmp("ule", -1, 255, 8) is True   # 0xFF <= 255
    assert _icmp("ugt", -1, 255, 8) is False
    assert _icmp("ult", 0, -1, 64) is True
    # signed predicates are untouched
    assert _icmp("slt", -1, 1, 32) is True
    assert _icmp("sgt", -1, 1, 32) is False


def test_icmp_unsigned_width_dependence():
    # -1 reinterprets to 0xFFFF at 16 bits but only 0xFF at 8 bits
    assert _icmp("ugt", -1, 0xFE, 16) is True
    assert _icmp("ugt", -1, 0xFE, 8) is True
    assert _icmp("ugt", -1, 0xFFFE, 16) is True
    assert _icmp("ult", -2, -1, 8) is True      # 0xFE < 0xFF
    assert _icmp("ult", -128, 127, 8) is False  # 0x80 > 0x7F


def test_icmp_unsigned_vectors():
    assert _icmp("ult", (-1, 2), (1, 3), 16) is False  # lane 0: 0xFFFF > 1
    assert _icmp("ult", (0, 2), (1, 3), 16) is True


@pytest.mark.parametrize("ty,width", [(I8, 8), (I16, 16), (I32, 32), (I64, 64)])
@pytest.mark.parametrize("pred", ["ult", "ule", "ugt", "uge"])
def test_icmp_unsigned_end_to_end(ty, width, pred):
    """Negative operand through real IR: both engines agree with the
    unsigned reinterpretation at the operand width."""
    mod = Module("m_unsigned")
    b = FunctionBuilder(mod, "main", [], I32)
    neg = b.sub(c(0, ty), c(1, ty), ty)  # -1 at this width
    cmp = b.icmp(pred, neg, c(5, ty))
    out = b.zext(cmp, I32) if ty.bits != 32 else b.select(cmp, c(1, I32), c(0, I32), I32)
    b.output(out)
    b.ret(out)

    unsigned_neg = (1 << width) - 1
    expected = {
        "ult": unsigned_neg < 5,
        "ule": unsigned_neg <= 5,
        "ugt": unsigned_neg > 5,
        "uge": unsigned_neg >= 5,
    }[pred]
    tree = run_program([mod])
    bc = run_bytecode([mod])
    assert tree.output_signature() == bc.output_signature()
    assert tree.outputs[-1] == int(expected)


def test_icmp_unknown_predicate_raises():
    with pytest.raises(InterpError, match="unknown predicate"):
        _icmp("weird", 1, 2, 32)


# ---------------------------------------------------------------------------
# fcmp semantics (NaN handling + predicate validation)
# ---------------------------------------------------------------------------

def test_fcmp_nan_is_false_for_all_preds():
    nan = float("nan")
    for pred in ("eq", "ne", "slt", "sle", "sgt", "sge"):
        assert _fcmp(pred, nan, 1.0) is False
        assert _fcmp(pred, 1.0, nan) is False
        assert _fcmp(pred, nan, nan) is False


def test_fcmp_ordinary_compares():
    assert _fcmp("slt", 1.0, 2.0) is True
    assert _fcmp("ne", 1.0, 2.0) is True
    assert _fcmp("eq", 2.0, 2.0) is True
    assert _fcmp("sge", 2.0, 2.0) is True


def test_fcmp_rejects_unsigned_predicates():
    with pytest.raises(InterpError, match="fcmp does not support predicate"):
        _fcmp("ult", 1.0, 2.0)
    # even with NaN operands the predicate error wins
    with pytest.raises(InterpError, match="fcmp does not support predicate"):
        _fcmp("ult", float("nan"), 2.0)
    with pytest.raises(InterpError, match="unknown predicate"):
        _fcmp("bogus", 1.0, 2.0)


def _fcmp_module(pred, a_val, b_val):
    mod = Module("m_fcmp")
    b = FunctionBuilder(mod, "main", [], I32)
    x = b.fdiv(c(a_val, F64), c(1.0, F64), F64)
    y = b.fdiv(c(b_val, F64), c(1.0, F64), F64)
    r = b.select(b.fcmp(pred, x, y), c(1, I32), c(0, I32), I32)
    b.output(r)
    b.ret(r)
    return mod


def test_fcmp_nan_end_to_end_both_engines():
    nan = float("nan")
    for pred in ("eq", "ne", "slt", "sge"):
        mod = _fcmp_module(pred, nan, 1.0)
        tree = run_program([mod])
        bc = run_bytecode([mod])
        assert tree.outputs[-1] == 0
        assert tree.output_signature() == bc.output_signature()


def test_fcmp_unsigned_pred_end_to_end_both_engines():
    mod = _fcmp_module("ugt", 1.0, 2.0)
    t = _outcome(run_program, [mod])
    b = _outcome(run_bytecode, [mod])
    assert t == b
    assert t[0] == "err" and "fcmp does not support predicate" in t[1]


# ---------------------------------------------------------------------------
# bits-cache keying and vector widths
# ---------------------------------------------------------------------------

def test_scalar_bits_vector_uses_element_width():
    assert _scalar_bits(vec(I16, 4)) == 16
    assert _scalar_bits(vec(I8, 8)) == 8
    assert _scalar_bits(I32) == 32
    assert _scalar_bits(None) == 64


def test_bits_cache_keyed_by_module_and_function():
    """The width-map cache is keyed by (module name, function name), not
    ``id(fn)`` — id keys can alias once a function object is collected."""
    mod = Module("mwidth")
    b = FunctionBuilder(mod, "main", [], I32)
    neg = b.sub(c(0, I16), c(1, I16), I16)
    cmp = b.icmp("ugt", neg, c(0x100, I16))
    r = b.select(cmp, c(1, I32), c(0, I32), I32)
    b.output(r)
    b.ret(r)

    interp = Interpreter([mod])
    assert interp.run("main").outputs[-1] == 1  # 0xFFFF > 0x100 at i16
    assert ("mwidth", "main") in interp._bits_cache
    assert all(
        isinstance(k, tuple) and all(isinstance(p, str) for p in k)
        for k in interp._bits_cache
    )


# ---------------------------------------------------------------------------
# run() state reset
# ---------------------------------------------------------------------------

def test_interpreter_run_twice_identical(sum_loop_module):
    interp = Interpreter([sum_loop_module])
    first = interp.run("main")
    second = interp.run("main")
    assert first.output_signature() == second.output_signature()
    assert first.steps == second.steps
    assert dict(first.block_counts) == dict(second.block_counts)


def test_bytecode_vm_run_twice_identical(sum_loop_module):
    vm = BytecodeVM([compile_module(sum_loop_module)])
    first = vm.run("main")
    second = vm.run("main")
    assert first.output_signature() == second.output_signature()
    assert first.steps == second.steps
    assert dict(first.block_counts) == dict(second.block_counts)


def test_fuel_exhausted_docstring_clean():
    assert "budget" in FuelExhausted.__doc__
    assert all(ord(ch) < 128 for ch in FuelExhausted.__doc__)


# ---------------------------------------------------------------------------
# profiler wiring: the tree-walker oracle, caching, RNG transparency
# ---------------------------------------------------------------------------

def _tree_oracle(modules, platform, entry="main", fuel=5_000_000):
    """``(cycles, result)`` of the tree walker plus the cycle model."""
    result = run_program(modules, entry, fuel=fuel)
    return estimate_cycles(modules, result.block_counts, platform), result


def test_profiler_engines_bit_identical_measurements(dot_module):
    plat = get_platform("arm-a57")
    measured = Profiler(plat, seed=5).measure([dot_module])
    cycles, tree = _tree_oracle([dot_module], plat)
    assert measured.cycles == cycles
    assert measured.output_signature() == tree.output_signature()


def test_profiler_bytecode_cache_hits_and_eviction(dot_module, sum_loop_module):
    prof = Profiler(get_platform("arm-a57"), seed=0)
    store = prof.artifacts = ArtifactStore(max_entries=1)
    prof.execute([dot_module])
    prof.execute([dot_module])
    assert (store.misses, store.hits) == (1, 1)
    # a second module evicts the first (max_entries=1) -> recompile on return
    prof.execute([sum_loop_module])
    prof.execute([dot_module])
    assert store.misses == 3


def test_profiler_function_profile_engine_independent(dot_module):
    plat = get_platform("arm-a57")
    profile = Profiler(plat, seed=0).function_profile([dot_module])
    cycles, tree = _tree_oracle([dot_module], plat)
    clock = plat.ghz * 1e9
    expected = {}
    for (mod, fn, blk), count in tree.block_counts.items():
        cyc = block_cycles(dot_module.functions[fn], plat)[blk] * count
        expected[(mod, fn)] = expected.get((mod, fn), 0.0) + cyc / clock
    assert profile.function_seconds == pytest.approx(expected, rel=1e-12)
    assert profile.total_seconds == pytest.approx(cycles / clock, rel=1e-12)


# ---------------------------------------------------------------------------
# task wiring: the interpreter oracle and batched measurement
# ---------------------------------------------------------------------------

def _make_task(**kw):
    from repro.core.task import AutotuningTask

    return AutotuningTask(
        cbench_program("telecom_adpcm_c"), platform="arm-a57", seed=11, seq_length=6, **kw
    )


def test_task_engine_transparent_histories():
    """Every candidate the task measures runs on its profiler (translated VM,
    execution memo) exactly as on the tree-walking interpreter, and a
    fresh profiler measures the cycles the tree walker's block counts
    give."""
    import numpy as np

    plat = get_platform("arm-a57")
    with _make_task() as task:
        rng = np.random.default_rng(3)
        for _ in range(3):
            config = {
                m: tuple(int(x) for x in rng.integers(0, len(task.passes), 4))
                for m in task.hot_modules
            }
            compiled = {m: task.compile_module(m, s) for m, s in config.items()}
            linked, _fps = task._link(compiled)
            entry, fuel = task.program.entry, task.program.fuel

            def profiled(modules, entry, fuel):
                return task.profiler.execute(modules, entry)

            assert _outcome(profiled, linked, entry, fuel) == _outcome(
                run_program, linked, entry, fuel
            )
            measured = Profiler(plat, seed=5, fuel=fuel).measure(linked, entry=entry)
            cycles, tree = _tree_oracle(linked, plat, entry=entry, fuel=fuel)
            assert measured.cycles == cycles
            assert measured.output_signature() == tree.output_signature()


def test_measure_batch_matches_sequential():
    import numpy as np

    with _make_task() as task:
        rng = np.random.default_rng(7)
        configs = [
            {m: tuple(int(x) for x in rng.integers(0, len(task.passes), 5))
             for m in task.hot_modules}
            for _ in range(4)
        ]
    with _make_task() as task:
        sequential = [task.measure_config(cfg) for cfg in configs]
    with _make_task() as task:
        batched = task.measure_batch(configs)
    assert batched == sequential


def test_measure_batch_empty():
    with _make_task() as task:
        assert task.measure_batch([]) == []
