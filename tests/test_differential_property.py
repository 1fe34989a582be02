"""Property-based differential testing of the whole pass zoo.

The central correctness property of the compiler substrate: *any* pass
sequence applied to *any* program preserves observable behaviour.  This is
the same differential-testing methodology the paper applies to its tuned
binaries (§1.1), run here as a hypothesis property over random programs
and random sequences.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compiler.opt_tool import run_opt
from repro.compiler.pipelines import SEARCH_PASSES, pipeline
from repro.compiler.verify import verify_module
from repro.machine.bytecode import run_bytecode
from repro.machine.interp import FuelExhausted, InterpError, run_program
from repro.workloads import cbench_program, random_program

_SETTINGS = dict(
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _apply_and_compare(program, sequence):
    ref = program.reference_output().output_signature()
    linked = []
    for mod in program.modules:
        cr = run_opt(mod, sequence, verify_each=True)
        verify_module(cr.module)
        linked.append(cr.module)
    out = run_program(linked, program.entry, fuel=program.fuel)
    assert out.output_signature() == ref, (
        f"sequence {sequence} changed semantics of {program.name}"
    )


@given(
    prog_seed=st.integers(0, 10**6),
    seq_seed=st.integers(0, 10**6),
)
@settings(**_SETTINGS)
def test_random_program_random_sequence(prog_seed, seq_seed):
    program = random_program(seed=prog_seed, n_modules=1)
    rng = np.random.default_rng(seq_seed)
    length = int(rng.integers(1, 25))
    sequence = [SEARCH_PASSES[i] for i in rng.integers(0, len(SEARCH_PASSES), length)]
    _apply_and_compare(program, sequence)


@given(prog_seed=st.integers(0, 10**6))
@settings(**_SETTINGS)
def test_random_program_o3(prog_seed):
    program = random_program(seed=prog_seed, n_modules=2)
    _apply_and_compare(program, pipeline("-O3"))


@given(seq_seed=st.integers(0, 10**6))
@settings(deadline=None, max_examples=10,
          suppress_health_check=[HealthCheck.too_slow])
def test_gsm_random_sequences(seq_seed):
    program = cbench_program("telecom_gsm")
    rng = np.random.default_rng(seq_seed)
    length = int(rng.integers(1, 40))
    sequence = [SEARCH_PASSES[i] for i in rng.integers(0, len(SEARCH_PASSES), length)]
    _apply_and_compare(program, sequence)


@pytest.mark.parametrize("level", ["-O1", "-O2", "-O3", "-Oz"])
def test_pipeline_levels_on_random_programs(level):
    for seed in range(6):
        program = random_program(seed=7000 + seed, n_modules=2)
        _apply_and_compare(program, pipeline(level))


def test_repeated_o3_idempotent_semantics():
    program = cbench_program("security_sha")
    _apply_and_compare(program, pipeline("-O3") * 3)


# ---------------------------------------------------------------------------
# tree walker == dispatch loop == translated bytecode (the measurement-engine
# equivalence property)
# ---------------------------------------------------------------------------

def _engine_outcome(runner, modules, entry, fuel):
    """Full observable outcome: result fingerprint or (error kind, message)."""
    try:
        res = runner(modules, entry, fuel=fuel)
    except FuelExhausted as exc:  # noqa: B904 - outcome, not re-raise
        return ("fuel", str(exc))
    except InterpError as exc:
        return ("err", str(exc))
    except KeyError as exc:
        return ("key", str(exc))
    # in first-execution order: the cycle model sums floats in that order
    return ("ok", res.output_signature(), tuple(res.block_counts.items()), res.steps)


def _translated(modules, entry, fuel):
    return run_bytecode(modules, entry, fuel=fuel, translate=True)


def _compare_engines(modules, entry, fuel):
    tree = _engine_outcome(run_program, modules, entry, fuel)
    bc = _engine_outcome(run_bytecode, modules, entry, fuel)
    tr = _engine_outcome(_translated, modules, entry, fuel)
    assert tree == bc == tr, (
        f"engines diverge (fuel={fuel}):\n tree={tree}\n   bc={bc}\n   tr={tr}"
    )


@given(
    prog_seed=st.integers(0, 10**6),
    seq_seed=st.integers(0, 10**6),
)
@settings(**_SETTINGS)
def test_tree_bytecode_equivalence_random(prog_seed, seq_seed):
    """Compiled programs execute bit-identically on both engines."""
    program = random_program(seed=prog_seed, n_modules=1)
    rng = np.random.default_rng(seq_seed)
    length = int(rng.integers(1, 25))
    sequence = [SEARCH_PASSES[i] for i in rng.integers(0, len(SEARCH_PASSES), length)]
    linked = [run_opt(mod, sequence).module for mod in program.modules]
    _compare_engines(linked, program.entry, program.fuel)


@given(
    prog_seed=st.integers(0, 10**6),
    fuel=st.integers(0, 3000),
)
@settings(**_SETTINGS)
def test_tree_bytecode_equivalence_fuel_starved(prog_seed, fuel):
    """Error parity: FuelExhausted trips at the same step, same message."""
    program = random_program(seed=prog_seed, n_modules=1)
    _compare_engines(list(program.modules), program.entry, fuel)


def test_tree_bytecode_equivalence_200_pairs():
    """The ISSUE acceptance sweep: >= 200 deterministic (program, pipeline)
    pairs agree across engines, including O0 (un-normalised IR)."""
    rng = np.random.default_rng(20260808)
    n_pairs = 0
    for prog_seed in range(50):
        program = random_program(seed=9000 + prog_seed, n_modules=2)
        sequences = [[]]  # -O0
        for _ in range(3):
            length = int(rng.integers(1, 20))
            sequences.append(
                [SEARCH_PASSES[i]
                 for i in rng.integers(0, len(SEARCH_PASSES), length)]
            )
        for sequence in sequences:
            linked = [run_opt(mod, sequence).module for mod in program.modules]
            _compare_engines(linked, program.entry, program.fuel)
            n_pairs += 1
    assert n_pairs >= 200
