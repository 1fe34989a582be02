"""Seeded three-engine parity sweep of program execution (not
pytest-collected).

Every measurement runs on translated bytecode
(:mod:`repro.machine.codegen`), which must behave exactly like the
bytecode dispatch loop and the reference tree walker.  The sweep crosses
``random_program`` programs, and per seed one cBench or SPEC workload and
one parity kernel family, with random pass sequences of up to 120 passes over the search alphabet,
runs each compiled program on all three
engines at its full fuel and at random fuel cuts, and compares the
outcomes: return value, outputs, steps and ``block_counts`` *in order*
(the cycle model sums floats in that order), or the exception's type and
message.  Outcomes compare by ``repr``, so ``0`` against ``0.0``, ``-0.0``
against ``0.0`` and NaN payload positions all count.

Exit 0 when every requested seed completed within ``--budget`` seconds
and no case diverged; a failure prints the seed, program seed, sequence
and fuel, and a budget that runs out names the seeds left unchecked, so
the coverage of a passing run never varies.  The default 16 seeds (6,464
executions) take about 20 s on a 2-core x86-64 VM.  CI runs this as the blocking
``vm-parity`` job; tier-1 runs a short version
(``tests/test_fuse_differential.py``).  Locally::

    PYTHONPATH=src:. python tests/vm_parity_sweep.py --seeds 1-16 --budget 120
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

from repro import cbench_names, cbench_program, spec_names, spec_program
from repro.compiler.ir import Module
from repro.compiler.opt_tool import run_opt
from repro.compiler.pipelines import SEARCH_PASSES
from repro.machine.bytecode import BytecodeVM, compile_module
from repro.machine.codegen import translate_module
from repro.machine.interp import Interpreter
from repro.workloads.generator import random_program

from tests.kernel_families import KERNEL_FAMILIES

#: the longest sequence, random programs per seed and fuel cuts per program
MAX_LEN, PROGRAMS, CUTS = 120, 100, 3
#: fuel cuts of a program that fails at full fuel are drawn below this
FAILED_CUTS = 3000
#: full fuel of a parity kernel family
FAMILY_FUEL = 5_000_000


def outcome(run: Callable[[], object]) -> tuple:
    """The observable outcome of one execution: ``("ok", signature, steps,
    ordered block counts)``, or the exception's type name and message."""
    try:
        res = run()
    except Exception as exc:  # the exception is the outcome under comparison
        return (type(exc).__name__, str(exc))
    return ("ok", res.output_signature(), res.steps, tuple(res.block_counts.items()))


class Engines:
    """The three engines, each built once over one linked program."""

    def __init__(self, modules: Sequence[Module]) -> None:
        self.modules = list(modules)
        self.dispatch = [compile_module(m) for m in self.modules]
        self.translated = [translate_module(bm) for bm in self.dispatch]

    def outcomes(self, entry: str, fuel: int) -> Dict[str, tuple]:
        return {
            "tree": outcome(lambda: Interpreter(self.modules, fuel=fuel).run(entry)),
            "dispatch": outcome(lambda: BytecodeVM(self.dispatch, fuel=fuel).run(entry)),
            "translated": outcome(
                lambda: BytecodeVM(self.translated, fuel=fuel).run(entry)
            ),
        }


def divergence(outcomes: Dict[str, tuple]) -> str:
    """``""`` when every engine's outcome matches the tree walker's, else
    a description of each that does not."""
    ref = repr(outcomes["tree"])
    return "".join(
        f"\n  {name}: {got!r}\n  tree: {ref}"
        for name, got in outcomes.items()
        if repr(got) != ref
    )


class Tally:
    """Executions compared, fuel traps among them, and divergences."""

    def __init__(self) -> None:
        self.compared = 0
        self.trapped = 0
        self.failures: List[str] = []


def check_program(tally: Tally, where: str, modules: Sequence[Module], entry: str,
                  fuels: Sequence[int]) -> None:
    engines = Engines(modules)
    for fuel in fuels:
        outcomes = engines.outcomes(entry, fuel)
        tally.compared += 1
        tally.trapped += outcomes["tree"][0] == "FuelExhausted"
        diff = divergence(outcomes)
        if diff:
            tally.failures.append(f"{where} fuel={fuel}:{diff}")


def programs(
    seed: int, rng: random.Random, n_programs: int
) -> Iterator[Tuple[str, List[Module], str, int]]:
    """``(how to rebuild it, modules, entry, fuel)`` for ``n_programs``
    random programs, then one workload and one parity kernel family
    (``tests/kernel_families.py``)."""
    for i in range(n_programs):
        n_modules = rng.choice((1, 2))
        program = random_program(seed * 1000 + i, n_modules=n_modules)
        label = f"random_program({seed * 1000 + i}, n_modules={n_modules})"
        yield label, list(program.modules), program.entry, program.fuel
    workloads = [(cbench_program, n) for n in cbench_names()]
    workloads += [(spec_program, n) for n in spec_names()]
    build, name = workloads[seed % len(workloads)]
    program = build(name)
    yield f"{build.__name__}({name!r})", list(program.modules), program.entry, program.fuel
    family = sorted(KERNEL_FAMILIES)[seed % len(KERNEL_FAMILIES)]
    yield (f"KERNEL_FAMILIES[{family!r}](40)", [KERNEL_FAMILIES[family](40)], "main",
           FAMILY_FUEL)


def sweep(seed: int, n_programs: int, max_len: int, n_cuts: int, tally: Tally,
          deadline: float = float("inf")) -> bool:
    """Compare the engines on ``n_programs`` random programs and one
    workload, each compiled with a random sequence, at full fuel and
    ``n_cuts`` random fuel cuts; ``False`` if the deadline cut the sweep
    short."""
    rng = random.Random(seed)
    for label, source, entry, fuel in programs(seed, rng, n_programs):
        if time.monotonic() > deadline:
            return False
        seq = [rng.choice(SEARCH_PASSES) for _ in range(rng.randrange(max_len + 1))]
        modules = [run_opt(m, seq).module for m in source]
        try:
            steps = Interpreter(modules, fuel=fuel).run(entry).steps
        except Exception:  # a failing program is compared like any other
            steps = FAILED_CUTS
        fuels = [fuel] + [rng.randrange(steps + 2) for _ in range(n_cuts)]
        where = f"seed={seed} program={label} sequence={seq}"
        check_program(tally, where, modules, entry, fuels)
    return True


def _seeds(spec: str) -> List[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-16", help="seed range, e.g. 1-16")
    ap.add_argument("--budget", type=float, default=120.0,
                    help="seconds every seed must complete within")
    args = ap.parse_args(argv)

    t0 = time.monotonic()
    deadline = t0 + args.budget
    tally = Tally()
    seeds, done = _seeds(args.seeds), []
    for seed in seeds:
        if not sweep(seed, PROGRAMS, MAX_LEN, CUTS, tally, deadline):
            break
        done.append(seed)
    print(
        f"seeds {done or 'none'} complete in {time.monotonic() - t0:.1f}s: "
        f"{tally.compared} executions compared on three engines, "
        f"{tally.trapped} ran out of fuel, {len(tally.failures)} failures"
    )
    for failure in tally.failures:
        print("FAIL", failure)
    if len(done) < len(seeds):
        print(
            f"FAIL the {args.budget:.0f}s budget ran out with seeds "
            f"{seeds[len(done):]} unchecked"
        )
    return 0 if len(done) == len(seeds) and not tally.failures else 1


if __name__ == "__main__":
    sys.exit(main())
