"""Seeded soundness sweep of the passes' ``changed`` flags (not
pytest-collected).

The compile graph trusts the flag a pass returns: a pass that reports no
change loops its edge back to the state it started from without
fingerprinting the result.  That is sound only if no pass under-reports,
i.e. ``changed=False`` always leaves :func:`state_key` as it was.  The
sweep grows random pass prefixes of up to 120 passes over every
workload module and over ``random_program`` programs, and at each state
it reaches applies every registered pass to a clone: the flag must be a
``bool``, and a ``False`` must keep the key.  An over-report (``True``
with the key unchanged) is sound, only slower, and is counted.

The graph runs a missing pass in place on a stored state's module, so an
unsound ``False`` would corrupt that stored state, not just one compile.
Each prefix is therefore also compiled through a :class:`CompileGraph`
kept to a few states (so compiles evict, hand modules on and re-derive
them), and its module text and statistics must equal the cold
:func:`run_opt` of the same prefix.

Exit 0 when every requested seed completed within ``--budget`` seconds
and every flag checked was a ``bool`` that never under-reported; a
failure prints the seed, program, module, prefix and pass, and a budget
that runs out names the seeds left unchecked, so the coverage of a
passing run never varies.  The default 16 seeds take about 35 s on a
2-core x86-64 VM.  CI runs this as the blocking ``flag-soundness`` job;
tier-1 runs a short version (``tests/test_identical_ir.py``).  Locally::

    PYTHONPATH=src python tests/flag_sweep.py --seeds 1-16 --budget 120
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from typing import Iterator, List, Tuple

from repro import cbench_names, cbench_program, spec_names, spec_program
from repro.compiler import opt_tool
from repro.compiler.ir import Module
from repro.compiler.opt_tool import CompileGraph, run_opt, state_key
from repro.compiler.pass_manager import registry
from repro.compiler.pipelines import SEARCH_PASSES
from repro.compiler.statistics import StatsCollector
from repro.compiler.textual import print_module
from repro.machine.platforms import get_platform
from repro.workloads.generator import random_program

TARGET = get_platform("arm-a57").target_info()
#: the longest prefix, prefixes per module and random programs per seed
MAX_LEN, PREFIXES, RANDOM_PROGRAMS = 120, 3, 6
#: states the sweep's compile graph keeps
GRAPH_STATES = 8


def workload_modules() -> List[Tuple[str, Module]]:
    """``(program name, module)`` for every module of every workload."""
    programs = [cbench_program(n) for n in cbench_names()] + [
        spec_program(n) for n in spec_names()
    ]
    return [(p.name, m) for p in programs for m in p.modules]


def random_modules(seed: int, n_programs: int) -> List[Tuple[str, Module]]:
    """The modules of ``n_programs`` two-module random programs."""
    out = []
    for i in range(n_programs):
        program = random_program(seed * 1000 + i, n_modules=2)
        out.extend((f"random_program({seed * 1000 + i})", m) for m in program.modules)
    return out


class Tally:
    """Pass applications checked, and how their flags compared with the key."""

    def __init__(self) -> None:
        self.checked = 0
        self.unchanged = 0
        self.over_reports = 0
        self.graph_compiles = 0
        self.failures: List[str] = []


def check_state(
    tally: Tally, where: str, state: Module, prefix: List[str]
) -> None:
    """Apply every registered pass to a clone of ``state`` and compare
    each flag with the state key."""
    key = state_key(state)
    for name in registry.names():
        work = state.clone()
        changed = registry.create(name).run_on_module(work, StatsCollector(), TARGET)
        tally.checked += 1
        if type(changed) is not bool:
            tally.failures.append(
                f"{where} prefix={prefix} pass={name}: flag {changed!r} is not a bool"
            )
            continue
        same = state_key(work) == key
        if not changed:
            tally.unchanged += 1
            if not same:
                tally.failures.append(
                    f"{where} prefix={prefix} pass={name}: changed=False moved the key"
                )
        elif same:
            tally.over_reports += 1


def graph_compile(graph: CompileGraph, module: Module, prefix: List[str]):
    """``prefix`` compiled through ``graph``, held to :data:`GRAPH_STATES`
    states."""
    capacity, opt_tool.GRAPH_CAPACITY = opt_tool.GRAPH_CAPACITY, GRAPH_STATES
    try:
        return run_opt(module, prefix, target=TARGET, graph=graph)
    finally:
        opt_tool.GRAPH_CAPACITY = capacity


def check_graph(
    tally: Tally, where: str, graph: CompileGraph, module: Module, prefix: List[str],
    cold,
) -> None:
    """Compile ``prefix`` through ``graph`` and compare it with ``cold``."""
    got = graph_compile(graph, module, prefix)
    tally.graph_compiles += 1
    if print_module(got.module) != print_module(cold.module):
        tally.failures.append(f"{where} prefix={prefix}: graph module differs from cold")
    elif list(got.stats.items()) != list(cold.stats.items()):
        tally.failures.append(f"{where} prefix={prefix}: graph statistics differ from cold")


def prefixes(rng: random.Random, n: int, max_len: int) -> Iterator[List[str]]:
    """``n`` random pass prefixes of 0 to ``max_len`` passes."""
    for _ in range(n):
        yield [rng.choice(SEARCH_PASSES) for _ in range(rng.randrange(max_len + 1))]


def sweep(
    seed: int,
    modules: List[Tuple[str, Module]],
    n_prefixes: int,
    max_len: int,
    tally: Tally,
    deadline: float = float("inf"),
) -> bool:
    """Check the states ``n_prefixes`` random prefixes reach on each
    module, and the prefixes' compiles through a small graph; ``False``
    if the deadline cut the sweep short."""
    rng = random.Random(seed)
    graph = CompileGraph()
    for program, module in modules:
        for prefix in prefixes(rng, n_prefixes, max_len):
            if time.monotonic() > deadline:
                return False
            cold = run_opt(module, prefix, target=TARGET)
            where = f"seed={seed} program={program} module={module.name}"
            check_state(tally, where, cold.module, prefix)
            check_graph(tally, where, graph, module, prefix, cold)
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
    workloads = workload_modules()
    for seed in seeds:
        modules = workloads + random_modules(seed, RANDOM_PROGRAMS)
        if not sweep(seed, modules, PREFIXES, MAX_LEN, tally, deadline):
            break
        done.append(seed)
    print(
        f"seeds {done or 'none'} complete in {time.monotonic() - t0:.1f}s: "
        f"{tally.checked} pass applications, {tally.unchanged} reported no change, "
        f"{tally.over_reports} over-reports, {tally.graph_compiles} graph compiles "
        f"checked against cold, {len(tally.failures)} failures"
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
