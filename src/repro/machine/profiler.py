"""Noisy runtime measurement and ``perf``-like per-function profiling.

``Profiler.measure`` is the expensive black-box evaluation in every tuner:
it interprets the program once (semantics + exact block counts), converts
counts to cycles with the platform cost model, and perturbs the result with
multiplicative Gaussian noise like a real wall-clock measurement.  The
paper's methodology of averaging several runs per search point (§4.2.2)
is supported through ``repeats``.

``Profiler.function_profile`` reproduces the one-off ``perf`` pass CITROEN
uses to find hot modules (§5.3.1): self-time per function (excluding
callees), aggregated by module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compiler.ir import Module
from repro.machine.artifacts import ArtifactStore, ir_fingerprint
from repro.machine.bytecode import BytecodeModule, BytecodeVM, compile_module
from repro.machine.cost_model import block_cycles, estimate_cycles
from repro.machine.fuse import fuse_module
from repro.machine.interp import ExecutionResult, InterpError
from repro.machine.platforms import Platform
from repro.utils.rng import SeedLike, as_generator

__all__ = ["Measurement", "FunctionProfile", "Profiler"]


@dataclass
class Measurement:
    """One (averaged) runtime measurement."""

    seconds: float
    cycles: float
    result: ExecutionResult

    def output_signature(self) -> Tuple:
        """Semantic fingerprint of the measured execution."""
        return self.result.output_signature()


@dataclass
class FunctionProfile:
    """Self-time shares per function and per module (perf-report style)."""

    function_seconds: Dict[Tuple[str, str], float]
    module_seconds: Dict[str, float]
    total_seconds: float

    def hot_modules(self, coverage: float = 0.9) -> List[str]:
        """Smallest set of modules covering ``coverage`` of total time."""
        ranked = sorted(self.module_seconds.items(), key=lambda kv: -kv[1])
        out: List[str] = []
        acc = 0.0
        for name, sec in ranked:
            out.append(name)
            acc += sec
            if self.total_seconds > 0 and acc / self.total_seconds >= coverage:
                break
        return out


class Profiler:
    """Executes linked modules on a simulated platform.

    Programs run on the flat register VM with fused superblock kernels.
    Its :class:`ExecutionResult`s are bit-identical to the reference
    tree walker's (:func:`~repro.machine.interp.run_program`, the
    differential oracle), so every measurement is too.

    :attr:`artifacts` is the one :class:`ArtifactStore` between a module
    and its verdict: fused bytecode per IR fingerprint, and the recorded
    execution outcome (the execution memo) per ``(entry, fuel,
    fingerprints)``.  Every method that runs a program takes optional
    ``fingerprints`` (one per module, ``None`` where unknown) so callers
    that already hold them skip re-printing the IR.
    """

    def __init__(
        self,
        platform: Platform,
        seed: SeedLike = None,
        fuel: int = 5_000_000,
    ) -> None:
        self.platform = platform
        self.rng = as_generator(seed)
        self.fuel = fuel
        self.artifacts = ArtifactStore()
        self.execution_memo_hits = 0
        self.fused_kernels = 0
        self.fused_ops = 0

    # -- executable artifacts -------------------------------------------------
    def _fingerprints(
        self, modules: List[Module], fingerprints: Optional[Sequence[Optional[str]]]
    ) -> List[str]:
        if fingerprints is None:
            return [ir_fingerprint(m) for m in modules]
        return [
            fp if fp is not None else ir_fingerprint(m)
            for m, fp in zip(modules, fingerprints)
        ]

    def _build(self, module: Module) -> BytecodeModule:
        """Compile one module to its executable (fused) form."""
        bc, stats = fuse_module(compile_module(module))
        self.fused_kernels += stats["kernels"]
        self.fused_ops += stats["fused_ops"]
        return bc

    def _execute(
        self,
        modules: List[Module],
        entry: str,
        fingerprints: Optional[Sequence[Optional[str]]] = None,
    ) -> ExecutionResult:
        fps = self._fingerprints(modules, fingerprints)
        bcs = self.artifacts.harvest(modules, fps, self._build)
        return BytecodeVM(bcs, fuel=self.fuel).run(entry)

    def _outcome(
        self,
        modules: List[Module],
        entry: str,
        fingerprints: Optional[Sequence[Optional[str]]],
    ) -> Tuple[float, ExecutionResult]:
        """``(cycles, result)`` of one execution.

        Byte-identical IR (same entry and fuel) replays the recorded
        outcome — including a recorded :class:`InterpError`, re-raised —
        instead of re-executing."""
        fps = self._fingerprints(modules, fingerprints)
        key = (entry, self.fuel, tuple(fps))
        hit = self.artifacts.get(key)
        if hit is not None:
            self.execution_memo_hits += 1
            if hit[0] == "err":
                raise hit[1](hit[2])
            return hit[1], hit[2]
        try:
            result = self._execute(modules, entry, fps)
        except InterpError as exc:
            self.artifacts.put(key, ("err", type(exc), str(exc)))
            raise
        cycles = estimate_cycles(modules, result.block_counts, self.platform)
        self.artifacts.put(key, ("ok", cycles, result))
        return cycles, result

    # -- runtime measurement -------------------------------------------------
    def measure(
        self,
        modules: List[Module],
        repeats: int = 3,
        entry: str = "main",
        fingerprints: Optional[Sequence[Optional[str]]] = None,
    ) -> Measurement:
        """Run the program and return an averaged noisy runtime.

        Noise is drawn exactly as for a live run whether or not the
        execution memo served the outcome (a crash raises before any draw,
        live or memoized), so the seeded value stream, and therefore every
        tuning history, does not depend on what the memo holds.
        """
        cycles, result = self._outcome(modules, entry, fingerprints)
        base_seconds = cycles / (self.platform.ghz * 1e9)
        samples = base_seconds * (
            1.0 + self.platform.noise * self.rng.standard_normal(max(1, repeats))
        )
        return Measurement(float(np.mean(np.abs(samples))), cycles, result)

    def execute(
        self,
        modules: List[Module],
        entry: str = "main",
        fingerprints: Optional[Sequence[Optional[str]]] = None,
    ) -> ExecutionResult:
        """Noise-free live execution (used by differential testing)."""
        return self._execute(modules, entry, fingerprints)

    def deterministic_seconds(
        self,
        modules: List[Module],
        entry: str = "main",
        fingerprints: Optional[Sequence[Optional[str]]] = None,
    ) -> Tuple[float, ExecutionResult]:
        """Noise-free modeled runtime: cycles through the platform cost
        model, no Gaussian perturbation, no RNG consumed.

        This is the attribution clock ``repro explain`` replays ablated
        pipelines on — two binaries with identical block counts get
        *exactly* equal seconds, so a marginal contribution of 0.0 means
        the pass truly did nothing to the measured program.  IR-identical
        programs share one execution through the execution memo."""
        cycles, result = self._outcome(modules, entry, fingerprints)
        return cycles / (self.platform.ghz * 1e9), result

    # -- perf-like profiling --------------------------------------------------
    def function_profile(
        self,
        modules: List[Module],
        entry: str = "main",
        fingerprints: Optional[Sequence[Optional[str]]] = None,
    ) -> FunctionProfile:
        """Perf-like self-time profile per function and module."""
        result = self.execute(modules, entry, fingerprints)
        fn_seconds: Dict[Tuple[str, str], float] = {}
        cost_cache: Dict[Tuple[str, str], Dict[str, float]] = {}
        fn_index = {}
        for mod in modules:
            for fn in mod.functions.values():
                fn_index[(mod.name, fn.name)] = fn
        for (mod_name, fn_name, blk_name), count in result.block_counts.items():
            key = (mod_name, fn_name)
            fn = fn_index.get(key)
            if fn is None:
                continue
            costs = cost_cache.get(key)
            if costs is None:
                costs = block_cycles(fn, self.platform)
                cost_cache[key] = costs
            cyc = costs.get(blk_name, 0.0) * count
            fn_seconds[key] = fn_seconds.get(key, 0.0) + cyc / (self.platform.ghz * 1e9)
        mod_seconds: Dict[str, float] = {}
        for (mod_name, _fn), sec in fn_seconds.items():
            mod_seconds[mod_name] = mod_seconds.get(mod_name, 0.0) + sec
        return FunctionProfile(fn_seconds, mod_seconds, sum(fn_seconds.values()))
