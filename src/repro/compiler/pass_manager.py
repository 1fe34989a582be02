"""Pass base classes, the pass registry, and the sequencing pass manager.

A *pass sequence* — the genome that CITROEN and every baseline search over —
is simply a list of registered pass names.  The pass manager applies them in
order to a module, collecting statistics, exactly like
``opt -passes=p1,p2,... -stats``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.compiler.analysis import module_profile, profile_delta
from repro.compiler.ir import Function, Module
from repro.compiler.statistics import StatsCollector
from repro.compiler.verify import verify_module

__all__ = [
    "Pass",
    "FunctionPass",
    "ModulePass",
    "PassRegistry",
    "registry",
    "register",
    "PassManager",
    "PassTrace",
    "PassTraceEntry",
    "TargetInfo",
]


class TargetInfo:
    """Target knobs visible to profitability heuristics inside passes.

    ``vector_bits`` bounds the widest vector the SLP/loop vectorisers may
    form; ``unroll_threshold`` bounds full unrolling; ``inline_threshold``
    bounds inlining.  Different platforms expose different values, which is
    why the best pass sequence is platform-dependent (§5.4.2).
    """

    def __init__(
        self,
        vector_bits: int = 128,
        unroll_threshold: int = 192,
        inline_threshold: int = 45,
        min_vector_lanes: int = 4,
    ) -> None:
        self.vector_bits = vector_bits
        self.unroll_threshold = unroll_threshold
        self.inline_threshold = inline_threshold
        self.min_vector_lanes = min_vector_lanes


class Pass:
    """Base class: subclasses set ``name`` and implement ``run_on_module``."""

    name: str = "<abstract>"
    #: whether the pass only analyses / normalises (listed but cheap)
    is_analysis: bool = False

    def run_on_module(self, module: Module, stats: StatsCollector, target: TargetInfo) -> bool:
        """Apply the pass to ``module``; returns whether the IR changed.

        :class:`~repro.compiler.opt_tool.CompileGraph` trusts a ``False``:
        it keeps the state the pass started from without fingerprinting
        the result, so returning ``False`` after changing the IR makes
        compiles through the graph differ from cold ones.  Any other
        return value is treated as a possible change.
        """
        raise NotImplementedError


class FunctionPass(Pass):
    """A pass applied independently to every function in the module."""

    def run_on_module(self, module: Module, stats: StatsCollector, target: TargetInfo) -> bool:
        changed = False
        for fn in list(module.functions.values()):
            if self.run_on_function(fn, module, stats, target):
                changed = True
        return changed

    def run_on_function(
        self, fn: Function, module: Module, stats: StatsCollector, target: TargetInfo
    ) -> bool:
        """Apply the pass to one function; returns whether it changed."""
        raise NotImplementedError


class ModulePass(Pass):
    """A pass that needs whole-module scope (inlining, IPO)."""


class PassRegistry:
    """Name -> pass factory registry; the search space enumerates its keys."""

    def __init__(self) -> None:
        self._factories: Dict[str, Callable[[], Pass]] = {}

    def add(self, name: str, factory: Callable[[], Pass]) -> None:
        """Register a pass factory under ``name``."""
        if name in self._factories:
            raise ValueError(f"pass {name!r} already registered")
        self._factories[name] = factory

    def create(self, name: str) -> Pass:
        """Instantiate the pass registered under ``name``."""
        try:
            return self._factories[name]()
        except KeyError:
            raise KeyError(f"unknown pass {name!r}") from None

    def unknown(self, names: Sequence[str]) -> List[str]:
        """The entries of ``names`` no pass is registered under, in order."""
        factories = self._factories
        return [n for n in names if n not in factories]

    def names(self) -> List[str]:
        """All registered pass names, sorted."""
        return sorted(self._factories)

    def __contains__(self, name: str) -> bool:
        return name in self._factories

    def __len__(self) -> int:
        return len(self._factories)


registry = PassRegistry()


def register(cls):
    """Class decorator: register a Pass subclass under its ``name``."""
    registry.add(cls.name, cls)
    return cls


@dataclass
class PassTraceEntry:
    """One pass application inside a traced :meth:`PassManager.run`.

    ``offset`` is seconds from the start of the traced run (so entries can
    be laid out on a timeline); ``stats_delta`` holds the flat
    :meth:`~repro.compiler.statistics.StatsCollector.diff` of counters the
    pass bumped; ``ir_before``/``ir_after`` are
    :func:`~repro.compiler.analysis.module_profile` fingerprints.
    """

    index: int
    name: str
    offset: float
    wall: float
    cpu: float
    changed: bool
    stats_delta: Dict[str, int]
    ir_before: Dict[str, object]
    ir_after: Dict[str, object]

    def ir_delta(self) -> Dict[str, object]:
        """Compact IR fingerprint delta (non-zero entries only)."""
        return profile_delta(self.ir_before, self.ir_after)


class PassTrace:
    """Per-pass application records for one :meth:`PassManager.run`.

    Pass an instance via ``PassManager.run(module, trace=...)`` (or
    ``run_opt(..., trace=...)``) and it fills with one
    :class:`PassTraceEntry` per pass: wall+CPU time, the ``changed`` flag,
    the statistics delta, and the IR fingerprint before/after.  Successive
    entries share fingerprints (pass N's ``ir_after`` is pass N+1's
    ``ir_before``), so tracing costs one :func:`module_profile` walk per
    pass, not two.  Consumes no RNG — traced and untraced compiles produce
    bit-identical modules and statistics.
    """

    def __init__(self) -> None:
        self.entries: List[PassTraceEntry] = []
        self._t0 = 0.0
        self._profile: Optional[Dict[str, object]] = None

    def begin(self, module: Module) -> None:
        """Start the trace clock and take the initial IR fingerprint."""
        self._t0 = time.perf_counter()
        self._profile = module_profile(module)

    def record(
        self,
        index: int,
        name: str,
        start: float,
        wall: float,
        cpu: float,
        changed: bool,
        stats_delta: Dict[str, int],
        module: Module,
    ) -> None:
        before = self._profile if self._profile is not None else module_profile(module)
        after = module_profile(module)
        self._profile = after
        self.entries.append(
            PassTraceEntry(
                index=index,
                name=name,
                offset=start - self._t0,
                wall=wall,
                cpu=cpu,
                changed=changed,
                stats_delta=stats_delta,
                ir_before=before,
                ir_after=after,
            )
        )

    def summary(self) -> Dict[str, object]:
        """Aggregate view: totals the span/report layers attach."""
        entries = self.entries
        return {
            "passes": len(entries),
            "n_changed": sum(1 for e in entries if e.changed),
            "pass_wall": sum(e.wall for e in entries),
            "instrs_before": entries[0].ir_before["instrs"] if entries else None,
            "instrs_after": entries[-1].ir_after["instrs"] if entries else None,
        }

    def __len__(self) -> int:
        return len(self.entries)


class PassManager:
    """Applies a named pass sequence to a module.

    Parameters
    ----------
    sequence:
        Pass names, applied in order (repeats allowed — a pass may usefully
        run many times, §1.1).
    target:
        Profitability knobs for the platform being compiled for.
    verify_each:
        Run the structural verifier after every pass (used by the test
        suite; off by default for speed).
    """

    def __init__(
        self,
        sequence: Sequence[str],
        target: Optional[TargetInfo] = None,
        verify_each: bool = False,
    ) -> None:
        unknown = registry.unknown(sequence)
        if unknown:
            raise KeyError(f"unknown passes: {unknown}")
        self.sequence = list(sequence)
        self.target = target if target is not None else TargetInfo()
        self.verify_each = verify_each

    def run(
        self,
        module: Module,
        stats: Optional[StatsCollector] = None,
        trace: Optional[PassTrace] = None,
    ) -> StatsCollector:
        """Apply the sequence to ``module`` in place; returns the statistics.

        With a :class:`PassTrace`, every pass application additionally
        records timing, the ``changed`` flag, its statistics delta, and
        the IR fingerprint delta; the optimised module and statistics are
        bit-identical with or without the trace.
        """
        if stats is None:
            stats = StatsCollector()
        if trace is not None:
            trace.begin(module)
        for i, name in enumerate(self.sequence):
            pss = registry.create(name)
            if trace is None:
                pss.run_on_module(module, stats, self.target)
            else:
                before = stats.snapshot()
                start = time.perf_counter()
                cpu0 = time.thread_time()
                changed = pss.run_on_module(module, stats, self.target)
                wall = time.perf_counter() - start
                cpu = time.thread_time() - cpu0
                trace.record(
                    i, name, start, wall, cpu,
                    changed=bool(changed),
                    stats_delta=stats.diff(before),
                    module=module,
                )
            if self.verify_each:
                try:
                    verify_module(module)
                except AssertionError as exc:
                    # repeats are legal, so the name alone is ambiguous:
                    # report the failing *position* and the exact prefix
                    # that reproduces the corruption
                    prefix = " -> ".join(self.sequence[: i + 1])
                    raise AssertionError(
                        f"IR invalid after pass {name!r} at position {i} "
                        f"of {len(self.sequence)} (prefix: {prefix}): {exc}"
                    ) from exc
        return stats
