"""Shared scaffolding for the baseline tuners."""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core.result import TuningResult
from repro.core.task import AutotuningTask
from repro.machine.artifacts import CompiledModule
from repro.utils.rng import SeedLike, as_generator

__all__ = ["BaseTuner"]


class BaseTuner:
    """Holds the task, the incumbent configuration, and the budget loop.

    Subclasses implement :meth:`propose` returning ``(module, sequence)``;
    the base class spends one budget slot on it through
    :meth:`~repro.core.task.AutotuningTask.evaluate` (against the
    incumbent for the other modules) and calls :meth:`observe` with the
    outcome.
    """

    name = "base"

    def __init__(self, task: AutotuningTask, seed: SeedLike = None) -> None:
        self.task = task
        self.rng = as_generator(seed)
        self._best_seq: Dict[str, np.ndarray] = {}
        self._best_compiled: Dict[str, CompiledModule] = {}
        self._best_runtime = float("inf")
        self._rr = 0
        self._o3_seeded: List[str] = []

    # -- subclass interface ----------------------------------------------------
    def propose(self) -> Tuple[str, np.ndarray]:
        """Return the next ``(module, sequence)`` to measure."""
        raise NotImplementedError

    def observe(self, module: str, seq: np.ndarray, runtime: float) -> None:
        """Feedback hook; default does nothing."""

    # -- helpers ------------------------------------------------------------------
    def next_module(self) -> str:
        """Round-robin over the hot modules."""
        mods = self.task.hot_modules
        m = mods[self._rr % len(mods)]
        self._rr += 1
        return m

    def random_sequence(self) -> np.ndarray:
        """A uniformly random pass sequence."""
        return self.rng.integers(0, self.task.alphabet, size=self.task.seq_length)

    # -- driver ---------------------------------------------------------------------
    def tune(self, budget: int) -> TuningResult:
        """Run the search for ``budget`` measurements; returns the trace.

        Fault-tolerant: a candidate that fails to compile (crash, timeout,
        quarantined key), crashes during measurement, or miscompiles is
        recorded as an infeasible measurement with penalty fitness fed to
        :meth:`observe`; it never becomes the incumbent and the search
        continues to its full budget.
        """
        task = self.task
        tracer = task.tracer
        result = TuningResult(
            program=task.program.name,
            tuner=self.name,
            o3_runtime=task.o3_runtime,
            o0_runtime=task.o0_runtime,
        )
        while len(result.measurements) < budget and not task.stop_requested:
            # every tuner starts from the default configuration: one O3-seeded
            # measurement per hot module (standard autotuning practice)
            with tracer.span(
                "propose", tuner=self.name, iteration=len(result.measurements)
            ):
                if len(self._o3_seeded) < len(task.hot_modules):
                    module = task.hot_modules[len(self._o3_seeded)]
                    self._o3_seeded.append(module)
                    seq = task.o3_sequence(self.rng)
                else:
                    module, seq = self.propose()
            cfg = dict(self._best_seq)
            cfg[module] = seq
            # the verdict cache is keyed by the configuration: candidates a
            # tuner re-visits (O3 re-seeds, GA elitism, mutation collisions)
            # are never measured twice
            meas, compiled = task.evaluate(
                result,
                cfg,
                self.name,
                module,
                incumbent=self._best_seq,
                incumbent_compiled=self._best_compiled,
                cache=True,
            )
            if meas.correct:
                self.observe(module, seq, meas.runtime)
                if meas.runtime < self._best_runtime:
                    self._best_runtime = meas.runtime
                    self._best_seq[module] = np.asarray(seq, dtype=int).copy()
                    self._best_compiled[module] = compiled[module]
            else:
                # infeasible: penalty feedback, incumbent untouched
                self.observe(module, seq, task.penalty_runtime)
        if len(result.measurements) < budget:
            # stopped early (graceful SIGINT/SIGTERM): partial but valid
            result.extras["interrupted"] = True
        result.best_config = {m: tuple(task.decode(s)) for m, s in self._best_seq.items()}
        result.timing = dict(task.timing_breakdown())
        return result
