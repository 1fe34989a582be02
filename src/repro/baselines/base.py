"""Shared scaffolding for the baseline tuners."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.result import Measurement, TuningResult
from repro.core.task import AutotuningTask
from repro.utils.rng import SeedLike, as_generator

__all__ = ["BaseTuner"]


class BaseTuner:
    """Holds the task, the incumbent configuration, and result recording.

    Subclasses implement :meth:`propose` returning ``(module, sequence)``;
    the base class compiles, measures (against the incumbent for the other
    modules), records, and calls :meth:`observe` with the outcome.
    """

    name = "base"

    def __init__(
        self, task: AutotuningTask, seed: SeedLike = None, seed_with_o3: bool = True
    ) -> None:
        self.task = task
        self.rng = as_generator(seed)
        self.seed_with_o3 = seed_with_o3
        self._best_seq: Dict[str, np.ndarray] = {}
        self._best_compiled: Dict[str, object] = {}
        self._best_runtime = float("inf")
        self._rr = 0
        self._o3_seeded: List[str] = []

    def _o3_sequence(self) -> np.ndarray:
        from repro.compiler.pipelines import pipeline

        index = {p: i for i, p in enumerate(self.task.passes)}
        ids = [index[p] for p in pipeline("-O3") if p in index]
        L = self.task.seq_length
        if not ids:
            # pass alphabet disjoint from the -O3 pipeline: nothing to encode
            import warnings

            warnings.warn(
                "no -O3 pipeline pass is in the search alphabet; "
                "seeding with a random sequence instead",
                stacklevel=2,
            )
            return self.random_sequence()
        if len(ids) >= L:
            return np.asarray(ids[:L], dtype=int)
        reps = ids * (L // len(ids) + 1)
        return np.asarray(reps[:L], dtype=int)

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

    def _record(self, result, module, seq, runtime, ok, status) -> None:
        task = self.task
        full_config = {m: tuple(task.decode(s)) for m, s in self._best_seq.items()}
        full_config[module] = tuple(task.decode(seq))
        idx = len(result.measurements)
        result.measurements.append(
            Measurement(
                index=idx,
                module=module,
                sequence=tuple(task.decode(seq)),
                runtime=runtime if ok else float("inf"),
                speedup_vs_o3=task.o3_runtime / runtime if ok else 0.0,
                correct=ok,
                sequences=full_config,
                status=status,
            )
        )
        task.wal_slot(
            {
                "index": idx,
                "module": module,
                "winner": self.name,
                "sequences": {n: list(s) for n, s in full_config.items()},
                "runtime": runtime if ok else float("inf"),
                "correct": ok,
                "status": status,
            }
        )

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
                if self.seed_with_o3 and len(self._o3_seeded) < len(task.hot_modules):
                    module = task.hot_modules[len(self._o3_seeded)]
                    self._o3_seeded.append(module)
                    seq = self._o3_sequence()
                else:
                    module, seq = self.propose()
            # through the task's CompileEngine: candidates a tuner re-visits
            # (O3 re-seeds, GA elitism, mutation collisions) are cache hits
            outcome = task.compile_batch([(module, seq)], outcomes=True)[0]
            if not outcome.ok:
                self._record(result, module, seq, float("inf"), False, outcome.status)
                self.observe(module, seq, task.penalty_runtime)
                continue
            compiled = outcome.value
            link = dict(self._best_compiled)
            link[module] = compiled
            cfg = dict(self._best_seq)
            cfg[module] = seq
            key = tuple(
                sorted((n, tuple(int(i) for i in s)) for n, s in cfg.items())
            )
            runtime, ok = task.measure(link, config_key=key)
            self._record(
                result, module, seq, runtime, ok,
                "ok" if ok else (task.last_failure or "incorrect"),
            )
            if ok:
                self.observe(module, seq, runtime)
                if runtime < self._best_runtime:
                    self._best_runtime = runtime
                    self._best_seq[module] = np.asarray(seq, dtype=int).copy()
                    self._best_compiled[module] = compiled
            else:
                # infeasible: penalty feedback, incumbent untouched
                self.observe(module, seq, task.penalty_runtime)
        if len(result.measurements) < budget:
            # stopped early (graceful SIGINT/SIGTERM): partial but valid
            result.extras["interrupted"] = True
        result.best_config = {m: tuple(task.decode(s)) for m, s in self._best_seq.items()}
        result.timing = dict(task.timing_breakdown())
        return result
