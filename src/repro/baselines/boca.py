"""BOCA-like tuner: BO with a random-forest surrogate on raw sequence
features (Chen et al., §3.3).

BOCA tunes binary compiler flags with an RF surrogate and an EI-style
acquisition over a candidate neighbourhood of the incumbent; this adapts
the same design to phase ordering: per-position sequence features, a
bagged-tree model, and candidates drawn half from mutations of the best
sequence and half uniformly at random.

The candidate pool is scored on raw sequence features (no compilation),
so only the chosen candidate is built — via the task's
:class:`~repro.core.eval_engine.CompileEngine` (see ``BaseTuner.tune``).
The task's configuration-keyed verdict cache absorbs the frequent
mutation collisions around the incumbent that BOCA's half-mutation pool
produces: a revisited configuration is never re-measured.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np
from scipy.special import ndtr

from repro.baselines.base import BaseTuner
from repro.bo.random_forest import RandomForestRegressor
from repro.core.task import AutotuningTask
from repro.features.seq_features import sequence_features
from repro.heuristics.operators import seq_point_mutation
from repro.utils.rng import SeedLike

_SQRT_2PI = np.sqrt(2 * np.pi)

__all__ = ["BOCATuner"]


class BOCATuner(BaseTuner):
    """RF-surrogate BO over per-module pass sequences (round-robin)."""

    name = "boca"

    def __init__(
        self,
        task: AutotuningTask,
        seed: SeedLike = None,
        n_init: int = 8,
        pool: int = 60,
        n_trees: int = 20,
    ) -> None:
        super().__init__(task, seed)
        self.n_init = n_init
        self.pool = pool
        self.n_trees = n_trees
        self.data: Dict[str, Tuple[List[np.ndarray], List[float]]] = {
            m: ([], []) for m in task.hot_modules
        }

    def _features(self, seq: np.ndarray) -> np.ndarray:
        return sequence_features(seq, self.task.alphabet)

    def propose(self) -> Tuple[str, np.ndarray]:
        """EI over an RF surrogate on a mutation+random candidate pool."""
        m = self.next_module()
        X, y = self.data[m]
        if len(y) < max(3, self.n_init // len(self.task.hot_modules)):
            return m, self.random_sequence()
        rf = RandomForestRegressor(n_trees=self.n_trees, seed=self.rng)
        rf.fit(np.asarray(X), np.asarray(y))
        best_y = min(y)
        best_seq = np.asarray(self._best_seq.get(m, self.random_sequence()), dtype=int)
        cands = []
        for _ in range(self.pool // 2):
            cands.append(seq_point_mutation(best_seq, self.task.alphabet, self.rng, prob=0.15))
        for _ in range(self.pool - len(cands)):
            cands.append(self.random_sequence())
        F = np.asarray([self._features(s) for s in cands])
        mu, sigma = rf.predict(F)
        sigma = np.maximum(sigma, 1e-9)
        z = (best_y - mu) / sigma
        # the normal pdf in scipy.stats.norm's own expression, so EI matches
        # norm.cdf/norm.pdf bit for bit
        ei = sigma * (z * ndtr(z) + np.exp(-z**2/2.0) / _SQRT_2PI)
        return m, cands[int(np.argmax(ei))]

    def observe(self, module: str, seq: np.ndarray, runtime: float) -> None:
        X, y = self.data[module]
        X.append(self._features(np.asarray(seq, dtype=int)))
        y.append(float(runtime))
