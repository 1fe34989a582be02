"""Genetic algorithms: continuous (unit box) and sequence variants."""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.heuristics.base import ContinuousOptimizer, SequenceOptimizer
from repro.heuristics.operators import (
    polynomial_mutation,
    sbx_crossover,
    seq_point_mutation,
    seq_two_point_crossover,
    tournament_select,
)
from repro.utils.rng import SeedLike

__all__ = ["ContinuousGA", "SequenceGA"]


class ContinuousGA(ContinuousOptimizer):
    """GA over the unit box: tournament + SBX + polynomial mutation.

    The population is updated with whatever samples ``tell`` provides,
    keeping the fittest ``pop_size`` individuals (steady-state survival, the
    behaviour AIBO relies on: the population reflects the AF's choices, so
    an exploratory AF yields a diverse population — §4.5.8).
    """

    def __init__(
        self,
        dim: int,
        pop_size: int = 50,
        seed: SeedLike = None,
        eta_crossover: float = 15.0,
        eta_mutation: float = 20.0,
    ) -> None:
        super().__init__(dim, seed)
        self.pop_size = pop_size
        self.eta_crossover = eta_crossover
        self.eta_mutation = eta_mutation
        self.pop_x = np.empty((0, dim))
        self.pop_y = np.empty((0,))

    def ask(self, n: int) -> np.ndarray:
        """Breed ``n`` children via tournament + crossover + mutation."""
        if len(self.pop_x) < 2:
            return self.rng.random((n, self.dim))
        out: List[np.ndarray] = []
        while len(out) < n:
            idx = tournament_select(self.pop_y, 2, self.rng)
            c1, c2 = sbx_crossover(
                self.pop_x[idx[0]], self.pop_x[idx[1]], self.rng, eta=self.eta_crossover
            )
            out.append(polynomial_mutation(c1, self.rng, eta=self.eta_mutation))
            if len(out) < n:
                out.append(polynomial_mutation(c2, self.rng, eta=self.eta_mutation))
        return np.asarray(out)

    def _update(self, X: np.ndarray, y: np.ndarray) -> None:
        self.pop_x = np.vstack([self.pop_x, X])
        self.pop_y = np.concatenate([self.pop_y, y])
        if len(self.pop_x) > self.pop_size:
            order = np.argsort(self.pop_y, kind="stable")[: self.pop_size]
            self.pop_x = self.pop_x[order]
            self.pop_y = self.pop_y[order]

    def population_diversity(self) -> float:
        """Mean pairwise distance of the population (Fig 4.15's metric)."""
        if len(self.pop_x) < 2:
            return 0.0
        diffs = self.pop_x[:, None, :] - self.pop_x[None, :, :]
        dists = np.sqrt((diffs**2).sum(-1))
        m = len(self.pop_x)
        return float(dists.sum() / (m * (m - 1)))


class SequenceGA(SequenceOptimizer):
    """GA over pass sequences: tournament + two-point crossover + reset
    mutation.  Used both as a phase-ordering baseline and as a CITROEN
    candidate-generation strategy."""

    def __init__(
        self,
        length: int,
        alphabet: int,
        pop_size: int = 20,
        seed: SeedLike = None,
        mutation_prob: Optional[float] = None,
        gene_weights=None,
    ) -> None:
        super().__init__(length, alphabet, seed, gene_weights=gene_weights)
        self.pop_size = pop_size
        self.mutation_prob = mutation_prob
        self.pop_x = np.empty((0, length), dtype=int)
        self.pop_y = np.empty((0,))

    def ask(self, n: int) -> np.ndarray:
        """Breed ``n`` children via tournament + crossover + mutation."""
        if len(self.pop_x) < 2:
            return self.random_sequences(n)
        out: List[np.ndarray] = []
        while len(out) < n:
            idx = tournament_select(self.pop_y, 2, self.rng)
            c1, c2 = seq_two_point_crossover(self.pop_x[idx[0]], self.pop_x[idx[1]], self.rng)
            out.append(seq_point_mutation(c1, self.alphabet, self.rng, self.mutation_prob, weights=self.gene_weights))
            if len(out) < n:
                out.append(seq_point_mutation(c2, self.alphabet, self.rng, self.mutation_prob, weights=self.gene_weights))
        return np.asarray(out, dtype=int)

    def _update(self, X: np.ndarray, y: np.ndarray) -> None:
        self.pop_x = np.vstack([self.pop_x, X]) if len(self.pop_x) else X.copy()
        self.pop_y = np.concatenate([self.pop_y, y])
        if len(self.pop_x) > self.pop_size:
            order = np.argsort(self.pop_y, kind="stable")[: self.pop_size]
            self.pop_x = self.pop_x[order]
            self.pop_y = self.pop_y[order]

    def population_diversity(self) -> float:
        """Mean pairwise Hamming distance of the population."""
        if len(self.pop_x) < 2:
            return 0.0
        neq = (self.pop_x[:, None, :] != self.pop_x[None, :, :]).sum(-1)
        m = len(self.pop_x)
        return float(neq.sum() / (m * (m - 1)))
