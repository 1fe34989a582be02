"""CITROEN's candidate pass-sequence generator (§5.3.5, Fig 5.4).

The discrete adaptation of AIBO's heuristic AF-maximiser initialisation:
an ensemble of sequence optimisers — DES (1+lambda mutation of the
incumbent), a sequence GA, and uniform random — each warm-started from the
black-box history, proposes raw candidates every iteration.  The
acquisition function then picks among the *compiled* candidates; the
evaluated sample is told back to every strategy (Alg. 1's structure, on a
categorical space)."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.heuristics.des import DiscreteES
from repro.heuristics.ga import SequenceGA
from repro.heuristics.random_search import RandomSequenceSearch
from repro.utils.rng import SeedLike, as_generator, spawn

__all__ = ["CandidateGenerator", "base_strategy"]


def base_strategy(provenance: Optional[str]) -> Optional[str]:
    """Map a winner-provenance label back to its generator strategy.

    ``"novel-des"`` → ``"des"`` (the novelty channel decorates, it does not
    generate); labels that no generator produced — ``"init"``,
    ``"random-fallback"`` — map to ``None`` so provenance accounting never
    credits a strategy for budget it did not earn.
    """
    if not provenance:
        return None
    name = provenance[len("novel-"):] if provenance.startswith("novel-") else provenance
    return name if name in ("des", "ga", "random") else None


class CandidateGenerator:
    """Per-module ensemble of sequence strategies."""

    def __init__(
        self,
        length: int,
        alphabet: int,
        seed: SeedLike = None,
        strategies: Sequence[str] = ("des", "ga", "random"),
        des_lambda_share: float = 0.5,
        ga_pop: int = 20,
        gene_weights=None,
        track_provenance: bool = False,
    ) -> None:
        """``track_provenance=True`` keeps per-strategy proposal / win /
        incumbent-improvement counters (the live Fig 5.9 ablation); off by
        default so undiagnosed runs carry no accounting at all."""
        self.length = length
        self.alphabet = alphabet
        self.track_provenance = bool(track_provenance)
        rng = as_generator(seed)
        children = spawn(rng, len(strategies))
        self.strategies: Dict[str, object] = {}
        for name, r in zip(strategies, children):
            if name == "des":
                self.strategies[name] = DiscreteES(
                    length, alphabet, seed=r, gene_weights=gene_weights
                )
            elif name == "ga":
                self.strategies[name] = SequenceGA(
                    length, alphabet, pop_size=ga_pop, seed=r, gene_weights=gene_weights
                )
            elif name == "random":
                self.strategies[name] = RandomSequenceSearch(
                    length, alphabet, seed=r, gene_weights=gene_weights
                )
            else:
                raise KeyError(f"unknown sequence strategy {name!r}")
        self.provenance_counts: Dict[str, Dict[str, int]] = {
            name: {"proposals": 0, "wins": 0, "improvements": 0}
            for name in strategies
        }

    def ask(self, per_strategy: int) -> List[Tuple[str, np.ndarray]]:
        """Raw candidates with provenance, deduplicated by content."""
        out: List[Tuple[str, np.ndarray]] = []
        seen = set()
        for name, opt in self.strategies.items():
            for seq in opt.ask(per_strategy):
                seq = np.asarray(seq, dtype=int)
                key = tuple(seq.tolist())
                if key in seen:
                    continue
                seen.add(key)
                out.append((name, seq))
                if self.track_provenance:
                    self.provenance_counts[name]["proposals"] += 1
        return out

    # -- provenance accounting (Fig 5.9, live) -----------------------------------
    def credit_win(self, provenance: str) -> None:
        """Count a strategy's candidate winning the acquisition argmax."""
        name = base_strategy(provenance)
        if self.track_provenance and name in self.provenance_counts:
            self.provenance_counts[name]["wins"] += 1

    def credit_improvement(self, provenance: str) -> None:
        """Count a strategy's winner actually improving the incumbent."""
        name = base_strategy(provenance)
        if self.track_provenance and name in self.provenance_counts:
            self.provenance_counts[name]["improvements"] += 1

    def provenance_stats(self) -> Dict[str, Dict[str, int]]:
        """Copy of the per-strategy proposal/win/improvement counters."""
        return {name: dict(c) for name, c in self.provenance_counts.items()}

    def tell(self, seq: np.ndarray, y: float) -> None:
        """Feed an evaluated sequence back to every strategy."""
        for opt in self.strategies.values():
            opt.tell(np.asarray(seq, dtype=int)[None, :], np.asarray([y]))

    def seed_incumbent(self, seq: np.ndarray, y: float) -> None:
        """Anchor DES's parent (and everyone's best) at a known-good point —
        CITROEN starts from the -O3 pipeline's sequence."""
        self.tell(seq, y)
        des = self.strategies.get("des")
        if isinstance(des, DiscreteES):
            des.seed_parent(np.asarray(seq, dtype=int))
