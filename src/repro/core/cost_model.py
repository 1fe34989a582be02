"""CITROEN's cost model (§5.3.3).

A Gaussian process over *concatenated per-module compilation statistics*
predicting program runtime.  Each observation is the full program
configuration — the statistics dictionary of every hot module — so the one
global model both ranks candidate sequences within a module and arbitrates
*between* modules (the adaptive budget allocation of §5.3/§1.3).

The surrogate is the tuner's per-iteration overhead (§5.4), so its hot
path is incremental:

* :meth:`add_observation` *extends* the fitted GP in O(n^2) via the
  rank-1 Cholesky machinery (:meth:`repro.bo.gp.GaussianProcess.extend`)
  whenever the statistic-key registry is unchanged;
* full O(n^3) refits happen only when new statistic keys appear, on a
  doubling schedule, or when the standardized residuals of incoming
  observations drift (the model has gone stale);
* refits **warm-start** L-BFGS-B from the previous hyperparameters —
  length-scales carry over per key (the registry is append-only), new
  dimensions start at the default;
* prediction and coverage run batched over whole candidate populations
  (:meth:`predict`, :meth:`coverage_many`).

The model also exposes:

* per-candidate **coverage** (what fraction of a candidate's active
  statistic dimensions lie in the observed range — the Table 5.2 issue);
* ARD **relevance** per statistic (1 / length-scale), which regenerates
  Table 5.5's "top impactful statistics".
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bo.gp import GaussianProcess
from repro.features.stats_features import StatsVectorizer
from repro.utils.rng import SeedLike, as_generator

__all__ = ["CitroenCostModel"]

#: default initial length-scale of a fresh GP dimension (Matérn-5/2 ARD)
_DEFAULT_LOG_LS = float(np.log(0.5))


def _prefixed(module: str, stats: Dict[str, int]) -> Dict[str, int]:
    return {f"{module}::{k}": v for k, v in stats.items()}


class CitroenCostModel:
    """GP over concatenated per-module statistics features.

    Parameters
    ----------
    refit_growth:
        full-refit schedule: refit once ``n >= refit_growth * n_at_last_
        refit`` (doubling by default).
    drift_window / drift_threshold:
        refit early when the mean squared standardized residual of the
        last ``drift_window`` incoming observations exceeds
        ``drift_threshold`` — the frozen hyperparameters/transform no
        longer describe the data.
    metrics:
        optional :class:`~repro.obs.metrics.MetricsRegistry`; refits and
        extends are counted as ``citroen.gp.refits`` /
        ``citroen.gp.extends`` so ``repro analyze`` can report the ratio.
    """

    def __init__(
        self,
        seed: SeedLike = None,
        power_transform: bool = True,
        refit_growth: float = 2.0,
        drift_window: int = 8,
        drift_threshold: float = 4.0,
        metrics=None,
    ) -> None:
        self.vectorizer = StatsVectorizer()
        self.rng = as_generator(seed)
        self.power_transform = power_transform
        self.refit_growth = float(refit_growth)
        self.drift_window = int(drift_window)
        self.drift_threshold = float(drift_threshold)
        self._obs_stats: List[Dict[str, int]] = []
        self._obs_y: List[float] = []
        self.gp: Optional[GaussianProcess] = None
        self._fitted = False
        self._fitted_keys: List[str] = []
        self._n_at_refit = 0
        self._drift: Deque[float] = deque(maxlen=max(1, self.drift_window))
        self.n_refits = 0
        self.n_extends = 0
        self._m_refits = metrics.counter("citroen.gp.refits") if metrics is not None else None
        self._m_extends = metrics.counter("citroen.gp.extends") if metrics is not None else None

    # -- data ------------------------------------------------------------------
    @staticmethod
    def merge_config_stats(per_module: Dict[str, Dict[str, int]]) -> Dict[str, int]:
        """Concatenate per-module stats into one namespaced dict."""
        merged: Dict[str, int] = {}
        for module, stats in per_module.items():
            merged.update(_prefixed(module, stats))
        return merged

    @staticmethod
    def prefix_stats(module: str, stats: Dict[str, int]) -> Dict[str, int]:
        """One module's stats in the merged (namespaced) key space."""
        return _prefixed(module, stats)

    def add_observation(self, per_module: Dict[str, Dict[str, int]], runtime: float) -> None:
        """Record one measured configuration (per-module stats + runtime).

        The fitted GP absorbs the observation in O(n^2) and stays ready;
        when it cannot (new statistic keys, scheduled refit due, residual
        drift) the fit is marked stale and the next :meth:`fit` rebuilds
        it.
        """
        merged = self.merge_config_stats(per_module)
        self._obs_stats.append(merged)
        self._obs_y.append(float(runtime))
        if self._try_extend(merged, float(runtime)):
            self.n_extends += 1
            if self._m_extends is not None:
                self._m_extends.inc()
        else:
            self._fitted = False

    def _try_extend(self, merged: Dict[str, int], runtime: float) -> bool:
        if not self.ready:
            return False
        if not np.isfinite(runtime):
            return False
        if self._refit_due():
            return False
        index = self.vectorizer._key_index
        dim = self.vectorizer.fitted_dim
        for key, value in merged.items():
            if value:
                idx = index.get(key)
                if idx is None or idx >= dim:
                    return False  # new statistic key: the GP needs a new dim
        x = self.vectorizer.transform(merged)
        # drift tracking: standardized residual of the incoming point under
        # the frozen hyperparameters/transform, *before* conditioning on it
        z = self.gp.transform_targets(np.asarray([runtime]))[0]
        mu, sigma = self.gp.predict(x[None, :])
        self._drift.append(float(((z - mu[0]) / max(sigma[0], 1e-12)) ** 2))
        self.gp.extend(x, runtime)
        return True

    def _refit_due(self) -> bool:
        if len(self._obs_y) >= self.refit_growth * max(1, self._n_at_refit):
            return True
        if (
            len(self._drift) >= self.drift_window
            and float(np.mean(self._drift)) > self.drift_threshold
        ):
            return True
        return False

    @property
    def n_observations(self) -> int:
        return len(self._obs_y)

    # -- fitting ------------------------------------------------------------------
    def fit(
        self, optimize_hypers: bool = True, max_iter: int = 30, force: bool = False
    ) -> None:
        """(Re)build the design matrix and refit the GP — if it is stale.

        A ready model whose refit schedule is not due is left untouched
        (the per-iteration call from the tuner loop is then free); pass
        ``force=True`` to rebuild unconditionally.
        """
        if len(self._obs_y) < 2:
            self._fitted = False
            return
        if self.ready and not force and not self._refit_due():
            return
        prev = self.gp
        X = self.vectorizer.fit(self._obs_stats)
        self.gp = GaussianProcess(
            X.shape[1], power_transform=self.power_transform, seed=self.rng
        )
        if prev is not None:
            self._warm_start_from(prev)
        self.gp.fit(
            X,
            np.asarray(self._obs_y),
            optimize_hypers=optimize_hypers,
            max_iter=max_iter,
        )
        self._fitted = True
        self._fitted_keys = list(self.vectorizer.keys)
        self._n_at_refit = len(self._obs_y)
        self._drift.clear()
        self.n_refits += 1
        if self._m_refits is not None:
            self._m_refits.inc()

    def _warm_start_from(self, prev: GaussianProcess) -> None:
        """Seed the new GP's hyperparameters from the previous fit.

        The key registry is append-only, so dimension ``i`` means the same
        statistic before and after a refit: per-key length-scales carry
        over and only genuinely new dimensions start from the default.
        """
        log_ls = np.full(self.gp.dim, _DEFAULT_LOG_LS)
        keep = min(prev.dim, self.gp.dim)
        log_ls[:keep] = prev.kernel.log_ls[:keep]
        self.gp.kernel.log_ls = log_ls
        self.gp.kernel.log_var = prev.kernel.log_var
        self.gp.log_noise = prev.log_noise

    @property
    def ready(self) -> bool:
        return self._fitted and self.gp is not None

    # -- prediction ------------------------------------------------------------------
    def predict(
        self, per_module_list: Sequence[Dict[str, Dict[str, int]]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior mean/std (transformed space) for candidate configs."""
        return self.predict_merged(
            [self.merge_config_stats(pm) for pm in per_module_list]
        )

    def predict_merged(
        self, merged_list: Sequence[Dict[str, int]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batch posterior over already-merged stats dicts (hot path)."""
        assert self.ready
        return self.gp.predict(self.vectorizer.transform_many(merged_list))

    def coverage(self, per_module: Dict[str, Dict[str, int]]) -> float:
        """Feature-coverage score of a candidate config (Table 5.2)."""
        merged = self.merge_config_stats(per_module)
        if self.vectorizer._lo is None:
            return 1.0
        return self.vectorizer.coverage(merged)

    def coverage_many(self, merged_list: Sequence[Dict[str, int]]) -> np.ndarray:
        """Batch coverage over already-merged stats dicts (hot path)."""
        if self.vectorizer._lo is None:
            return np.ones(len(merged_list))
        return self.vectorizer.coverage_many(merged_list)

    def signature(self, per_module: Dict[str, Dict[str, int]]) -> Tuple:
        """Hashable statistics identity used for deduplication."""
        return self.signature_merged(self.merge_config_stats(per_module))

    def signature_merged(self, merged: Dict[str, int]) -> Tuple:
        """Signature of an already-merged stats dict (hot path)."""
        return self.vectorizer.signature(merged)

    def transformed_best(self) -> float:
        """Best observed target in the GP's transformed space."""
        assert self.ready
        return self.gp.transformed_best()

    def transform_runtime(self, runtime: float) -> Optional[float]:
        """A raw runtime in the GP's transformed target space, or ``None``
        when no transform has been fitted yet (or the runtime is the
        infeasibility sentinel).  Unlike :meth:`predict` this stays usable
        right after :meth:`add_observation` marks the fit stale — the
        transforms themselves only change on :meth:`fit`."""
        if self.gp is None or self.gp._X is None or not np.isfinite(runtime):
            return None
        return float(self.gp.transform_targets(np.asarray([runtime]))[0])

    # -- interpretability (Table 5.5) ------------------------------------------------
    def relevance(self) -> List[Tuple[str, float]]:
        """Statistics ranked by ARD relevance (inverse length-scale),
        filtered to dimensions that actually vary in the data.

        Aligned explicitly to the dimensionality the GP was fitted at: the
        key registry may have grown since (``observe_keys`` between fits),
        and a silent ``zip`` truncation against the longer key list would
        misattribute relevance scores to the wrong statistics.
        """
        if not self.ready:
            return []
        ls = self.gp.kernel.lengthscales
        keys = self._fitted_keys if self._fitted_keys else list(self.vectorizer.keys)
        dim = min(len(keys), len(ls), self.vectorizer.fitted_dim)
        spans = self.vectorizer._hi[:dim] - self.vectorizer._lo[:dim]
        out = []
        for key, scale, span in zip(keys[:dim], ls[:dim], spans):
            if span > 1e-12:
                out.append((key, float(1.0 / scale)))
        out.sort(key=lambda kv: -kv[1])
        return out

    def top_statistics(self, k: int = 5) -> List[str]:
        """The ``k`` most relevant statistics (Table 5.5)."""
        return [key for key, _ in self.relevance()[:k]]
