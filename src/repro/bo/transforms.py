"""Output transforms: Yeo-Johnson power transform and standardisation.

The thesis (§4.3.2) applies a Yeo-Johnson transform to objective values to
reduce skew before GP fitting — important for heavy-tailed objectives like
Rosenbrock and, in CITROEN's case, runtimes (a few terrible sequences are
orders of magnitude slower than the bulk).

The maximum-likelihood fit repeats ``scipy.stats.yeojohnson``'s float
operations one for one (SciPy 1.17's ``yeojohnson_normmax``: the same
bounds, the same ``optimize.fminbound`` search and the same
log-likelihood), so it returns SciPy's lambda bit for bit.  It computes the
parts of the likelihood that do not depend on lambda once per fit instead
of once per likelihood evaluation, and skips SciPy's per-call dispatch,
which cost more than the arithmetic at the GP's sample sizes.
``tests/test_surrogate_parity.py`` pins the equality.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy import optimize

__all__ = ["YeoJohnson", "Standardizer", "yeojohnson_normmax", "yeojohnson_transform"]

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
# the search interval SciPy derives from the float range: half of the
# exponent range on either side, so the transformed variance cannot over-
# or underflow for data up to 20 times the largest observed magnitude
_LOG_EPS = np.log(_EPS)
_LOG_TINY_FLOAT = (np.log(_TINY) - _LOG_EPS) / 2
_LOG_MAX_FLOAT = (np.log(np.finfo(float).max) + _LOG_EPS) / 2
#: ``optimize.brent``'s tolerance, which SciPy's ``fminbound`` call matches
_XTOL = 1.48e-08


class _Split:
    """Data split as the Yeo-Johnson map splits it: the ``x >= 0`` mask and
    ``log1p`` of each side's magnitude, which no lambda changes."""

    def __init__(self, x: np.ndarray) -> None:
        self.shape = x.shape
        self.pos = x >= 0
        self.neg = ~self.pos
        self.log_pos = np.log1p(x[self.pos])
        self.log_neg = np.log1p(-x[self.neg])

    def transform(self, lmbda: float) -> np.ndarray:
        """The map at ``lmbda``, in SciPy's ``_yeojohnson_transform`` order."""
        out = np.empty(self.shape)
        if abs(lmbda) < _EPS:
            out[self.pos] = self.log_pos
        else:
            # more stable version of: ((x + 1) ** lmbda - 1) / lmbda
            out[self.pos] = np.expm1(lmbda * self.log_pos) / lmbda
        if abs(lmbda - 2) > _EPS:
            out[self.neg] = -np.expm1((2 - lmbda) * self.log_neg) / (2 - lmbda)
        else:
            out[self.neg] = -self.log_neg
        return out


def yeojohnson_transform(x: np.ndarray, lmbda: float) -> np.ndarray:
    """``x`` under the Yeo-Johnson map with parameter ``lmbda``
    (``scipy.stats.yeojohnson(x, lmbda=lmbda)``)."""
    return _Split(np.asarray(x, dtype=float)).transform(lmbda)


def yeojohnson_normmax(x: np.ndarray) -> float:
    """Maximum-likelihood Yeo-Johnson parameter of 1-D data
    (``scipy.stats.yeojohnson_normmax(x)``).

    Raises ``ValueError`` on non-finite data and returns 1.0 for all-zero
    data, as SciPy does.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(invalid="ignore"):
        if not np.all(np.isfinite(x)):
            raise ValueError("Yeo-Johnson input must be finite.")
        if np.all(x == 0):
            return 1.0
        split = _Split(x)
        half_n = -x.shape[0] / 2
        sum_log = np.sum(np.sign(x) * np.log1p(np.abs(x)), axis=0)

        def neg_llf(lmbda: float) -> float:
            sigma = np.var(split.transform(lmbda), axis=0)
            # a variance too small to take the log of gives an infinite
            # likelihood, rejected below
            log_sigma = np.log(sigma) if sigma >= _TINY else -np.inf
            llf = half_n * log_sigma + (lmbda - 1) * sum_log
            # reject infinite likelihoods (likely a tiny transformed variance)
            return np.inf if np.isinf(llf) else -llf

        log1p_max_x = np.log1p(20 * np.max(np.abs(x)))
        lb = _LOG_TINY_FLOAT / log1p_max_x
        ub = _LOG_MAX_FLOAT / log1p_max_x
        # mirror the bounds where all or some of the data is negative
        if np.all(x < 0):
            lb, ub = 2 - ub, 2 - lb
        elif np.any(x < 0):
            lb, ub = max(2 - ub, lb), min(2 - lb, ub)
        return optimize.fminbound(neg_llf, lb, ub, xtol=_XTOL)


class YeoJohnson:
    """Maximum-likelihood Yeo-Johnson transform with an exact inverse."""

    def __init__(self) -> None:
        self.lmbda: Optional[float] = None

    def fit(self, y: np.ndarray) -> "YeoJohnson":
        """Estimate the transform parameter by maximum likelihood."""
        y = np.asarray(y, dtype=float)
        if len(np.unique(y)) < 2:
            self.lmbda = 1.0  # degenerate data: identity transform
            return self
        try:
            self.lmbda = float(np.clip(yeojohnson_normmax(y), -3.0, 5.0))
        except Exception:
            self.lmbda = 1.0
        return self

    def transform(self, y: np.ndarray) -> np.ndarray:
        """Map ``y`` with the fitted parameter."""
        assert self.lmbda is not None, "call fit first"
        return yeojohnson_transform(y, self.lmbda)

    def fit_transform(self, y: np.ndarray) -> np.ndarray:
        """Fit then transform in one call."""
        return self.fit(y).transform(y)

    def inverse(self, z: np.ndarray) -> np.ndarray:
        """Exact inverse of the Yeo-Johnson map."""
        lm = self.lmbda
        assert lm is not None
        z = np.asarray(z, dtype=float)
        out = np.empty_like(z)
        pos = z >= 0
        if abs(lm) > 1e-10:
            out[pos] = np.power(np.maximum(z[pos] * lm + 1.0, 1e-12), 1.0 / lm) - 1.0
        else:
            out[pos] = np.expm1(z[pos])
        two_lm = 2.0 - lm
        if abs(two_lm) > 1e-10:
            out[~pos] = 1.0 - np.power(np.maximum(1.0 - z[~pos] * two_lm, 1e-12), 1.0 / two_lm)
        else:
            out[~pos] = -np.expm1(-z[~pos])
        return out


class Standardizer:
    """Zero-mean / unit-variance scaling with inverse."""

    def __init__(self) -> None:
        self.mean = 0.0
        self.std = 1.0

    def fit(self, y: np.ndarray) -> "Standardizer":
        """Estimate mean and standard deviation."""
        y = np.asarray(y, dtype=float)
        self.mean = float(np.mean(y))
        self.std = float(np.std(y))
        if self.std < 1e-12:
            self.std = 1.0
        return self

    def transform(self, y: np.ndarray) -> np.ndarray:
        """Standardise ``y`` with the fitted statistics."""
        return (np.asarray(y, dtype=float) - self.mean) / self.std

    def fit_transform(self, y: np.ndarray) -> np.ndarray:
        """Fit then transform in one call."""
        return self.fit(y).transform(y)

    def inverse(self, z: np.ndarray) -> np.ndarray:
        """Undo the standardisation."""
        return np.asarray(z, dtype=float) * self.std + self.mean
