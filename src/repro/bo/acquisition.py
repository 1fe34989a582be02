"""Acquisition functions (minimisation convention).

Analytic UCB / EI / PI with gradients (for the multi-start gradient
maximiser) and Monte-Carlo batch estimators (qEI / qUCB via the
reparameterisation trick, §2.1.2) used for batch selection and testing.
All operate in the GP's transformed target space; since the transforms are
monotone, the argmin is preserved.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from scipy.special import ndtr

from repro.bo.gp import GaussianProcess
from repro.utils.rng import SeedLike, as_generator

__all__ = [
    "AcquisitionFunction",
    "UpperConfidenceBound",
    "ExpectedImprovement",
    "ProbabilityOfImprovement",
    "make_acquisition",
    "mc_qei",
    "mc_qucb",
]

_SQRT2PI = np.sqrt(2.0 * np.pi)


def _phi(z: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * z * z) / _SQRT2PI


def _Phi(z: np.ndarray) -> np.ndarray:
    return ndtr(z)


class AcquisitionFunction:
    """Base AF: higher is better; built over a GP minimising the target."""

    def __init__(self, gp: GaussianProcess) -> None:
        self.gp = gp

    def __call__(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def value_and_grad(self, x: np.ndarray) -> Tuple[float, np.ndarray]:
        """AF value and gradient at a single point ``x``."""
        raise NotImplementedError


class UpperConfidenceBound(AcquisitionFunction):
    """LCB for minimisation, presented as eq 4.1: ``-mu + sqrt(beta) sigma``."""

    def __init__(self, gp: GaussianProcess, beta: float = 1.96) -> None:
        super().__init__(gp)
        self.beta = beta

    def __call__(self, X: np.ndarray) -> np.ndarray:
        mu, sigma = self.gp.predict(X)
        return -mu + np.sqrt(self.beta) * sigma

    def value_and_grad(self, x: np.ndarray) -> Tuple[float, np.ndarray]:
        """AF value and gradient at a single point ``x``."""
        mu, sigma, dmu, dsigma = self.gp.predict_grad(x)
        sb = np.sqrt(self.beta)
        return -mu + sb * sigma, -dmu + sb * dsigma


class ExpectedImprovement(AcquisitionFunction):
    """EI over the incumbent best (eq 2.5, minimisation)."""

    def __init__(self, gp: GaussianProcess, xi: float = 0.0) -> None:
        super().__init__(gp)
        self.xi = xi

    def _z(self, mu, sigma):
        best = self.gp.transformed_best()
        return (best - self.xi - mu) / np.maximum(sigma, 1e-12)

    def __call__(self, X: np.ndarray) -> np.ndarray:
        mu, sigma = self.gp.predict(X)
        z = self._z(mu, sigma)
        return sigma * (z * _Phi(z) + _phi(z))

    def value_and_grad(self, x: np.ndarray) -> Tuple[float, np.ndarray]:
        """AF value and gradient at a single point ``x``."""
        mu, sigma, dmu, dsigma = self.gp.predict_grad(x)
        best = self.gp.transformed_best()
        s = max(sigma, 1e-12)
        z = (best - self.xi - mu) / s
        Phi_z = float(_Phi(np.asarray(z)))
        phi_z = float(_phi(np.asarray(z)))
        val = s * (z * Phi_z + phi_z)
        # dEI/dx = -Phi(z) dmu/dx + phi(z) dsigma/dx
        grad = -Phi_z * dmu + phi_z * dsigma
        return val, grad


class ProbabilityOfImprovement(AcquisitionFunction):
    """PI over the incumbent best (eq 2.6, minimisation)."""

    def __init__(self, gp: GaussianProcess, xi: float = 0.0) -> None:
        super().__init__(gp)
        self.xi = xi

    def __call__(self, X: np.ndarray) -> np.ndarray:
        mu, sigma = self.gp.predict(X)
        best = self.gp.transformed_best()
        z = (best - self.xi - mu) / np.maximum(sigma, 1e-12)
        return _Phi(z)

    def value_and_grad(self, x: np.ndarray) -> Tuple[float, np.ndarray]:
        """AF value and gradient at a single point ``x``."""
        mu, sigma, dmu, dsigma = self.gp.predict_grad(x)
        best = self.gp.transformed_best()
        s = max(sigma, 1e-12)
        z = (best - self.xi - mu) / s
        phi_z = float(_phi(np.asarray(z)))
        grad = phi_z * (-dmu / s - z * dsigma / s)
        return float(_Phi(np.asarray(z))), grad


def make_acquisition(name: str, gp: GaussianProcess, beta: float = 1.96) -> AcquisitionFunction:
    """Factory: ``"ucb"`` (beta param), ``"ei"``, ``"pi"``."""
    if name == "ucb":
        return UpperConfidenceBound(gp, beta=beta)
    if name == "ei":
        return ExpectedImprovement(gp)
    if name == "pi":
        return ProbabilityOfImprovement(gp)
    raise KeyError(f"unknown acquisition function {name!r}")


def mc_qei(
    gp: GaussianProcess, X: np.ndarray, n_samples: int = 256, rng: SeedLike = None
) -> float:
    """Monte-Carlo batch EI (qEI) via joint posterior samples (§2.1.2)."""
    rng = as_generator(rng)
    draws = gp.posterior_samples(X, n_samples, rng)  # (s, q)
    best = gp.transformed_best()
    imp = np.maximum(best - draws, 0.0).max(axis=1)
    return float(imp.mean())


def mc_qucb(
    gp: GaussianProcess,
    X: np.ndarray,
    beta: float = 1.96,
    n_samples: int = 256,
    rng: SeedLike = None,
) -> float:
    """Monte-Carlo batch UCB following Wilson et al.'s reparameterisation."""
    rng = as_generator(rng)
    X = np.atleast_2d(X)
    mu, _ = gp.predict(X)
    draws = gp.posterior_samples(X, n_samples, rng)
    # |deviation| scaled by sqrt(beta pi / 2) reproduces analytic UCB in
    # expectation for q = 1
    dev = np.sqrt(beta * np.pi / 2.0) * np.abs(draws - mu[None, :])
    vals = (-mu[None, :] + dev).max(axis=1)
    return float(vals.mean())
