"""Exact Gaussian-process regression with marginal-likelihood fitting.

Implements the surrogate configuration the thesis specifies (§4.3.2):
Matérn-5/2 ARD kernel, constant (zero, after standardisation) mean,
Yeo-Johnson + standardisation output transform, hyperparameters fitted by
L-BFGS-B on the exact log marginal likelihood with analytic gradients, and
the parameter bounds length-scale in [5e-3, 20], noise in [1e-6, 1e-2].

Cholesky factorisations and solves call LAPACK's ``dpotrf``/``dpotrs``
with the arguments ``scipy.linalg.cholesky(lower=True)`` and ``cho_solve``
pass, after the same finiteness checks, so they return SciPy's bits and
raise SciPy's errors without its per-call dispatch, which cost more than
the factorisation at the GP's sizes (``tests/test_surrogate_parity.py``).
"""

from __future__ import annotations

import copy
from typing import Optional, Tuple

import numpy as np
from scipy import linalg, optimize
from scipy.linalg.lapack import dpotrf, dpotrs

from repro.bo.kernels import Kernel, Matern52
from repro.bo.transforms import Standardizer, YeoJohnson
from repro.utils.rng import SeedLike, as_generator

__all__ = ["GaussianProcess"]


def _check_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


def cholesky(K: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of ``K`` (``scipy.linalg.cholesky(K, lower=True)``).

    Raises ``ValueError`` when ``K`` holds a NaN or infinity and
    ``LinAlgError`` when it is not positive definite.
    """
    _check_finite(K)
    L, info = dpotrf(K, lower=True, clean=True)
    if info > 0:
        raise linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite"
        )
    if info < 0:
        raise ValueError(
            f'LAPACK reported an illegal value in {-info}-th argument on entry to "POTRF".'
        )
    return L


def cho_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``K x = b`` from the lower factor ``L`` of ``K``
    (``scipy.linalg.cho_solve((L, True), b)``)."""
    _check_finite(b)
    _check_finite(L)
    if b.size == 0:
        return np.empty_like(b)
    x, info = dpotrs(L, b, lower=True)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return x


class GaussianProcess:
    """Exact GP regression on inputs in the unit box.

    Parameters
    ----------
    kernel:
        Covariance function (default Matérn-5/2 ARD).
    noise:
        Initial observation noise variance; fitted within ``noise_bounds``.
    power_transform:
        Apply Yeo-Johnson to targets before standardisation.
    """

    def __init__(
        self,
        dim: int,
        kernel: Optional[Kernel] = None,
        noise: float = 1e-3,
        noise_bounds: Tuple[float, float] = (1e-6, 1e-2),
        power_transform: bool = True,
        seed: SeedLike = None,
    ) -> None:
        self.dim = dim
        self.kernel = kernel if kernel is not None else Matern52(dim)
        self.log_noise = float(np.log(noise))
        self.noise_bounds = noise_bounds
        self.power_transform = power_transform
        self.rng = as_generator(seed)
        self._X: Optional[np.ndarray] = None
        self._z: Optional[np.ndarray] = None
        self._L: Optional[np.ndarray] = None
        self._alpha: Optional[np.ndarray] = None
        self._yj = YeoJohnson()
        self._std = Standardizer()

    # -- data plumbing ---------------------------------------------------------
    @property
    def noise(self) -> float:
        return float(np.exp(self.log_noise))

    @property
    def n(self) -> int:
        return 0 if self._X is None else len(self._X)

    def _transform_y(self, y: np.ndarray, refit: bool) -> np.ndarray:
        if self.power_transform:
            z = self._yj.fit_transform(y) if refit else self._yj.transform(y)
        else:
            z = np.asarray(y, dtype=float)
        return self._std.fit_transform(z) if refit else self._std.transform(z)

    def _factorise(self) -> None:
        K = self.kernel(self._X, self._X)
        K[np.diag_indices_from(K)] += self.noise + 1e-8
        self._L = cholesky(K)
        self._alpha = cho_solve(self._L, self._z)
        # cached inverse makes posterior gradients O(n^2) instead of O(n^2 d)
        self._Kinv = cho_solve(self._L, np.eye(len(self._X)))

    # -- fitting -------------------------------------------------------------------
    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        optimize_hypers: bool = True,
        n_restarts: int = 1,
        max_iter: int = 60,
    ) -> "GaussianProcess":
        """Condition on data; optionally refit hyperparameters."""
        self._X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float)
        self._z = self._transform_y(y, refit=True)
        if optimize_hypers and len(y) >= 3:
            self._optimize_hypers(n_restarts=n_restarts, max_iter=max_iter)
        self._factorise()
        return self

    def condition(self, X: np.ndarray, y: np.ndarray) -> "GaussianProcess":
        """Re-condition on new data without refitting hyperparameters."""
        self._X = np.atleast_2d(np.asarray(X, dtype=float))
        self._z = self._transform_y(np.asarray(y, dtype=float), refit=True)
        self._factorise()
        return self

    def _pack(self) -> np.ndarray:
        return np.concatenate([self.kernel.get_params(), [self.log_noise]])

    def _unpack(self, theta: np.ndarray) -> None:
        self.kernel.set_params(theta[:-1])
        self.log_noise = float(theta[-1])

    def _nll_and_grad(self, theta: np.ndarray) -> Tuple[float, np.ndarray]:
        self._unpack(theta)
        X, z = self._X, self._z
        n = len(z)
        # one kernel evaluation shares its scaled-distance geometry with the
        # gradient pass below — the L-BFGS hot loop never computes it twice
        K, cache = self.kernel.eval_with_cache(X)
        K[np.diag_indices_from(K)] += self.noise + 1e-8
        try:
            L = cholesky(K)
        except linalg.LinAlgError:
            return 1e10, np.zeros_like(theta)
        alpha = cho_solve(L, z)
        nll = (
            0.5 * float(z @ alpha)
            + float(np.log(np.diag(L)).sum())
            + 0.5 * n * np.log(2.0 * np.pi)
        )
        # dNLL/dtheta = -0.5 tr((aa^T - K^-1) dK/dtheta); the kernel
        # accumulates every per-dim trace via matrix products instead of
        # materialising dim separate (n, n) derivative matrices
        Kinv = cho_solve(L, np.eye(n))
        W = np.outer(alpha, alpha) - Kinv
        grad = np.empty_like(theta)
        grad[:-1] = -0.5 * self.kernel.grad_hyper_quadform(X, W, cache)
        # noise: dK/d(log noise) = noise * I
        grad[-1] = -0.5 * float(np.trace(W)) * self.noise
        return nll, grad

    def _optimize_hypers(self, n_restarts: int, max_iter: int) -> None:
        bounds = self.kernel.param_bounds() + [
            (np.log(self.noise_bounds[0]), np.log(self.noise_bounds[1]))
        ]
        starts = [self._pack()]
        for _ in range(max(0, n_restarts - 1)):
            s = np.array([self.rng.uniform(lo, hi) for lo, hi in bounds])
            starts.append(s)
        best_theta, best_val = None, np.inf
        for s in starts:
            res = optimize.minimize(
                self._nll_and_grad,
                np.clip(s, [b[0] for b in bounds], [b[1] for b in bounds]),
                jac=True,
                method="L-BFGS-B",
                bounds=bounds,
                options={"maxiter": max_iter},
            )
            if res.fun < best_val:
                best_val, best_theta = res.fun, res.x
        if best_theta is not None:
            self._unpack(best_theta)

    # -- prediction ------------------------------------------------------------------
    def predict(self, X: np.ndarray, include_noise: bool = False) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation in the *transformed* space."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self._X is None or self._L is None:
            return np.zeros(len(X)), np.ones(len(X))
        Ks = self.kernel(X, self._X)
        mean = Ks @ self._alpha
        var = self.kernel.diag(X) - ((Ks @ self._Kinv) * Ks).sum(1)
        if include_noise:
            var = var + self.noise
        return mean, np.sqrt(np.maximum(var, 1e-14))

    def predict_grad(self, x: np.ndarray) -> Tuple[float, float, np.ndarray, np.ndarray]:
        """Posterior mean, std and their gradients at a single point.

        Returns ``(mu, sigma, dmu_dx, dsigma_dx)``; used by the analytic
        gradient-based AF maximiser.  Costs O(n^2 + n d) thanks to the
        cached kernel inverse.
        """
        x = np.asarray(x, dtype=float)
        ks = self.kernel(x[None, :], self._X)[0]  # (n,)
        mu = float(ks @ self._alpha)
        w = self._Kinv @ ks  # (n,)
        var = float(self.kernel.diag(x[None, :])[0] - ks @ w)
        sigma = float(np.sqrt(max(var, 1e-14)))
        dks = self.kernel.grad_x(x, self._X)  # (n, d)
        dmu = dks.T @ self._alpha
        # dvar/dx = -2 (K^-1 k)^T dk   (stationary kernel: d k(x,x)/dx = 0)
        dvar = -2.0 * (dks.T @ w)
        dsigma = dvar / (2.0 * sigma)
        return mu, sigma, dmu, dsigma

    def _rank1_extension(
        self, x: np.ndarray
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Extend the Cholesky factor and cached inverse by one row.

        Returns ``(L_new, Kinv_new)`` for the (n+1)-point factorisation in
        O(n^2), or ``None`` when the new point is so close to an existing
        one that the rank-1 update would be numerically unsound (the caller
        should fall back to a full refactorisation).
        """
        n = len(self._X)
        ks = self.kernel(x[None, :], self._X)[0]
        v = linalg.solve_triangular(self._L, ks, lower=True)
        kxx = float(self.kernel.diag(x[None, :])[0]) + self.noise + 1e-8
        s2 = kxx - float(v @ v)
        if s2 < 1e-10 * kxx:
            return None
        s = np.sqrt(s2)
        L_new = np.zeros((n + 1, n + 1))
        L_new[:n, :n] = self._L
        L_new[n, :n] = v
        L_new[n, n] = s
        # O(n^2) block-inverse update of the cached kernel inverse
        w = self._Kinv @ ks
        Kinv_new = np.empty((n + 1, n + 1))
        Kinv_new[:n, :n] = self._Kinv + np.outer(w, w) / s2
        Kinv_new[:n, n] = -w / s2
        Kinv_new[n, :n] = -w / s2
        Kinv_new[n, n] = 1.0 / s2
        return L_new, Kinv_new

    def extend(self, x: np.ndarray, y: float) -> bool:
        """Condition on one more *raw* observation in place, in O(n^2).

        Reuses the rank-1 Cholesky + block-inverse machinery of
        :meth:`fantasize`, so hyperparameters, the output transform and the
        noise level all stay frozen — exactly equivalent to a full
        re-conditioning at the same hyperparameters/transform (property
        tested), at a fraction of the cost.  Returns ``True`` when the
        rank-1 path was used; a near-duplicate input degrades gracefully to
        an O(n^3) refactorisation (still no hyperparameter refit) and
        returns ``False``.
        """
        if self._X is None or self._L is None:
            raise ValueError("extend() requires a conditioned GP; call fit first")
        x = np.asarray(x, dtype=float)
        z_value = float(self._transform_y(np.asarray([y], dtype=float), refit=False)[0])
        ext = self._rank1_extension(x)
        self._X = np.vstack([self._X, x[None, :]])
        self._z = np.concatenate([self._z, [z_value]])
        if ext is None:
            self._factorise()
            return False
        self._L, self._Kinv = ext
        self._alpha = cho_solve(self._L, self._z)
        return True

    def fantasize(self, x: np.ndarray, z_value: float) -> "GaussianProcess":
        """Cheap conditioned copy with one extra (transformed-space) point.

        Uses a rank-1 Cholesky extension — O(n^2) instead of a full refit —
        for the Kriging-believer batch construction.  The clone owns its
        kernel, transforms and RNG: a later hyperparameter refit (or
        sampling) on the parent can no longer mutate the fantasy.
        """
        x = np.asarray(x, dtype=float)
        ext = self._rank1_extension(x)

        clone = GaussianProcess.__new__(GaussianProcess)
        clone.__dict__.update(self.__dict__)
        clone.kernel = self.kernel.copy()
        clone._yj = copy.deepcopy(self._yj)
        clone._std = copy.deepcopy(self._std)
        clone.rng = np.random.default_rng()
        clone.rng.bit_generator.state = self.rng.bit_generator.state
        clone._X = np.vstack([self._X, x[None, :]])
        clone._z = np.concatenate([self._z, [z_value]])
        if ext is None:  # near-duplicate input: full refactorisation
            clone._factorise()
            return clone
        clone._L, clone._Kinv = ext
        clone._alpha = cho_solve(clone._L, clone._z)
        return clone

    # -- transforms back to the original objective scale --------------------------------
    def transform_targets(self, y: np.ndarray) -> np.ndarray:
        """Map raw objective values into the fitted transformed space — the
        space :meth:`predict` reports in — without refitting the transform
        (calibration diagnostics compare predictions against realizations
        under the transform that produced the prediction)."""
        return self._transform_y(np.asarray(y, dtype=float), refit=False)

    def untransform_mean(self, mean_z: np.ndarray) -> np.ndarray:
        """Map transformed-space means back to raw objective values."""
        y = self._std.inverse(mean_z)
        if self.power_transform:
            y = self._yj.inverse(y)
        return y

    def transformed_best(self) -> float:
        """Best (minimum) observed target in the transformed space."""
        return float(np.min(self._z))

    def posterior_samples(self, X: np.ndarray, n_samples: int, rng=None) -> np.ndarray:
        """Joint posterior draws at ``X`` (shape ``(n_samples, len(X))``)."""
        rng = as_generator(rng if rng is not None else self.rng)
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Ks = self.kernel(X, self._X)
        mean = Ks @ self._alpha
        V = linalg.solve_triangular(self._L, Ks.T, lower=True)
        cov = self.kernel(X, X) - V.T @ V
        # near-duplicate candidate rows make the posterior covariance
        # numerically rank-deficient; escalate the jitter before giving up
        Lp = None
        for jitter in (1e-10, 1e-8, 1e-6, 1e-4):
            try:
                Lp = cholesky(cov + jitter * np.eye(len(X)))
                break
            except linalg.LinAlgError:
                continue
        if Lp is None:
            raise linalg.LinAlgError(
                "posterior covariance not positive definite even at jitter 1e-4"
            )
        eps = rng.standard_normal((n_samples, len(X)))
        return mean[None, :] + eps @ Lp.T
