"""The surrogate's numerics against SciPy, bit for bit.

:mod:`repro.bo.transforms` fits Yeo-Johnson by maximum likelihood and
:mod:`repro.bo.gp` factorises through LAPACK directly; both repeat SciPy's
float operations, so every comparison here is exact equality.
``tests/surrogate_parity.py`` runs the long sweep over whole GP fits.
"""

import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy import linalg, stats

from repro.bo.gp import cho_solve, cholesky
from repro.bo.transforms import YeoJohnson, yeojohnson_normmax, yeojohnson_transform
from repro.core.generator import CandidateGenerator
from tests.surrogate_parity import sweep

_EPS = np.finfo(float).eps
#: targets that made an unguarded ``fminbound`` warn (``inf - inf`` in its
#: parabolic step): code sizes a CITROEN codesize tune of
#: ``automotive_qsort1`` fitted
CODESIZE_TARGETS = ([28.0, 30.0, 27.0, 30.0],
                    [28.0, 30.0, 27.0, 30.0, 27.0, 30.0, 28.0, 29.0])


def _scipy_lambda(y):
    """The parameter ``YeoJohnson.fit`` took from ``stats.yeojohnson``."""
    try:
        return float(np.clip(stats.yeojohnson(y)[1], -3.0, 5.0))
    except ValueError:
        return 1.0


def _datasets():
    rng = np.random.default_rng(2024)
    for i in range(30):
        n = int(rng.integers(2, 61))
        yield "positive", rng.lognormal(0.0, 2.0, n)
        yield "negative", -rng.lognormal(0.0, 1.0, n)
        yield "mixed", rng.standard_normal(n) * 10 ** rng.uniform(-3, 3)
        yield "counts", rng.integers(20, 5000, n).astype(float)
        yield "near_constant", 1.0 + rng.standard_normal(n) * 1e-13
        yield "heavy_tail", rng.standard_cauchy(n)


class TestYeoJohnson:
    def test_mle_and_transform_match_scipy(self):
        for kind, y in _datasets():
            lmbda = yeojohnson_normmax(y)
            assert lmbda == stats.yeojohnson_normmax(y), kind
            # both sides of each branch point (|lmbda| < eps, |lmbda - 2| > eps)
            for lm in (lmbda, 0.0, 1e-17, -_EPS, 2.0, np.nextafter(2.0, 0.0),
                       np.nextafter(2.0, 3.0), -3.0, 5.0):
                assert np.array_equal(
                    yeojohnson_transform(y, lm), stats.yeojohnson(y, lmbda=lm)
                ), (kind, lm)

    def test_fit_matches_scipy_for_every_kind(self):
        for kind, y in _datasets():
            assert YeoJohnson().fit(y).lmbda == _scipy_lambda(y), kind

    def test_near_constant_data_has_infinite_likelihoods(self):
        # the transformed variance is 0 at some lambdas the search tries, so
        # the likelihood is +inf there and rejected; ours must agree
        y = np.array([1.0, 1.0 + 2e-16, 1.0, 1.0 - 1e-16, 1.0])
        assert stats.yeojohnson_llf(-20.0, y) == np.inf
        assert yeojohnson_normmax(y) == stats.yeojohnson_normmax(y)
        # and a lambda near the float range's end
        y = np.array([0.0, 1e-300])
        assert yeojohnson_normmax(y) == stats.yeojohnson_normmax(y)

    def test_all_zero_data(self):
        assert yeojohnson_normmax(np.zeros(5)) == 1.0 == stats.yeojohnson_normmax(np.zeros(5))
        assert YeoJohnson().fit(np.zeros(5)).lmbda == 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_data_raises_and_falls_back_to_identity(self, bad):
        y = np.array([1.0, 2.0, bad, 4.0])
        with pytest.raises(ValueError):
            yeojohnson_normmax(y)
        with pytest.raises(ValueError):
            stats.yeojohnson_normmax(y)
        assert YeoJohnson().fit(y).lmbda == 1.0

    def test_transform_of_non_finite_values_matches_scipy(self):
        y = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 3.0, -2.0])
        for lm in (0.5, 1.0, 3.0):
            with np.errstate(all="ignore"):
                assert np.array_equal(
                    yeojohnson_transform(y, lm), stats.yeojohnson(y, lmbda=lm),
                    equal_nan=True,
                )

    @pytest.mark.parametrize("y", CODESIZE_TARGETS)
    def test_codesize_fit_raises_no_warning(self, y):
        y = np.asarray(y)
        expected = _scipy_lambda(y)
        assert expected != 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # a warning would raise inside fit and fall back to lambda 1.0
            assert YeoJohnson().fit(y).lmbda == expected


class TestLapack:
    def _spd(self, rng, n):
        A = rng.standard_normal((n, n + 2))
        return A @ A.T + 1e-3 * np.eye(n)

    def test_cholesky_and_solve_match_scipy(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            K = self._spd(rng, n)
            L = cholesky(K)
            ref = linalg.cholesky(K, lower=True)
            assert np.array_equal(L, ref)
            assert L.flags.f_contiguous == ref.flags.f_contiguous
            for b in (rng.standard_normal(n), np.eye(n), rng.standard_normal((n, 3))):
                x = cho_solve(L, b)
                xr = linalg.cho_solve((ref, True), b)
                assert np.array_equal(x, xr)
                assert x.shape == xr.shape
                assert x.flags.f_contiguous == xr.flags.f_contiguous

    def test_not_positive_definite_raises_linalg_error(self):
        K = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(linalg.LinAlgError) as ours:
            cholesky(K)
        with pytest.raises(linalg.LinAlgError) as ref:
            linalg.cholesky(K, lower=True)
        assert str(ours.value) == str(ref.value)

    def test_non_finite_input_raises_value_error(self):
        K = np.eye(3)
        K[1, 1] = np.nan
        with pytest.raises(ValueError):
            cholesky(K)
        with pytest.raises(ValueError):
            linalg.cholesky(K, lower=True)
        with pytest.raises(ValueError):
            cho_solve(np.eye(3), np.array([1.0, np.inf, 0.0]))
        with pytest.raises(ValueError):
            cho_solve(K, np.ones(3))

    def test_empty_system(self):
        assert cholesky(np.zeros((0, 0))).shape == (0, 0)
        assert cho_solve(np.zeros((0, 0)), np.zeros(0)).shape == (0,)


def test_gp_fits_match_scipy_numerics():
    failures = []
    assert sweep(1, 8, failures)
    assert failures == []


def test_import_repro_does_not_load_scipy_stats():
    code = (
        "import sys, repro, repro.bo, repro.baselines\n"
        "assert not [m for m in sys.modules if m.startswith('scipy.stats')]\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


def test_normal_cdf_and_pdf_match_scipy_stats():
    from scipy.special import ndtr

    from repro.baselines.boca import _SQRT_2PI

    rng = np.random.default_rng(3)
    z = np.concatenate([rng.standard_normal(1000) * 4, [0.0, -0.0, 40.0, -40.0]])
    assert np.array_equal(ndtr(z), stats.norm.cdf(z))
    assert np.array_equal(np.exp(-z**2/2.0) / _SQRT_2PI, stats.norm.pdf(z))


def test_generator_dedup_keys_keep_content_and_order():
    # three genes over two passes: most proposals repeat one another
    got = CandidateGenerator(3, 2, seed=5).ask(8)
    seen, expected = set(), []
    gen = CandidateGenerator(3, 2, seed=5)
    for name, opt in gen.strategies.items():
        for seq in opt.ask(8):
            key = tuple(int(i) for i in seq)
            if key not in seen:
                seen.add(key)
                expected.append((name, key))
    assert 1 < len(expected) < 24
    assert [(name, tuple(seq.tolist())) for name, seq in got] == expected
