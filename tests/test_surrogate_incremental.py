"""Tests for the incremental surrogate engine (§5.4 overhead work).

The cost model's hot path — O(n^2) ``extend`` between full refits, an
adaptive refit schedule (new keys / doubling / residual drift),
warm-started hyperparameters.
"""

import numpy as np
import pytest

from repro.core import CitroenCostModel
from repro.obs.metrics import MetricsRegistry


def _obs(nvi, runtime, extra=None):
    stats = {"slp-vectorizer.NumVectorInstructions": nvi, "mem2reg.NumPromoted": 3}
    if extra:
        stats.update(extra)
    return {"long_term": stats}, runtime


def _seeded_model(n=8, **kwargs):
    """A fitted model with ``n`` same-key observations."""
    m = CitroenCostModel(seed=0, **kwargs)
    rng = np.random.default_rng(1)
    for i in range(n):
        m.add_observation(*_obs(i % 5, 1.0 + 0.1 * (i % 5) + 0.01 * rng.random()))
    m.fit()
    return m


class TestRefitSchedule:
    def test_extend_keeps_model_ready(self):
        m = _seeded_model(n=8)
        assert m.ready and m.n_refits == 1 and m.n_extends == 0
        # same keys, below the doubling threshold: pure extends
        m.add_observation(*_obs(2, 1.2))
        assert m.ready
        assert m.n_extends == 1
        m.fit()  # per-iteration call from the tuner loop: a free no-op
        assert m.n_refits == 1
        mu, sigma = m.predict([_obs(1, 0)[0]])
        assert np.isfinite(mu).all() and np.isfinite(sigma).all()
        assert m.gp.n == m.n_observations

    def test_new_statistic_key_triggers_refit(self):
        m = _seeded_model(n=8)
        dim_before = m.gp.dim
        m.add_observation(*_obs(1, 1.1, extra={"licm.NumHoisted": 4}))
        assert not m.ready  # unseen key: the GP needs a new dimension
        assert m.n_extends == 0
        m.fit()
        assert m.n_refits == 2
        assert m.gp.dim == dim_before + 1

    def test_zero_valued_new_key_does_not_force_refit(self):
        # a new key whose value is 0 contributes nothing to the feature
        # vector — it must not invalidate the fit
        m = _seeded_model(n=8)
        m.add_observation(*_obs(1, 1.1, extra={"licm.NumHoisted": 0}))
        assert m.ready and m.n_extends == 1

    def test_doubling_schedule(self):
        m = _seeded_model(n=6)
        assert m._n_at_refit == 6
        rng = np.random.default_rng(2)
        # extends until the observation count doubles, then a refit
        for i in range(6):
            m.add_observation(*_obs(i % 5, 1.0 + 0.1 * (i % 5) + 0.01 * rng.random()))
            m.fit()
        assert m.n_refits == 2
        assert m.n_extends == 5  # the 12th observation hit the doubling refit
        assert m._n_at_refit == 12

    def test_drift_triggers_early_refit(self):
        m = _seeded_model(n=8, drift_window=4, drift_threshold=4.0, refit_growth=100.0)
        # runtimes far outside anything the frozen transform/hypers saw:
        # standardized residuals blow up and the drift gate forces a refit
        # long before the (disabled) doubling schedule would
        for i in range(6):
            m.add_observation(*_obs(i % 5, 50.0 + i))
            m.fit()
        assert m.n_refits >= 2

    def test_nonfinite_runtime_never_extends(self):
        # the tuner filters infeasible runs before the model, but the
        # O(n^2) path guards anyway: a non-finite target would poison the
        # frozen Cholesky factor irrecoverably
        m = _seeded_model(n=8)
        m.add_observation(*_obs(1, float("inf")))
        assert m.n_extends == 0 and not m.ready

    def test_metrics_counters_track_engine(self):
        registry = MetricsRegistry()
        m = CitroenCostModel(seed=0, metrics=registry)
        rng = np.random.default_rng(3)
        for i in range(8):
            m.add_observation(*_obs(i % 5, 1.0 + 0.1 * (i % 5) + 0.01 * rng.random()))
        m.fit()
        m.add_observation(*_obs(2, 1.2))
        counters = registry.snapshot()["counters"]
        assert counters["citroen.gp.refits"] == m.n_refits == 1
        assert counters["citroen.gp.extends"] == m.n_extends == 1


class TestWarmStart:
    def test_lengthscales_carry_over_per_key(self):
        m = _seeded_model(n=10)
        prev_log_ls = m.gp.kernel.log_ls.copy()
        prev_dim = m.gp.dim
        m.add_observation(*_obs(2, 1.1, extra={"licm.NumHoisted": 4}))
        # refit without optimisation: the warm-started values survive
        # verbatim, making the carry-over directly observable
        m.fit(optimize_hypers=False)
        assert m.gp.dim == prev_dim + 1
        assert np.allclose(m.gp.kernel.log_ls[:prev_dim], prev_log_ls)
        # the genuinely new dimension starts from the default prior
        assert m.gp.kernel.log_ls[prev_dim] == pytest.approx(np.log(0.5))

    def test_seeded_determinism(self):
        # the RNG contract: same seed + same observation stream (including
        # warm-started refits along the way) => identical posteriors.
        # extend() consumes no RNG and refits draw their restarts from the
        # model-owned generator only.
        def run():
            m = CitroenCostModel(seed=42)
            rng = np.random.default_rng(7)
            for i in range(16):
                m.add_observation(
                    *_obs(i % 6, 1.0 + 0.1 * (i % 6) + 0.01 * rng.random())
                )
                m.fit()
            return m

        a, b = run(), run()
        assert a.n_refits == b.n_refits and a.n_extends == b.n_extends
        q = [_obs(i, 0)[0] for i in range(5)]
        mu_a, sigma_a = a.predict(q)
        mu_b, sigma_b = b.predict(q)
        assert np.array_equal(mu_a, mu_b)
        assert np.array_equal(sigma_a, sigma_b)


class TestRelevanceAlignment:
    def test_relevance_after_registry_growth(self):
        # regression: the registry grows past the fitted GP between fits;
        # relevance() used to zip the longer key list against the shorter
        # length-scale vector, silently misattributing scores
        m = _seeded_model(n=10)
        fitted_keys = set(m._fitted_keys)
        m.vectorizer.observe_keys({"long_term::late.Key": 1})
        rel = m.relevance()
        assert rel  # still reports something
        assert {k for k, _ in rel} <= fitted_keys
        assert all(score > 0 for _, score in rel)

    def test_relevance_empty_before_fit(self):
        m = CitroenCostModel(seed=0)
        assert m.relevance() == []

