"""Table 5.2: the coverage issue in the statistics feature space.

Quantifies why a vanilla UCB over statistics features over-explores: after
a small initial design, a large share of *random* candidate sequences
produce statistics with feature values outside the observed coverage, and
the GP's posterior on them collapses to the prior (sigma ~ 1, mean ~
average) — so they all look equally, maximally attractive.  Candidates
generated near the incumbent (DES mutations) are far better covered.

Expected shape: coverage(random candidates) < coverage(DES candidates);
mean GP sigma on uncovered candidates > on covered candidates.
"""

import numpy as np

from repro.core.cost_model import CitroenCostModel
from repro.heuristics.des import DiscreteES
from repro.heuristics.random_search import RandomSequenceSearch

from benchmarks.conftest import make_task, print_table, scale


def _run():
    task = make_task("telecom_gsm", seed=7)
    rng = np.random.default_rng(0)
    model = CitroenCostModel(seed=0)
    module = task.hot_modules[0]

    # small initial design, as at the start of a real run
    o3_idx = [i for i, p in enumerate(task.passes)]
    seed_seqs = [rng.integers(0, task.alphabet, size=task.seq_length) for _ in range(8)]
    for seq in seed_seqs:
        _, stats = task.compile_batch([(module, seq)])[0].value
        model.add_observation({module: stats}, float(rng.random() + 0.5))
    model.fit()

    des = DiscreteES(task.seq_length, task.alphabet, seed=1)
    des.seed_parent(seed_seqs[0])
    rnd = RandomSequenceSearch(task.seq_length, task.alphabet, seed=2)

    n = 60 * scale()
    out = {}
    for name, gen in (("des-near-incumbent", des), ("random", rnd)):
        covs, sigmas = [], []
        for seq in gen.ask(n):
            _, stats = task.compile_batch([(module, seq)])[0].value
            covs.append(model.coverage({module: stats}))
            _, sigma = model.predict([{module: stats}])
            sigmas.append(float(sigma[0]))
        covs = np.asarray(covs)
        sigmas = np.asarray(sigmas)
        out[name] = {
            "mean_coverage": float(covs.mean()),
            "frac_uncovered": float((covs < 1.0).mean()),
            "mean_sigma_covered": float(sigmas[covs >= 1.0].mean()) if (covs >= 1.0).any() else float("nan"),
            "mean_sigma_uncovered": float(sigmas[covs < 1.0].mean()) if (covs < 1.0).any() else float("nan"),
        }
    return out


def test_table_5_2(once):
    out = once(_run)
    print_table(
        "Table 5.2: coverage of candidate statistics after 8 observations",
        ["generator", "mean coverage", "% uncovered", "sigma(covered)", "sigma(uncovered)"],
        [
            [
                k,
                f"{v['mean_coverage']:.3f}",
                f"{100 * v['frac_uncovered']:.1f}",
                f"{v['mean_sigma_covered']:.3f}",
                f"{v['mean_sigma_uncovered']:.3f}",
            ]
            for k, v in out.items()
        ],
    )
    once.benchmark.extra_info["table"] = out
    assert out["des-near-incumbent"]["mean_coverage"] >= out["random"]["mean_coverage"]
    rnd = out["random"]
    if rnd["frac_uncovered"] > 0 and not np.isnan(rnd["mean_sigma_covered"]):
        assert rnd["mean_sigma_uncovered"] >= rnd["mean_sigma_covered"] * 0.9
