"""Search-introspection diagnostics: surrogate calibration and generator
provenance, computed from CITROEN's per-iteration *decision records*.

CITROEN's two load-bearing mechanisms are (1) a GP on compilation
statistics that claims to predict speedup better than sequence encodings
(Table 5.1, Fig 5.7) and (2) a DES/GA/random generator ensemble that
claims to find the incumbents (Fig 5.9–5.11).  A reproduced headline
number can be right for the wrong reason — the autotuning survey
literature keeps stressing that model-accuracy and credit-assignment
diagnostics are what separate a tuned pipeline from a lucky one — so this
module turns the recorded decisions into both checks:

* :func:`calibration` — is the surrogate *calibrated*?  RMSE and Spearman
  rank correlation between the GP's predicted mean and the realized
  outcome (both in the GP's transformed target space, under the transform
  that produced the prediction), empirical 1σ/2σ interval coverage
  (≈0.68/0.95 for a calibrated Gaussian posterior), and drift between the
  first and second half of the run;
* :func:`generator_attribution` — which generator is earning its keep?
  Proposals vs. acquisition wins vs. incumbent improvements per strategy —
  the Fig 5.9 ablation, observed live instead of re-run.

Decision records are emitted by :class:`~repro.core.citroen.Citroen` when
``diagnostics=True`` (the default): each BO iteration appends one dict to
``result.extras["decisions"]`` and mirrors it as a ``decision`` point
event on the task's tracer, so both a live :class:`TuningResult` and a
recorded run directory's ``events.jsonl`` feed the same functions here.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

import numpy as np

from repro.core.generator import base_strategy

__all__ = [
    "attribution_table",
    "calibration",
    "calibration_table",
    "decision_records",
    "generator_attribution",
]


def decision_records(source) -> List[Dict[str, object]]:
    """Extract decision records from a run.

    ``source`` may be ``None``, a :class:`~repro.core.result.TuningResult`
    (reads ``extras["decisions"]``), or a list of event dicts (e.g.
    :func:`~repro.obs.recorder.read_events` of a run's ``events.jsonl``)
    or bare records.  Returns the records in measurement order.
    """
    if source is None:
        return []
    if hasattr(source, "extras"):  # TuningResult
        return list(source.extras.get("decisions") or [])
    records = []
    for item in source:
        if not isinstance(item, dict):
            continue
        if item.get("type") == "event" and item.get("name") == "decision":
            records.append(dict(item.get("attrs") or {}))
        elif "type" not in item and "provenance" in item and "runtime" in item:
            records.append(item)  # already a bare record
    return records


def _scored(records: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    """Records carrying both a prediction and a realized outcome."""
    out = []
    for r in records:
        mu, sig, z = r.get("pred_mu"), r.get("pred_sigma"), r.get("realized_z")
        if mu is None or sig is None or z is None:
            continue
        if not (math.isfinite(mu) and math.isfinite(sig) and math.isfinite(z)):
            continue
        out.append(r)
    return out


def _rmse(err: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(err)))) if err.size else float("nan")


def _spearman(a: np.ndarray, b: np.ndarray) -> float:
    if len(a) < 2 or np.ptp(a) == 0.0 or np.ptp(b) == 0.0:
        return float("nan")
    from scipy import stats

    rho = stats.spearmanr(a, b).correlation
    return float(rho) if rho is not None else float("nan")


def calibration(source) -> Dict[str, float]:
    """Surrogate-calibration statistics over a run's decision records.

    All quantities live in the GP's transformed target space (where the
    posterior is Gaussian, so the σ-interval coverages have their nominal
    0.68/0.95 references).  Keys:

    ``n``
        scored decisions (prediction + feasible realization);
    ``rmse``
        root-mean-square prediction error;
    ``spearman``
        rank correlation between predicted and realized outcomes — the
        Table 5.1 "does the model rank candidates correctly" check
        (invariant under the monotone output transform);
    ``coverage_1s`` / ``coverage_2s``
        fraction of realizations within 1σ / 2σ of the predicted mean;
    ``rmse_first_half`` / ``rmse_second_half`` / ``drift``
        RMSE over each half of the run and their difference — positive
        drift means the surrogate is getting *worse* as data accumulates
        (e.g. the search walked outside the feature coverage).
    """
    records = _scored(decision_records(source))
    out = {
        "n": len(records),
        "rmse": float("nan"),
        "spearman": float("nan"),
        "coverage_1s": float("nan"),
        "coverage_2s": float("nan"),
        "rmse_first_half": float("nan"),
        "rmse_second_half": float("nan"),
        "drift": float("nan"),
    }
    if not records:
        return out
    mu = np.asarray([r["pred_mu"] for r in records], dtype=float)
    sigma = np.asarray([r["pred_sigma"] for r in records], dtype=float)
    z = np.asarray([r["realized_z"] for r in records], dtype=float)
    err = z - mu
    out["rmse"] = _rmse(err)
    out["spearman"] = _spearman(mu, z)
    out["coverage_1s"] = float(np.mean(np.abs(err) <= sigma))
    out["coverage_2s"] = float(np.mean(np.abs(err) <= 2.0 * sigma))
    if len(records) >= 4:
        half = len(records) // 2
        out["rmse_first_half"] = _rmse(err[:half])
        out["rmse_second_half"] = _rmse(err[half:])
        out["drift"] = out["rmse_second_half"] - out["rmse_first_half"]
    return out


def generator_attribution(source) -> Dict[str, Dict[str, float]]:
    """Per-strategy proposals / wins / incumbent improvements (Fig 5.9).

    Prefers the tuner's own counters (``extras["provenance"]``, summed
    over all hot-module generators) when ``source`` is a result carrying
    them; otherwise reconstructs the same totals from decision records —
    which is what the offline analyzer does with only ``events.jsonl`` in
    hand.  Adds a ``win_rate`` (wins per proposal) to each strategy row.
    """
    counts: Dict[str, Dict[str, float]] = {}
    provenance = getattr(source, "extras", {}).get("provenance") if hasattr(
        source, "extras"
    ) else None
    if provenance:
        counts = {name: dict(c) for name, c in provenance.items()}
    else:
        for r in decision_records(source):
            for prov, n in (r.get("proposed") or {}).items():
                name = base_strategy(prov)
                if name is None:
                    continue
                row = counts.setdefault(
                    name, {"proposals": 0, "wins": 0, "improvements": 0}
                )
                row["proposals"] += int(n)
            name = r.get("strategy") or base_strategy(r.get("provenance"))
            if name is None:
                continue
            row = counts.setdefault(
                name, {"proposals": 0, "wins": 0, "improvements": 0}
            )
            row["wins"] += 1
            if r.get("improved"):
                row["improvements"] += 1
    for row in counts.values():
        proposals = row.get("proposals", 0)
        row["win_rate"] = row.get("wins", 0) / proposals if proposals else 0.0
    return counts


# -- text rendering (the analyzer's markdown report embeds these) ----------------


def calibration_table(source) -> str:
    """Fixed-width calibration summary (Fig 5.7 / Table 5.1, observed)."""
    cal = calibration(source)
    if not cal["n"]:
        return "(no decision records — run with diagnostics enabled)"
    rows = [
        ("scored decisions", f"{cal['n']}", ""),
        ("rmse (transformed)", f"{cal['rmse']:.4f}", ""),
        ("spearman rank corr", f"{cal['spearman']:.3f}", "1.0 = perfect ranking"),
        ("1-sigma coverage", f"{cal['coverage_1s']:.2f}", "calibrated ~ 0.68"),
        ("2-sigma coverage", f"{cal['coverage_2s']:.2f}", "calibrated ~ 0.95"),
    ]
    if math.isfinite(cal["drift"]):
        rows.append(
            (
                "rmse drift (2nd-1st half)",
                f"{cal['drift']:+.4f}",
                "positive = degrading",
            )
        )
    width = max(len(r[0]) for r in rows) + 2
    out = [f"{'metric':{width}s}{'value':>12s}  note"]
    for name, value, note in rows:
        out.append(f"{name:{width}s}{value:>12s}  {note}".rstrip())
    return "\n".join(out)


def attribution_table(source) -> str:
    """Fixed-width per-generator attribution table (Fig 5.9, observed)."""
    counts = generator_attribution(source)
    if not counts:
        return "(no provenance records — run with diagnostics enabled)"
    out = [
        f"{'strategy':12s}{'proposals':>11s}{'wins':>7s}"
        f"{'improvements':>14s}{'win rate':>10s}"
    ]
    for name in sorted(counts):
        row = counts[name]
        out.append(
            f"{name:12s}{int(row.get('proposals', 0)):>11d}"
            f"{int(row.get('wins', 0)):>7d}"
            f"{int(row.get('improvements', 0)):>14d}"
            f"{row.get('win_rate', 0.0):>9.2%}"
        )
    return "\n".join(out)
