"""Seeded parity sweep of the GP surrogate's numerics against SciPy (not
pytest-collected).

The surrogate computes its Yeo-Johnson fit and its Cholesky
factorisations and solves itself (:mod:`repro.bo.transforms`,
:func:`repro.bo.gp.cholesky`, :func:`repro.bo.gp.cho_solve`), repeating
SciPy's float operations so that every fit, and so every tuning history,
matches what ``scipy.stats.yeojohnson`` and ``scipy.linalg`` give.  The
reference here is the same :class:`~repro.bo.gp.GaussianProcess` with
those four functions swapped for SciPy's (:func:`scipy_numerics`).  Each
seed draws data sets shaped like the CITROEN cost model's (statistics
vectors in the unit box, duplicate rows, runtimes, integer code sizes,
negative, mixed-sign and near-constant targets), fits both, and compares
the hyperparameters, the transform, ``_L``, ``_alpha``, ``_Kinv`` and
predictions with exact equality, then extends each fit by one point and
compares again.

Exit 0 when every requested seed completed within ``--budget`` seconds
and nothing differed; a failure prints the seed, the case and the field,
and a budget that runs out names the seeds left unchecked.  The default
16 seeds (640 fits per side) take about 30 s on a 2-core x86-64 VM.  CI
runs this as the blocking ``surrogate-parity`` job; tier-1 runs a short
version (``tests/test_surrogate_parity.py``).  Locally::

    PYTHONPATH=src:. python tests/surrogate_parity.py --seeds 1-16 --budget 120
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time
from typing import Dict, Iterator, List, Tuple

import numpy as np
from scipy import linalg, stats

import repro.bo.gp as gp_module
import repro.bo.transforms as transforms_module
from repro.bo.gp import GaussianProcess

#: data sets fitted per seed
FITS = 40
#: the kinds of target the sweep draws, in turn
TARGETS = ("runtime", "codesize", "negative", "mixed", "near_constant", "heavy_tail")


@contextlib.contextmanager
def scipy_numerics() -> Iterator[None]:
    """Run the surrogate on SciPy's Yeo-Johnson and Cholesky routines, the
    calls it made before it computed them itself."""
    swaps = [
        (gp_module, "cholesky", lambda K: linalg.cholesky(K, lower=True)),
        (gp_module, "cho_solve", lambda L, b: linalg.cho_solve((L, True), b)),
        (transforms_module, "yeojohnson_normmax", lambda y: stats.yeojohnson(y)[1]),
        (transforms_module, "yeojohnson_transform",
         lambda y, lmbda: stats.yeojohnson(np.asarray(y, dtype=float), lmbda=lmbda)),
    ]
    saved = [(module, name, getattr(module, name)) for module, name, _ in swaps]
    try:
        for module, name, fn in swaps:
            setattr(module, name, fn)
        yield
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)


def targets(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` objective values of one kind."""
    if kind == "runtime":
        return rng.lognormal(np.log(2e-3), 0.3, n)
    if kind == "codesize":
        return rng.integers(20, 40, n).astype(float)
    if kind == "negative":
        return -rng.lognormal(0.0, 1.0, n)
    if kind == "mixed":
        return rng.standard_normal(n) * 10 ** rng.uniform(-2, 2)
    if kind == "near_constant":
        return 1.0 + rng.standard_normal(n) * 1e-13
    return rng.standard_cauchy(n)


def case(rng: np.random.Generator, i: int) -> Tuple[str, np.ndarray, np.ndarray, Dict]:
    """One data set: ``(target kind, X, y, fit options)``."""
    n = int(rng.integers(3, 61))
    d = int(rng.integers(1, 41))
    X = rng.random((n, d))
    # the cost model sees repeated statistics vectors and constant columns
    dup = rng.random(n) < 0.15
    dup[0] = False
    X[dup] = X[0]
    X[:, rng.random(d) < 0.1] = 0.5
    kind = TARGETS[i % len(TARGETS)]
    opts = {"n_restarts": int(rng.integers(1, 3)), "max_iter": int(rng.choice((30, 60)))}
    return kind, X, targets(kind, n, rng), opts


def fitted(X: np.ndarray, y: np.ndarray, opts: Dict, seed: int,
           x_new: np.ndarray, y_new: float, X_test: np.ndarray) -> Dict[str, object]:
    """Everything a fit determines, before and after one ``extend``."""
    gp = GaussianProcess(X.shape[1], seed=seed).fit(X, y, **opts)
    out: Dict[str, object] = {
        "theta": gp._pack(),
        "lmbda": gp._yj.lmbda,
        "std": (gp._std.mean, gp._std.std),
        "L": gp._L,
        "alpha": gp._alpha,
        "Kinv": gp._Kinv,
        "predict": gp.predict(X_test),
    }
    out["extend_rank1"] = gp.extend(x_new, y_new)
    out["extend_L"] = gp._L
    out["extend_alpha"] = gp._alpha
    out["extend_predict"] = gp.predict(X_test)
    return out


def same(a: object, b: object) -> bool:
    if isinstance(a, tuple):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
    return a == b or (a != a and b != b)


def sweep(seed: int, fits: int, failures: List[str],
          deadline: float = float("inf")) -> bool:
    """Fit ``fits`` seeded data sets both ways and record every field that
    differs; ``False`` if the deadline cut the sweep short."""
    rng = np.random.default_rng(seed)
    for i in range(fits):
        if time.monotonic() > deadline:
            return False
        kind, X, y, opts = case(rng, i)
        x_new = rng.random(X.shape[1])
        y_new = float(targets(kind, 1, rng)[0])
        X_test = rng.random((8, X.shape[1]))
        ours = fitted(X, y, opts, seed, x_new, y_new, X_test)
        with scipy_numerics():
            ref = fitted(X, y, opts, seed, x_new, y_new, X_test)
        for field, value in ours.items():
            if not same(value, ref[field]):
                failures.append(f"seed={seed} case={i} ({kind}, n={len(y)}, "
                                f"d={X.shape[1]}, {opts}): {field} differs")
    return True


def _seeds(spec: str) -> List[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-16", help="seed range, e.g. 1-16")
    ap.add_argument("--budget", type=float, default=120.0,
                    help="seconds every seed must complete within")
    args = ap.parse_args(argv)

    t0 = time.monotonic()
    deadline = t0 + args.budget
    failures: List[str] = []
    seeds, done = _seeds(args.seeds), []
    for seed in seeds:
        if not sweep(seed, FITS, failures, deadline):
            break
        done.append(seed)
    print(
        f"seeds {done or 'none'} complete in {time.monotonic() - t0:.1f}s: "
        f"{len(done) * FITS} GP fits compared with SciPy's numerics, "
        f"{len(failures)} failures"
    )
    for failure in failures:
        print("FAIL", failure)
    if len(done) < len(seeds):
        print(
            f"FAIL the {args.budget:.0f}s budget ran out with seeds "
            f"{seeds[len(done):]} unchecked"
        )
    return 0 if len(done) == len(seeds) and not failures else 1


if __name__ == "__main__":
    sys.exit(main())
