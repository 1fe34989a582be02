"""The CITROEN tuner (§5.3, Figs 5.2–5.4).

Per iteration:

1. every hot module's candidate generator (DES + GA + random, §5.3.5)
   proposes raw pass sequences;
2. each candidate is **compiled** — cheap and parallelisable — yielding its
   compilation statistics; the whole ``per_strategy x strategies x
   hot_modules`` population goes through ``task.compile_batch`` in one
   call, so the task's :class:`~repro.core.eval_engine.CompileEngine`
   fans it out over ``jobs`` workers and compiles repeated candidates
   within the batch once;
3. candidates whose statistics signature matches an already-measured
   configuration are *deduplicated*: identical statistics ≈ identical
   binary, so the known runtime is reused without spending budget
   (Kulkarni-style redundancy elimination, §3.1.1).  The signature covers
   the **full configuration** (candidate module + current incumbent on
   every other module) — runtimes belong to whole programs, so a
   per-module signature would wrongly reuse a runtime measured under a
   different incumbent;
4. the coverage-aware acquisition function (§5.3.4) scores every remaining
   ``(module, candidate)`` pair under the global cost model — candidates
   whose statistics lie outside the observed feature coverage have their
   uncertainty bonus damped, curing the over-exploration the sparse
   feature space otherwise causes (Table 5.2);
5. the argmax pair is **measured** (expensive); the observation updates the
   cost model and that module's generators.

Because the AF argmax ranges over modules as well as sequences, the search
budget flows to whichever module currently promises the most improvement —
the adaptive multi-module budget allocation (§1.3), benchmarked against
round-robin in ``benchmarks/test_multimodule_budget.py``.
"""

from __future__ import annotations

import time
import warnings
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compiler.ir import Module
from repro.compiler.pipelines import pipeline
from repro.core.cost_model import CitroenCostModel
from repro.core.generator import CandidateGenerator, base_strategy
from repro.core.result import Measurement, TuningResult
from repro.core.task import AutotuningTask
from repro.machine.artifacts import CompiledModule
from repro.utils.rng import SeedLike, as_generator, spawn

__all__ = ["Citroen"]

#: feature modes computed from statistics or the sequence alone, never
#: from the optimised IR
_IR_FREE_FEATURES = ("stats", "seq")


class Citroen:
    """Compilation-statistics-guided Bayesian phase-ordering tuner."""

    def __init__(
        self,
        task: AutotuningTask,
        seed: SeedLike = None,
        n_init: int = 8,
        per_strategy: int = 6,
        beta: float = 1.96,
        coverage_floor: float = 0.3,
        coverage_gamma: float = 2.0,
        novelty_epsilon: float = 0.25,
        use_coverage: bool = True,
        use_dedup: bool = True,
        generators: Sequence[str] = ("des", "ga", "random"),
        feature_mode: str = "stats",
        refit_every: int = 1,
        seed_with_o3: bool = True,
        module_policy: str = "adaptive",
        pass_prior=None,
        diagnostics: bool = True,
        model_opts: Optional[Dict[str, object]] = None,
    ) -> None:
        """
        Parameters
        ----------
        feature_mode:
            ``"stats"`` (CITROEN), or the Fig 5.9 alternatives
            ``"autophase"``, ``"seq"``, ``"tokens"``.
        module_policy:
            ``"adaptive"`` (AF arbitrates between modules) or
            ``"round-robin"`` (the ablation for the 2.5x experiment).
        pass_prior:
            optional :class:`~repro.core.transfer.PassCorrelationPrior`
            trained on previous programs; biases candidate generation
            (§6.3.2 cross-program transfer).
        diagnostics:
            record per-iteration *decision records* (GP prediction vs
            realized speedup, acquisition value, winning provenance,
            coverage — the raw material of
            :mod:`repro.obs.diagnostics`) plus per-generator
            proposal/win/improvement counters.  Consumes no RNG either
            way, so tuner histories are bit-identical at the same seed
            whether on or off; off leaves every counter untouched.
        model_opts:
            extra keyword arguments forwarded to
            :class:`~repro.core.cost_model.CitroenCostModel` —
            ``repro bench`` uses this to pit the incremental surrogate
            against the legacy full-refit baseline.
        """
        self.task = task
        self.rng = as_generator(seed)
        self.n_init = n_init
        self.per_strategy = per_strategy
        self.beta = beta
        self.coverage_floor = coverage_floor
        self.coverage_gamma = coverage_gamma
        self.novelty_epsilon = novelty_epsilon
        self.use_coverage = use_coverage
        self.use_dedup = use_dedup
        self.feature_mode = feature_mode
        self.refit_every = refit_every
        self.seed_with_o3 = seed_with_o3
        self.module_policy = module_policy
        self.diagnostics = bool(diagnostics)
        self._pending_decision: Optional[Dict[str, object]] = None

        gene_weights = (
            pass_prior.pass_weights(task.passes) if pass_prior is not None else None
        )
        children = spawn(self.rng, len(task.hot_modules) + 1)
        self.generators: Dict[str, CandidateGenerator] = {
            name: CandidateGenerator(
                task.seq_length,
                task.alphabet,
                seed=r,
                strategies=generators,
                gene_weights=gene_weights,
                track_provenance=self.diagnostics,
            )
            for name, r in zip(task.hot_modules, children)
        }
        self.model = CitroenCostModel(
            seed=children[-1], metrics=task.metrics, **(model_opts or {})
        )
        self.model_seconds = 0.0
        self._rr_cursor = 0

        # incumbent configuration (per hot module)
        self._best_seq: Dict[str, np.ndarray] = {}
        self._best_compiled: Dict[str, CompiledModule] = {}
        self._best_feats_cache: Dict[str, Dict[str, int]] = {}
        self._best_runtime = float("inf")
        self._sig_runtime: Dict[Tuple, float] = {}

    # -- feature extraction dispatch (Fig 5.9) --------------------------------
    def _features_of(self, module_name: str, seq: np.ndarray, compiled: Module, stats: Dict[str, int]) -> Dict[str, int]:
        if self.feature_mode == "stats":
            return stats
        if self.feature_mode == "autophase":
            from repro.features.autophase import autophase_features

            return autophase_features(compiled)
        if self.feature_mode == "tokens":
            from repro.features.tokens import token_histogram

            return token_histogram(compiled)
        if self.feature_mode == "seq":
            return {f"pos{i}": int(v) + 1 for i, v in enumerate(seq)}
        raise KeyError(f"unknown feature mode {self.feature_mode!r}")

    def _o3_seed_sequence(self) -> np.ndarray:
        """The -O3 pipeline encoded (and padded/cut) to the search length.

        With a pass alphabet disjoint from the -O3 pipeline (custom/reduced
        subsets, cf. the Fig 5.10 LLVM-10-like config) there is nothing to
        encode; fall back to a random seed sequence instead of dividing by
        zero."""
        index = {p: i for i, p in enumerate(self.task.passes)}
        ids = [index[p] for p in pipeline("-O3") if p in index]
        L = self.task.seq_length
        if not ids:
            warnings.warn(
                "no -O3 pipeline pass is in the search alphabet; "
                "seeding with a random sequence instead",
                stacklevel=2,
            )
            return self.rng.integers(0, self.task.alphabet, size=L)
        if len(ids) >= L:
            return np.asarray(ids[:L], dtype=int)
        reps = ids * (L // len(ids) + 1)
        return np.asarray(reps[:L], dtype=int)

    # -- main loop ----------------------------------------------------------------
    def tune(self, budget: int) -> TuningResult:
        """Run the CITROEN search for ``budget`` measurements."""
        task = self.task
        result = TuningResult(
            program=task.program.name,
            tuner=f"citroen[{self.feature_mode}]",
            o3_runtime=task.o3_runtime,
            o0_runtime=task.o0_runtime,
        )
        result.extras["winner_strategies"] = []
        result.extras["chosen_modules"] = []
        result.extras["dedup_hits"] = 0
        result.extras["chosen_coverage"] = []
        result.extras["compile_failures"] = 0
        if self.diagnostics:
            result.extras["decisions"] = []

        tracer = task.tracer

        # ---- initial design -------------------------------------------------
        n_init = min(self.n_init, budget)
        init_configs: List[Dict[str, np.ndarray]] = []
        if self.seed_with_o3:
            init_configs.append({m: self._o3_seed_sequence() for m in task.hot_modules})
        while len(init_configs) < n_init:
            cfg = {
                m: self.rng.integers(0, task.alphabet, size=task.seq_length)
                for m in task.hot_modules
            }
            init_configs.append(cfg)
        with tracer.span("init", n_configs=n_init):
            for cfg in init_configs[:n_init]:
                if task.stop_requested:
                    break
                self._measure_config(cfg, result, winner="init")

        # ---- BO loop ----------------------------------------------------------
        it = 0
        while len(result.measurements) < budget and not task.stop_requested:
            t0 = time.perf_counter()
            if it % self.refit_every == 0 or not self.model.ready:
                refits_before = self.model.n_refits
                with tracer.span("fit", n_observations=self.model.n_observations) as sp:
                    # usually a no-op: add_observation keeps the GP
                    # conditioned incrementally, and full (warm-started)
                    # refits happen only on the model's adaptive schedule
                    self.model.fit(optimize_hypers=True)
                    sp.set(full=self.model.n_refits > refits_before)
            self.model_seconds += time.perf_counter() - t0
            with tracer.span("propose", iteration=it) as sp:
                chosen = self._propose(result)
                sp.set(outcome="fallback" if chosen is None else chosen[3])
            prev_best = self._best_runtime
            if chosen is None:
                # model not ready or no fresh candidates: random fallback
                m = self._pick_module_random()
                cfg = dict(self._best_seq)
                cfg[m] = self.rng.integers(0, task.alphabet, size=task.seq_length)
                self._measure_config(cfg, result, winner="random-fallback", module=m)
                self._record_decision(result, it, m, "random-fallback", prev_best)
            else:
                module_name, seq, compiled, provenance, cov = chosen
                if compiled.module is None:
                    # a stats-only result: compiles are pure, so this is
                    # the module the proposal compile would have built
                    compiled = task.compile_module(module_name, seq)
                cfg = dict(self._best_seq)
                cfg[module_name] = seq
                self._measure_config(
                    cfg,
                    result,
                    winner=provenance,
                    module=module_name,
                    precompiled=(module_name, compiled),
                    coverage=cov,
                )
                self._record_decision(result, it, module_name, provenance, prev_best)
            it += 1

        if len(result.measurements) < budget:
            # stopped early (graceful SIGINT/SIGTERM): the partial trace is
            # still valid, analyzable, and — with a WAL — resumable
            result.extras["interrupted"] = True
        result.best_config = {
            m: tuple(task.decode(s)) for m, s in self._best_seq.items()
        }
        result.timing = dict(task.timing_breakdown())
        result.timing["model_seconds"] = self.model_seconds
        if not self.model.ready and self.model.n_observations >= 2:
            self.model.fit(optimize_hypers=True)
        result.extras["top_statistics"] = (
            self.model.top_statistics(5) if self.model.ready else []
        )
        result.extras["relevance"] = self.model.relevance()[:20] if self.model.ready else []
        result.extras["n_incorrect"] = task.n_incorrect
        result.extras["n_crashes"] = task.n_crashes
        if self.diagnostics:
            result.extras["provenance"] = self.provenance_summary()
        return result

    # -- search-introspection (repro.obs.diagnostics feeds on these) --------------
    def provenance_summary(self) -> Dict[str, Dict[str, int]]:
        """Per-strategy proposal/win/improvement counters summed over the
        hot modules' generators (the live Fig 5.9 ablation)."""
        summary: Dict[str, Dict[str, int]] = {}
        for gen in self.generators.values():
            for name, counts in gen.provenance_stats().items():
                agg = summary.setdefault(
                    name, {"proposals": 0, "wins": 0, "improvements": 0}
                )
                for key, value in counts.items():
                    agg[key] = agg.get(key, 0) + value
        return summary

    def _record_decision(
        self,
        result: TuningResult,
        iteration: int,
        module: str,
        provenance: str,
        prev_best: float,
    ) -> None:
        """Complete this iteration's decision record with the realized
        outcome, credit the winning generator, and emit the record to the
        trace/metrics stream.  No RNG is consumed, so histories stay
        bit-identical whether diagnostics are on or off."""
        pending, self._pending_decision = self._pending_decision, None
        if not self.diagnostics:
            return
        meas = result.measurements[-1]
        improved = meas.correct and meas.runtime < prev_best
        record: Dict[str, object] = {
            "iteration": iteration,
            "measurement": meas.index,
            "module": module,
            "provenance": provenance,
            "strategy": base_strategy(provenance),
            "channel": "fallback",
            "pred_mu": None,
            "pred_sigma": None,
            "acq": None,
            "coverage": None,
            "coverage_damp": None,
            "n_candidates": None,
            "proposed": {},
        }
        if pending is not None:
            record.update(pending)
        record.update(
            runtime=float(meas.runtime),
            speedup_vs_o3=float(meas.speedup_vs_o3),
            status=meas.status,
            improved=bool(improved),
            realized_z=(
                self.model.transform_runtime(meas.runtime) if meas.correct else None
            ),
        )
        gen = self.generators.get(module)
        if gen is not None:
            gen.credit_win(provenance)
            if improved:
                gen.credit_improvement(provenance)
        metrics = self.task.metrics
        metrics.counter("citroen.decisions").inc()
        strategy = record["strategy"]
        if strategy is not None:
            metrics.counter(f"citroen.wins.{strategy}").inc()
            if improved:
                metrics.counter(f"citroen.improvements.{strategy}").inc()
        self.task.tracer.event("decision", **record)
        result.extras["decisions"].append(record)

    # -- proposal -------------------------------------------------------------------
    def _propose(self, result: TuningResult):
        """Generate, compile, dedup and score candidates; return the argmax."""
        task = self.task
        tracer = task.tracer
        self._pending_decision = None
        if not self.model.ready or not self._best_seq:
            return None
        modules = self._modules_to_consider()
        raw: List[Tuple[str, str, np.ndarray]] = []
        with tracer.span("candidate_gen", modules=len(modules)) as sp:
            for module_name in modules:
                for provenance, seq in self.generators[module_name].ask(
                    self.per_strategy
                ):
                    raw.append((module_name, provenance, seq))
            sp.set(candidates=len(raw))
        proposed: Dict[str, int] = {}
        for _m, prov, _s in raw:
            proposed[prov] = proposed.get(prov, 0) + 1
        # the whole candidate population compiles in one batch — the engine
        # fans it out over `jobs` workers and compiles repeated candidates
        # once (the engine traces this as its own `compile_batch` span).
        # Features that need no IR build no modules; tune() recompiles
        # the one winner it measures.
        batch = task.compile_batch(
            [(m, seq) for m, _prov, seq in raw],
            outcomes=True,
            stats_only=self.feature_mode in _IR_FREE_FEATURES,
        )
        span_feat = tracer.span("featurize", candidates=len(batch))
        span_feat.__enter__()
        dedup_before = result.extras["dedup_hits"]
        failures_before = result.extras.get("compile_failures", 0)
        # merged incumbent statistics *excluding* each module, computed once
        # per iteration — every candidate then merges in O(|own stats|)
        prefixed_best = {
            m: self.model.prefix_stats(m, feats)
            for m, feats in self._best_feats().items()
        }
        base_without: Dict[str, Dict[str, int]] = {}
        for m in modules:
            base: Dict[str, int] = {}
            for name, pref in prefixed_best.items():
                if name != m:
                    base.update(pref)
            base_without[m] = base
        scored = []
        for (module_name, provenance, seq), outcome in zip(raw, batch):
            if not outcome.ok:
                # infeasible candidate (crash/timeout/quarantined): penalty
                # feedback steers its generator away; it never reaches the
                # cost model, the dedup table, or the acquisition function
                self.generators[module_name].tell(seq, task.penalty_runtime)
                result.extras["compile_failures"] = (
                    result.extras.get("compile_failures", 0) + 1
                )
                continue
            compiled = outcome.value
            feats = self._features_of(module_name, seq, compiled.module, compiled.stats)
            merged = dict(base_without[module_name])
            merged.update(self.model.prefix_stats(module_name, feats))
            # full-config signature: the stored runtime belongs to the whole
            # program, so the key must cover the incumbent on every other
            # module too — a per-module key would resurrect runtimes
            # measured under a stale incumbent
            sig = self.model.signature_merged(merged)
            if self.use_dedup and sig in self._sig_runtime:
                # identical statistics => identical binary: reuse the
                # known runtime as generator feedback, skip profiling
                self.generators[module_name].tell(seq, self._sig_runtime[sig])
                result.extras["dedup_hits"] += 1
                continue
            scored.append((module_name, seq, compiled, provenance, merged, sig))
        span_feat.set(
            scored=len(scored),
            dedup_hits=result.extras["dedup_hits"] - dedup_before,
            compile_failures=result.extras.get("compile_failures", 0)
            - failures_before,
        )
        span_feat.__exit__(None, None, None)
        if not scored:
            return None
        t0 = time.perf_counter()
        span_af = tracer.span("acquisition", candidates=len(scored))
        span_af.__enter__()
        # the whole surviving population scores in two batched array ops —
        # one design-matrix fill for the GP posterior, one for coverage
        merged_all = [s[4] for s in scored]
        mu, sigma = self.model.predict_merged(merged_all)
        coverages = self.model.coverage_many(merged_all)
        if self.use_coverage:
            # two-regime acquisition (§5.3.4): candidates inside the observed
            # feature coverage compete on a damped UCB — extrapolated
            # uncertainty cannot dominate — while a budgeted novelty channel
            # (epsilon of iterations) measures the most promising candidate
            # whose statistics introduce unseen feature values, preferring
            # those generated near the incumbent (DES/GA provenance), so new
            # statistic dimensions keep entering the model's coverage.
            damp = (
                self.coverage_floor
                + (1.0 - self.coverage_floor) * coverages**self.coverage_gamma
            )
            af = -mu + np.sqrt(self.beta) * sigma * damp
            novel_mask = coverages < 1.0 - 1e-9
            if novel_mask.any() and self.rng.random() < self.novelty_epsilon:
                af_novel = -mu + np.sqrt(self.beta) * sigma
                af_novel = af_novel + 0.25 * np.asarray(
                    [1.0 if s[3] in ("des", "ga") else 0.0 for s in scored]
                )
                af_novel[~novel_mask] = -np.inf
                best = int(np.argmax(af_novel))
                self.model_seconds += time.perf_counter() - t0
                span_af.set(channel="novelty")
                span_af.__exit__(None, None, None)
                module_name, seq, compiled, provenance, _pm, _sig = scored[best]
                if self.diagnostics:
                    self._pending_decision = {
                        "channel": "novelty",
                        "pred_mu": float(mu[best]),
                        "pred_sigma": float(sigma[best]),
                        "acq": float(af_novel[best]),
                        "coverage": float(coverages[best]),
                        "coverage_damp": float(damp[best]),
                        "n_candidates": len(scored),
                        "proposed": proposed,
                    }
                return (
                    module_name,
                    seq,
                    compiled,
                    f"novel-{provenance}",
                    float(coverages[best]),
                )
        else:
            af = -mu + np.sqrt(self.beta) * sigma
        self.model_seconds += time.perf_counter() - t0
        span_af.set(channel="ucb")
        span_af.__exit__(None, None, None)
        best = int(np.argmax(af))
        module_name, seq, compiled, provenance, _pm, _sig = scored[best]
        if self.diagnostics:
            self._pending_decision = {
                "channel": "ucb",
                "pred_mu": float(mu[best]),
                "pred_sigma": float(sigma[best]),
                "acq": float(af[best]),
                "coverage": float(coverages[best]),
                "coverage_damp": float(damp[best]) if self.use_coverage else None,
                "n_candidates": len(scored),
                "proposed": proposed,
            }
        return module_name, seq, compiled, provenance, float(coverages[best])

    def _modules_to_consider(self) -> List[str]:
        if self.module_policy == "adaptive":
            return list(self.task.hot_modules)
        # round-robin: one module per iteration
        mods = list(self.task.hot_modules)
        m = mods[self._rr_cursor % len(mods)]
        self._rr_cursor += 1
        return [m]

    def _pick_module_random(self) -> str:
        mods = list(self.task.hot_modules)
        w = np.asarray([self.task.module_weights.get(m, 0.0) + 1e-9 for m in mods])
        return mods[int(self.rng.choice(len(mods), p=w / w.sum()))]

    def _best_feats(self) -> Dict[str, Dict[str, int]]:
        return self._best_feats_cache

    # -- measurement ------------------------------------------------------------------
    def _measure_config(
        self,
        cfg: Dict[str, np.ndarray],
        result: TuningResult,
        winner: str,
        module: Optional[str] = None,
        precompiled: Optional[Tuple[str, CompiledModule]] = None,
        coverage: float = float("nan"),
    ) -> None:
        task = self.task
        compiled: Dict[str, CompiledModule] = {}
        feats_all: Dict[str, Dict[str, int]] = {}
        missing: List[Tuple[str, np.ndarray]] = []
        for name, seq in cfg.items():
            if precompiled is not None and precompiled[0] == name:
                compiled[name] = precompiled[1]
            elif name in self._best_seq and np.array_equal(seq, self._best_seq[name]) and name in self._best_compiled:
                compiled[name] = self._best_compiled[name]
            else:
                missing.append((name, seq))
        status = "ok"
        if missing:  # init/fallback configs: compile every module in one batch
            for (name, _seq), outcome in zip(
                missing, task.compile_batch(missing, outcomes=True)
            ):
                if not outcome.ok:
                    if status == "ok":
                        status = outcome.status
                    continue
                compiled[name] = outcome.value
        per_module_seqs = {name: tuple(task.decode(seq)) for name, seq in cfg.items()}
        if status == "ok":
            for name, seq in cfg.items():
                feats_all[name] = self._features_of(
                    name, seq, compiled[name].module, compiled[name].stats
                )
            runtime, ok = task.measure(compiled, sequences=per_module_seqs)
            if not ok:
                status = task.last_failure or "incorrect"
        else:
            # a module failed to compile: the whole configuration is
            # infeasible — record it and keep searching
            runtime, ok = task.penalty_runtime, False
        idx = len(result.measurements)
        changed = module if module is not None else "all"
        if module is not None:
            seq_names = per_module_seqs[module]
        else:
            # whole-config measurement (init/fallback): the flat field holds
            # every module's passes, not an arbitrary module's presented as
            # representative
            seq_names = tuple(
                p for name in sorted(per_module_seqs) for p in per_module_seqs[name]
            )
        result.measurements.append(
            Measurement(
                index=idx,
                module=changed,
                sequence=seq_names,
                runtime=runtime if ok else float("inf"),
                speedup_vs_o3=task.o3_runtime / runtime if ok else 0.0,
                correct=ok,
                sequences=per_module_seqs,
                status=status,
            )
        )
        result.extras["winner_strategies"].append(winner)
        result.extras["chosen_modules"].append(changed)
        result.extras["chosen_coverage"].append(coverage)
        # one durable slot record per budget slot: what was tried and what
        # came back — the audit trail `repro analyze` reads off an
        # interrupted run (no-op without a WAL; suppressed during replay)
        task.wal_slot(
            {
                "index": idx,
                "module": changed,
                "winner": winner,
                "sequences": {n: list(s) for n, s in per_module_seqs.items()},
                "runtime": runtime if ok else float("inf"),
                "correct": ok,
                "status": status,
                "coverage": coverage,
            }
        )
        if not ok:
            # infeasible (failed compile, crash, or differential mismatch):
            # penalty feedback to the generators so the search moves away,
            # but the observation never enters the cost model, the dedup
            # table, or incumbent selection — and the budget loop continues
            for name, seq in cfg.items():
                self.generators[name].tell(seq, task.penalty_runtime)
            return

        t0 = time.perf_counter()
        self.model.add_observation(feats_all, runtime)
        self.model_seconds += time.perf_counter() - t0
        # dedup table: runtimes are whole-program facts, so the key is the
        # FULL configuration's statistics signature; assignment (not
        # setdefault) keeps the entry at the latest measurement
        self._sig_runtime[self.model.signature(feats_all)] = runtime
        for name, seq in cfg.items():
            self.generators[name].tell(seq, runtime)
        if runtime < self._best_runtime:
            self._best_runtime = runtime
            self._best_seq = {n: np.asarray(s, dtype=int).copy() for n, s in cfg.items()}
            self._best_compiled = dict(compiled)
            self._best_feats_cache = dict(feats_all)
