"""Search-introspection tests: decision records, provenance accounting,
and surrogate-calibration statistics (repro.obs.diagnostics)."""

import math

import pytest

from repro import AutotuningTask, Citroen, cbench_program
from repro.core.generator import CandidateGenerator, base_strategy
from repro.obs import RunRecorder, Tracer, read_events
from repro.obs.diagnostics import (
    attribution_table,
    calibration,
    calibration_table,
    decision_records,
    generator_attribution,
)


def _tiny_task(**kw):
    return AutotuningTask(cbench_program("security_sha"), seed=0, seq_length=8, **kw)


@pytest.fixture(scope="module")
def diagnosed_run():
    """One seeded tune with diagnostics on, traced, shared by the tests."""
    tracer = Tracer()
    with _tiny_task(tracer=tracer) as task:
        tuner = Citroen(task, seed=1)
        result = tuner.tune(16)
    return result, tuner, tracer


class TestBaseStrategy:
    def test_generator_labels_map_to_themselves(self):
        assert base_strategy("des") == "des"
        assert base_strategy("ga") == "ga"
        assert base_strategy("random") == "random"

    def test_novelty_prefix_is_stripped(self):
        assert base_strategy("novel-des") == "des"
        assert base_strategy("novel-random") == "random"

    def test_non_generator_labels_map_to_none(self):
        assert base_strategy("init") is None
        assert base_strategy("random-fallback") is None
        assert base_strategy("") is None
        assert base_strategy(None) is None


class TestDecisionRecords:
    def test_one_record_per_bo_iteration(self, diagnosed_run):
        result, tuner, _ = diagnosed_run
        records = decision_records(result)
        # every measurement after the initial design is one decision
        assert len(records) == len(result.measurements) - tuner.n_init
        indices = [r["measurement"] for r in records]
        assert indices == list(range(tuner.n_init, len(result.measurements)))

    def test_provenance_matches_measurement_history(self, diagnosed_run):
        result, _, _ = diagnosed_run
        winners = result.extras["winner_strategies"]
        for rec in decision_records(result):
            assert rec["provenance"] == winners[rec["measurement"]]
            assert rec["strategy"] == base_strategy(rec["provenance"])

    def test_records_carry_prediction_and_realization(self, diagnosed_run):
        result, _, _ = diagnosed_run
        scored = [
            r for r in decision_records(result) if r["channel"] != "fallback"
        ]
        assert scored, "expected at least one model-driven decision"
        for rec in scored:
            assert math.isfinite(rec["pred_mu"])
            assert rec["pred_sigma"] > 0.0
            assert math.isfinite(rec["acq"])
            assert 0.0 <= rec["coverage"] <= 1.0
            if rec["status"] == "ok":
                assert math.isfinite(rec["realized_z"])
            # the realized runtime mirrors the Measurement it came from
            meas = result.measurements[rec["measurement"]]
            assert rec["runtime"] == meas.runtime
            assert rec["improved"] in (True, False)

    def test_records_flow_to_tracer_events(self, diagnosed_run):
        result, _, tracer = diagnosed_run
        live = decision_records(result)
        via_events = decision_records(tracer.events())
        assert len(via_events) == len(live)
        assert [r["measurement"] for r in via_events] == [
            r["measurement"] for r in live
        ]

    def test_source_dispatch_none_and_empty(self):
        assert decision_records(None) == []
        assert decision_records([]) == []
        # bare record lists pass through
        rec = {"provenance": "des", "runtime": 1.0}
        assert decision_records([rec]) == [rec]


class TestProvenanceAccounting:
    def test_wins_sum_to_generator_won_measurements(self, diagnosed_run):
        result, tuner, _ = diagnosed_run
        summary = result.extras["provenance"]
        generator_won = [
            w
            for w in result.extras["winner_strategies"]
            if base_strategy(w) is not None
        ]
        assert sum(s["wins"] for s in summary.values()) == len(generator_won)
        for name in ("des", "ga", "random"):
            expected = sum(1 for w in generator_won if base_strategy(w) == name)
            assert summary[name]["wins"] == expected

    def test_proposals_match_decision_record_totals(self, diagnosed_run):
        result, _, _ = diagnosed_run
        summary = result.extras["provenance"]
        proposed = {}
        for rec in decision_records(result):
            for prov, n in rec["proposed"].items():
                proposed[prov] = proposed.get(prov, 0) + n
        # generators also propose during iterations, and only then
        assert {k: v["proposals"] for k, v in summary.items()} == proposed

    def test_improvements_never_exceed_wins(self, diagnosed_run):
        result, _, _ = diagnosed_run
        for counts in result.extras["provenance"].values():
            assert 0 <= counts["improvements"] <= counts["wins"]
            assert counts["wins"] <= counts["proposals"]

    def test_counters_untouched_when_diagnostics_disabled(self):
        with _tiny_task() as task:
            tuner = Citroen(task, seed=1, diagnostics=False)
            result = tuner.tune(12)
        assert "decisions" not in result.extras
        assert "provenance" not in result.extras
        for gen in tuner.generators.values():
            for counts in gen.provenance_stats().values():
                assert counts == {"proposals": 0, "wins": 0, "improvements": 0}
        # and no citroen.* diagnostics metrics were minted (the citroen.gp.*
        # refit/extend counters track the surrogate engine itself and exist
        # whether or not diagnostics are on, like the task.* counters)
        assert not any(
            name.startswith("citroen.") and not name.startswith("citroen.gp.")
            for name in task.metrics.names()
        )

    def test_histories_bit_identical_with_and_without_diagnostics(self):
        def run(diag):
            with _tiny_task() as task:
                return Citroen(task, seed=1, diagnostics=diag).tune(12)

        on, off = run(True), run(False)
        assert [m.runtime for m in on.measurements] == [
            m.runtime for m in off.measurements
        ]
        assert on.best_config == off.best_config

    def test_generator_credit_requires_tracking(self):
        gen = CandidateGenerator(4, 5, seed=0, track_provenance=False)
        gen.ask(3)
        gen.credit_win("des")
        gen.credit_improvement("des")
        assert all(
            c == {"proposals": 0, "wins": 0, "improvements": 0}
            for c in gen.provenance_stats().values()
        )
        tracked = CandidateGenerator(4, 5, seed=0, track_provenance=True)
        out = tracked.ask(3)
        assert sum(
            c["proposals"] for c in tracked.provenance_stats().values()
        ) == len(out)
        tracked.credit_win("novel-ga")
        assert tracked.provenance_stats()["ga"]["wins"] == 1
        tracked.credit_win("random-fallback")  # not a generator label: ignored
        assert sum(c["wins"] for c in tracked.provenance_stats().values()) == 1


class TestCalibration:
    def test_perfect_predictions_have_zero_rmse_full_coverage(self):
        records = [
            {
                "provenance": "des",
                "runtime": 1.0,
                "pred_mu": float(i),
                "pred_sigma": 0.5,
                "realized_z": float(i),
            }
            for i in range(6)
        ]
        cal = calibration(records)
        assert cal["n"] == 6
        assert cal["rmse"] == 0.0
        assert cal["spearman"] == pytest.approx(1.0)
        assert cal["coverage_1s"] == 1.0
        assert cal["coverage_2s"] == 1.0

    def test_known_errors_produce_known_statistics(self):
        # errors of +1 with sigma 0.5: nothing within 1s or 2s, rmse 1
        records = [
            {
                "provenance": "ga",
                "runtime": 1.0,
                "pred_mu": float(i),
                "pred_sigma": 0.4,
                "realized_z": float(i) + 1.0,
            }
            for i in range(4)
        ]
        cal = calibration(records)
        assert cal["rmse"] == pytest.approx(1.0)
        assert cal["coverage_1s"] == 0.0
        assert cal["coverage_2s"] == 0.0
        assert cal["rmse_first_half"] == pytest.approx(1.0)
        assert cal["rmse_second_half"] == pytest.approx(1.0)
        assert cal["drift"] == pytest.approx(0.0)

    def test_anticorrelated_ranking_detected(self):
        records = [
            {
                "provenance": "des",
                "runtime": 1.0,
                "pred_mu": float(i),
                "pred_sigma": 1.0,
                "realized_z": float(-i),
            }
            for i in range(5)
        ]
        assert calibration(records)["spearman"] == pytest.approx(-1.0)

    def test_unscored_records_are_ignored(self):
        records = [
            {"provenance": "des", "runtime": 1.0, "pred_mu": None,
             "pred_sigma": None, "realized_z": None},
            {"provenance": "des", "runtime": float("inf"), "pred_mu": 0.0,
             "pred_sigma": 1.0, "realized_z": None},
        ]
        cal = calibration(records)
        assert cal["n"] == 0
        assert math.isnan(cal["rmse"])

    def test_live_run_is_reasonably_calibrated(self, diagnosed_run):
        result, _, _ = diagnosed_run
        cal = calibration(result)
        assert cal["n"] > 0
        assert math.isfinite(cal["rmse"])
        assert 0.0 <= cal["coverage_1s"] <= cal["coverage_2s"] <= 1.0
        # the statistics-based surrogate should at least rank candidates
        # positively on this seeded workload (the Table 5.1 claim)
        assert cal["spearman"] > 0.0

    def test_tables_render(self, diagnosed_run):
        result, _, _ = diagnosed_run
        cal_text = calibration_table(result)
        assert "rmse" in cal_text and "sigma" in cal_text
        att_text = attribution_table(result)
        for name in ("des", "ga", "random"):
            assert name in att_text
        assert "(no decision records" in calibration_table([])
        assert "(no provenance records" in attribution_table([])


class TestGeneratorAttribution:
    def test_offline_equals_live(self, diagnosed_run, tmp_path):
        result, _, tracer = diagnosed_run
        rec = RunRecorder(tmp_path / "run")
        for event in tracer.events():
            rec.write_event(event)
        rec.close()
        offline = generator_attribution(read_events(tmp_path / "run" / "events.jsonl"))
        live = generator_attribution(result)
        assert offline == live

    def test_win_rate_definition(self):
        records = [
            {"provenance": "des", "strategy": "des", "runtime": 1.0,
             "proposed": {"des": 4, "ga": 4}, "improved": True},
            {"provenance": "novel-ga", "strategy": "ga", "runtime": 1.0,
             "proposed": {"des": 4, "ga": 4}, "improved": False},
        ]
        att = generator_attribution(records)
        assert att["des"] == {
            "proposals": 8, "wins": 1, "improvements": 1, "win_rate": 1 / 8,
        }
        assert att["ga"]["wins"] == 1
        assert att["ga"]["improvements"] == 0
