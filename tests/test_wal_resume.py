"""Durable-session tests: WAL, crash-safe recorder, checkpoint/resume.

The determinism contract under test: a seeded tune killed after its k-th
measurement and resumed via ``repro tune --resume`` produces a final
history bit-identical (everything except wall-clock ``timing``) to the
uninterrupted run.  Kills are simulated two ways — surgically (truncate
the WAL exactly where a SIGKILL would have, which is fast and covers many
kill points) and for real (a SIGTERM'd subprocess, which also exercises
the graceful-shutdown path end to end).
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import cbench_program
from repro.cli import main
from repro.core import AutotuningTask, Citroen
from repro.core.wal import WAL_SCHEMA, WriteAheadLog, read_wal, split_wal
from repro.obs.analysis import analyze_run, load_run
from repro.obs.recorder import RunRecorder, read_events

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _result_sans_timing(run_dir):
    data = json.loads((Path(run_dir) / "result.json").read_text())
    data.pop("timing", None)
    return data


def _tune(run_dir, *extra, program="security_sha", budget=14, seed=7, seq_length=8):
    return main(
        [
            "tune",
            program,
            "--budget",
            str(budget),
            "--seed",
            str(seed),
            "--seq-length",
            str(seq_length),
            "--trace-out",
            str(run_dir),
            "--log-level",
            "warning",
            *extra,
        ]
    )


def _simulate_kill(control_dir, killed_dir, k):
    """Clone a finished run as if SIGKILL'd right after measurement k.

    The WAL is cut immediately after the k-th ``measure`` record (the slot
    record that follows it in a live run is dropped too — exactly the
    window the --kill-after-iter hook dies in) and the finalized artifacts
    a killed process never writes are removed."""
    shutil.copytree(control_dir, killed_dir)
    (Path(killed_dir) / "result.json").unlink()
    (Path(killed_dir) / "metrics.json").unlink()
    wal_path = Path(killed_dir) / "wal.jsonl"
    kept, measures = [], 0
    for line in wal_path.read_text().splitlines():
        rec = json.loads(line)
        if rec.get("type") == "measure":
            if measures >= k:
                break
            measures += 1
        elif rec.get("type") == "slot" and measures >= k:
            break
        kept.append(line)
    assert measures == k, f"control run has fewer than {k} measurements"
    wal_path.write_text("\n".join(kept) + "\n")


# -- the WAL itself ------------------------------------------------------------


class TestWriteAheadLog:
    def test_roundtrip_and_header(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with WriteAheadLog(path) as wal:
            wal.append({"type": "measure", "n": 1, "value": 0.5, "ok": True})
            wal.append({"type": "slot", "index": 0, "module": "m"})
        first = json.loads(path.read_text().splitlines()[0])
        assert first == {"type": "wal", "schema": WAL_SCHEMA}
        records = read_wal(path)  # header excluded
        assert [r["type"] for r in records] == ["measure", "slot"]
        measures, slots = split_wal(records)
        assert len(measures) == 1 and len(slots) == 1

    def test_torn_tail_is_skipped(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with WriteAheadLog(path) as wal:
            wal.append({"type": "measure", "n": 1, "value": 0.5, "ok": True})
        with open(path, "a") as fh:
            fh.write('{"type": "measure", "n": 2, "val')  # killed mid-write
        assert [r["n"] for r in read_wal(path)] == [1]

    def test_resume_terminates_torn_line(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with WriteAheadLog(path) as wal:
            wal.append({"type": "measure", "n": 1, "value": 0.5, "ok": True})
        with open(path, "a") as fh:
            fh.write('{"torn')
        with WriteAheadLog(path, resume=True) as wal:
            wal.append({"type": "measure", "n": 2, "value": 0.4, "ok": True})
        assert [r["n"] for r in read_wal(path)] == [1, 2]

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_wal(tmp_path / "nope.jsonl") == []

    def test_fresh_open_truncates_stale_log(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with WriteAheadLog(path) as wal:
            wal.append({"type": "measure", "n": 1, "value": 0.5, "ok": True})
        with WriteAheadLog(path):  # a new run in the same dir starts clean
            pass
        assert read_wal(path) == []


# -- crash-safe recorder -------------------------------------------------------


class TestRecorderCrashSafety:
    def test_atomic_writes_leave_no_tmp(self, tmp_path):
        with RunRecorder(tmp_path / "run", manifest={"program": "p"}) as rec:
            rec.write_result({"n_measurements": 0})
            rec.write_metrics()
        names = {p.name for p in (tmp_path / "run").iterdir()}
        assert not any(n.endswith(".tmp") for n in names)
        assert {"manifest.json", "metrics.json", "result.json"} <= names

    def test_leftover_tmp_is_recoverable(self, tmp_path):
        run = tmp_path / "run"
        with RunRecorder(run, manifest={"program": "p"}) as rec:
            rec.tracer.event("e1")
        # a kill between serialize and os.replace leaves only the tmp
        (run / "result.json.tmp").write_text(
            json.dumps({"program": "p", "tuner": "t", "measurements": []})
        )
        data = load_run(run)
        assert data.result is not None and data.result.program == "p"

    def test_resume_appends_events_across_torn_seam(self, tmp_path):
        run = tmp_path / "run"
        with RunRecorder(run, manifest={"program": "p", "seed": 1}) as rec:
            rec.tracer.event("before")
        with open(run / "events.jsonl", "a") as fh:
            fh.write('{"type": "span", "name": "torn-by-')
        with RunRecorder(run, resume=True) as rec:
            assert rec.manifest["program"] == "p"  # original manifest kept
            rec.tracer.event("after")
        names = [e.get("name") for e in read_events(run / "events.jsonl")]
        assert "before" in names and "after" in names


# -- kill-and-resume determinism ----------------------------------------------


@pytest.fixture(scope="module")
def control_run(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("durable") / "control"
    assert _tune(run_dir) == 0
    return run_dir


@pytest.fixture(scope="module")
def baseline_control_run(tmp_path_factory):
    """A BOCA tune whose history revisits a configuration: slot 17 is
    served by the task's verdict cache, not measured."""
    run_dir = tmp_path_factory.mktemp("durable-boca") / "control"
    assert _tune(run_dir, "--tuner", "boca", budget=24, seed=3, seq_length=10) == 0
    return run_dir


class TestKillAndResume:
    @pytest.mark.parametrize("k", [1, 5, 9])
    def test_resume_is_bit_identical(self, control_run, tmp_path, k):
        killed = tmp_path / f"killed-{k}"
        _simulate_kill(control_run, killed, k)
        assert main(["tune", "--resume", str(killed), "--log-level", "warning"]) == 0
        assert _result_sans_timing(killed) == _result_sans_timing(control_run)

    @pytest.mark.parametrize("k", [9, 20])
    def test_baseline_resume_is_bit_identical(self, baseline_control_run, tmp_path, k):
        """Killed before the cache hit, the resumed run serves it live;
        killed after it, the replay must rebuild the cache and serve it
        without consuming a WAL record."""
        metrics = json.loads((baseline_control_run / "metrics.json").read_text())
        assert metrics["counters"]["task.measure_cache_hits"] > 0
        killed = tmp_path / f"killed-{k}"
        _simulate_kill(baseline_control_run, killed, k)
        assert main(["tune", "--resume", str(killed), "--log-level", "warning"]) == 0
        resumed = _result_sans_timing(killed)
        assert resumed["tuner"] == "boca"
        assert resumed == _result_sans_timing(baseline_control_run)

    def test_resume_with_faults_is_bit_identical(self, tmp_path):
        fault_flags = (
            "--inject-faults", "crash,miscompile",
            "--fault-rate", "0.15",
            "--fault-seed", "2",
        )
        control = tmp_path / "control"
        assert _tune(control, *fault_flags, program="telecom_gsm", seed=4) == 0
        killed = tmp_path / "killed"
        _simulate_kill(control, killed, 6)
        assert main(["tune", "--resume", str(killed), "--log-level", "warning"]) == 0
        assert _result_sans_timing(killed) == _result_sans_timing(control)

    def test_resume_of_completed_run_is_idempotent(self, control_run, tmp_path):
        clone = tmp_path / "clone"
        shutil.copytree(control_run, clone)
        assert main(["tune", "--resume", str(clone), "--log-level", "warning"]) == 0
        assert _result_sans_timing(clone) == _result_sans_timing(control_run)

    def test_resume_needs_manifest(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(SystemExit):
            main(["tune", "--resume", str(tmp_path / "empty")])

    def test_tune_requires_program_without_resume(self):
        with pytest.raises(SystemExit):
            main(["tune", "--budget", "2"])


@pytest.mark.parametrize("seed", [3, 11])
def test_replay_reconstructs_gp_posterior(tmp_path, seed):
    """WAL replay rebuilds the incremental GP's posterior to <= 1e-8.

    The live tuner conditions its GP one observation at a time; the
    resumed tuner reconstructs the same posterior by re-executing the loop
    with WAL-served verdicts.  Probing both models at the same point must
    agree to numerical noise."""
    budget = 12
    wal_path = tmp_path / "wal.jsonl"
    with WriteAheadLog(wal_path) as wal:
        with AutotuningTask(
            cbench_program("security_sha"), seed=seed, seq_length=8, wal=wal
        ) as task:
            tuner = Citroen(task, seed=seed)
            live = tuner.tune(budget)

    with AutotuningTask(
        cbench_program("security_sha"), seed=seed, seq_length=8
    ) as task2:
        n = task2.start_replay(read_wal(wal_path))
        assert 0 < n <= budget
        tuner2 = Citroen(task2, seed=seed)
        replayed = tuner2.tune(budget)
        assert not task2.replaying  # the stream fully drained

    a, b = live.to_dict(), replayed.to_dict()
    a.pop("timing"), b.pop("timing")
    assert a == b

    # probe the posteriors at the merged -O3 statistics point
    merged = {}
    for name in (m.name for m in task.program.modules):
        merged.update(tuner.model.prefix_stats(name, task.o3_stats(name)))
    mu1, s1 = tuner.model.predict_merged([merged])
    mu2, s2 = tuner2.model.predict_merged([merged])
    assert abs(float(mu1[0]) - float(mu2[0])) <= 1e-8
    assert abs(float(s1[0]) - float(s2[0])) <= 1e-8


# -- graceful shutdown (real signals, real process) ----------------------------


class TestGracefulShutdown:
    def test_sigterm_leaves_loadable_analyzable_resumable_dir(self, tmp_path):
        run_dir = tmp_path / "sigterm-run"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "tune", "security_sha",
                "--budget", "500", "--seed", "5", "--seq-length", "8",
                "--trace-out", str(run_dir), "--log-level", "warning",
            ],
            env={**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")},
        )
        # wait until the WAL proves a few measurements completed
        wal_path = run_dir / "wal.jsonl"
        deadline = time.time() + 60
        while time.time() < deadline:
            if wal_path.exists() and len(read_wal(wal_path)) >= 6:
                break
            time.sleep(0.05)
        else:
            proc.kill()
            pytest.fail("tune never reached 6 WAL records")
        proc.send_signal(signal.SIGTERM)
        rc = proc.wait(timeout=60)
        assert rc == 128 + signal.SIGTERM  # 143: the distinct interrupted code

        data = load_run(run_dir)  # loadable
        assert data.interrupted and data.resumable
        assert data.result is not None  # graceful stop still finalized
        assert data.result.extras.get("interrupted") is True
        assert 0 < len(data.result.measurements) < 500
        assert data.wal_measurements >= len(data.result.measurements)

        report = analyze_run(run_dir)  # analyzable
        assert "interrupted run" in report
        assert "--resume" in report

    def test_stop_flag_interrupts_tuner_loop(self):
        with AutotuningTask(
            cbench_program("security_sha"), seed=1, seq_length=8
        ) as task:
            task.request_stop()
            result = Citroen(task, seed=1).tune(10)
        assert result.measurements == []
        assert result.interrupted

    def test_stop_flag_interrupts_baseline_loop(self):
        from repro import RandomSearchTuner

        with AutotuningTask(
            cbench_program("security_sha"), seed=1, seq_length=8
        ) as task:
            task.request_stop()
            result = RandomSearchTuner(task, seed=1).tune(10)
        assert result.measurements == []
        assert result.interrupted


# -- interrupted-run analysis --------------------------------------------------


def test_analyze_interrupted_run_reports_progress(control_run, tmp_path, capsys):
    killed = tmp_path / "killed"
    _simulate_kill(control_run, killed, 5)
    report = analyze_run(killed)
    assert "interrupted run" in report
    assert "5 measurement(s) completed per WAL" in report
    assert f"--resume {killed}" in report
    data = load_run(killed)
    assert data.interrupted and data.resumable and data.wal_measurements == 5
    # the CLI path must not crash on the missing result.json either
    assert main(["analyze", str(killed)]) == 0
    capsys.readouterr()
