"""Self-test of the tune benchmark: every per-layer metric lights up on the
workload the README's table names, tracing leaves histories bit-identical,
and the command prints every end-to-end metric with its unit.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)
# as run.py does: idle BLAS threads would count as CPU inside compile_batch
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import bench_tune  # noqa: E402
from bench_layers import PER_LAYER, LayerTrace  # noqa: E402

#: small budgets: enough for CITROEN to leave its initial design
BUDGETS = {"citroen_gsm": 12, "random_mcf": 40, "citroen_x264_j2": 10}


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One untraced and one traced tune per workload at seed 1."""
    out = {}
    for name, budget in BUDGETS.items():
        wl = bench_tune.WORKLOADS[name]
        work = str(tmp_path_factory.mktemp(name))
        plain = bench_tune.run_tune(wl, 1, work, budget=budget)
        trace = LayerTrace()
        with trace:
            run = bench_tune.run_tune(wl, 1, work, trace=trace, budget=budget)
        out[name] = (plain, run, trace)
    return out


def test_benchmark_json_lists_the_metrics_the_code_prints():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(bench_tune.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
    sys.path.insert(0, BENCH)
    import run

    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS


@pytest.mark.parametrize("name", list(BUDGETS))
def test_traced_history_is_bit_identical(traced, name):
    plain, run, trace = traced[name]
    assert plain.correct and run.correct
    assert run.digest == plain.digest
    assert trace.restored


@pytest.mark.parametrize("name", list(BUDGETS))
def test_every_per_layer_metric_is_reported(traced, name):
    layers = traced[name][1].layers
    assert set(layers) == {m for m, _u, _b in PER_LAYER} - {"bench.tracing_overhead_s"}
    assert layers["compiler.run_opt.calls"] > 0
    assert layers["eval_engine.compile_batch.s"] > 0
    assert layers["task.measure.calls"] == BUDGETS[name]
    assert layers["vm.run.calls"] > 0 and layers["vm.steps"] > 0


def test_compile_layers_light_up_on_citroen_gsm(traced):
    layers = traced["citroen_gsm"][1].layers
    passes = [v for m, v in layers.items() if m.startswith("compiler.pass.")]
    assert len(passes) == 41 and sum(passes) > 0
    assert layers["compiler.clone.s"] > 0
    assert layers["artifacts.ir_fingerprint.calls"] > 0
    assert layers["artifacts.harvest.s"] > 0
    assert 0 < layers["eval_engine.cores_used"] <= 1.05  # jobs=1
    assert layers["generator.candidates"] > 0 and layers["generator.ask.s"] > 0
    assert layers["cost_model.fit.s"] > 0 and layers["cost_model.refits"] > 0


def test_surrogate_layers_are_zero_on_random_mcf(traced):
    layers = traced["random_mcf"][1].layers
    for name, _unit, _better in PER_LAYER:
        if name.startswith(("cost_model.", "generator.", "citroen.")):
            assert layers[name] == 0, name
    assert layers["profiler.measure.s"] > 0
    assert layers["profiler.memo_hit_ratio"] > 0


def test_write_path_only_on_citroen_x264_j2(traced):
    budget = BUDGETS["citroen_x264_j2"]
    layers = traced["citroen_x264_j2"][1].layers
    # one `measure` record per live measurement, one `slot` record per slot
    live = round(layers["task.measure.calls"] * (1 - layers["task.measure_cache_hit_ratio"]))
    assert layers["wal.append.calls"] == budget + live
    assert layers["recorder.write_event.s"] > 0
    assert layers["recorder.run_dir_bytes"] > 0
    for name in ("citroen_gsm", "random_mcf"):
        other = traced[name][1].layers
        assert other["wal.append.calls"] == 0
        assert other["recorder.run_dir_bytes"] == 0


def test_command_prints_every_end_to_end_metric_with_its_unit():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "random_mcf",
         "--seed", "3", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    for metric in _benchmark_json()["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert reported["value"] > 0


def test_command_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "random_mcf",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
