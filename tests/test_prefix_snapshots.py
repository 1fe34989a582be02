"""Pass-prefix snapshots: a compile resumed from a stored prefix must equal
a cold compile, on every workload module.

Also covers the store's admission rule and bound, that it never hands out
its own modules, the trace/verifier bypass, its ownership by one process
(pickled and forked copies start empty), concurrent use from threads, and
the counters a task reports.  The last test checks that compile output
does not depend on the string hash seed.
"""

import gc
import json
import os
import pickle
import random
import subprocess
import sys
import threading
import weakref
from functools import partial
from pathlib import Path

import pytest

from repro import AutotuningTask, CompileEngine, cbench_names, cbench_program
from repro import spec_names, spec_program
from repro.compiler import opt_tool
from repro.compiler.opt_tool import SNAPSHOT_DEPTHS, PrefixSnapshots, run_opt
from repro.compiler.pass_manager import PassManager, PassTrace
from repro.compiler.pipelines import SEARCH_PASSES
from repro.compiler.textual import print_module
from repro.machine.platforms import get_platform

SRC = str(Path(__file__).resolve().parents[1] / "src")
TARGET = get_platform("arm-a57").target_info()


@pytest.fixture(autouse=True)
def _no_chaos(monkeypatch):
    # an injector would keep the compiles on threads
    for var in ("REPRO_INJECT_FAULTS", "REPRO_FAULT_RATE", "REPRO_FAULT_SEED",
                "REPRO_FAULT_HANG_SECONDS"):
        monkeypatch.delenv(var, raising=False)


def _programs():
    return [cbench_program(n) for n in cbench_names()] + [
        spec_program(n) for n in spec_names()
    ]


def _output(cr):
    return print_module(cr.module), cr.stats_json()


def _family(rng, length=16, parents=2, children=3):
    """Seeded sequences plus children sharing a parent's prefix up to a
    snapshot depth, with the rest mutated."""
    seqs = []
    for _ in range(parents):
        parent = [rng.choice(SEARCH_PASSES) for _ in range(length)]
        seqs.append(parent)
        for _ in range(children):
            cut = rng.choice(SNAPSHOT_DEPTHS)
            seqs.append(parent[:cut] + [rng.choice(SEARCH_PASSES)
                                        for _ in range(length - cut)])
    return seqs


def test_resumed_compiles_equal_cold_on_every_workload_module():
    store = PrefixSnapshots()
    rng = random.Random(17)
    n_modules = 0
    for program in _programs():
        for module in program.modules:
            n_modules += 1
            source_text = print_module(module)
            seqs = _family(rng)
            # twice over: the first pass admits prefixes, the second hits
            for seq in seqs + seqs:
                got = run_opt(module, seq, target=TARGET, snapshots=store)
                cold = run_opt(module, seq, target=TARGET)
                assert _output(got) == _output(cold), (program.name, module.name, seq)
                assert got.sequence == seq
            assert print_module(module) == source_text
    stats = store.stats()
    assert n_modules > 20
    assert stats["hits"] > n_modules
    assert stats["lookups"] == 2 * n_modules * len(seqs)
    assert 0 < stats["entries"] <= opt_tool.SNAPSHOT_CAPACITY


def test_prefix_is_stored_on_its_second_sighting_only():
    module = cbench_program("telecom_gsm").modules[0]
    store = PrefixSnapshots()
    base = list(SEARCH_PASSES[:16])
    run_opt(module, base, target=TARGET, snapshots=store)
    assert store.stats()["captures"] == 0
    run_opt(module, base[:12] + ["dce"] * 4, target=TARGET, snapshots=store)
    assert store.stats()["captures"] == 3  # depths 4, 8 and 12
    run_opt(module, base[:12] + ["gvn"] * 4, target=TARGET, snapshots=store)
    stats = store.stats()
    assert (stats["hits"], stats["skipped_passes"], stats["captures"]) == (1, 12, 3)
    # another target is another key
    other = get_platform("amd-x86").target_info()
    run_opt(module, base, target=other, snapshots=store)
    assert store.stats()["hits"] == 1


def test_mutating_a_result_does_not_change_a_later_hit():
    module = cbench_program("telecom_gsm").get_module("lpc")
    store = PrefixSnapshots()
    # no promotion in the sequence, so the extra mem2reg below shows
    seq = ["simplifycfg", "instcombine", "dce", "early-cse", "reassociate",
           "dse", "gvn", "licm", "adce", "dce"]
    for _ in range(2):
        run_opt(module, seq, target=TARGET, snapshots=store)
    hit = run_opt(module, seq, target=TARGET, snapshots=store)
    assert store.stats()["hits"] == 1
    # run more passes in place on the returned module, and on its stats
    PassManager(["mem2reg", "loop-unroll", "instcombine", "gvn"], target=TARGET).run(
        hit.module, hit.stats
    )
    again = run_opt(module, seq, target=TARGET, snapshots=store)
    assert store.stats()["hits"] == 2
    assert _output(again) == _output(run_opt(module, seq, target=TARGET))


def test_store_never_exceeds_its_bound(monkeypatch):
    monkeypatch.setattr(opt_tool, "SNAPSHOT_CAPACITY", 3)
    module = cbench_program("security_sha").modules[0]
    store = PrefixSnapshots()
    rng = random.Random(5)
    for _ in range(12):
        seq = [rng.choice(SEARCH_PASSES) for _ in range(8)]
        for _ in range(2):
            run_opt(module, seq, target=TARGET, snapshots=store)
            assert store.stats()["entries"] <= 3
    stats = store.stats()
    assert stats["captures"] > 3 and stats["entries"] == 3


def test_traced_and_verified_compiles_bypass_the_store():
    module = cbench_program("security_sha").modules[0]
    store = PrefixSnapshots()
    seq = list(SEARCH_PASSES[:8])
    run_opt(module, seq, target=TARGET, trace=PassTrace(), snapshots=store)
    run_opt(module, seq, target=TARGET, verify_each=True, snapshots=store)
    assert store.stats()["lookups"] == 0


def test_unknown_pass_is_rejected_before_any_work():
    store = PrefixSnapshots()
    module = cbench_program("security_sha").modules[0]
    with pytest.raises(KeyError):
        run_opt(module, ["mem2reg"] * 4 + ["no-such-pass"], snapshots=store)
    assert store.stats()["lookups"] == 0


def _task(jobs=1, **kw):
    return AutotuningTask(
        cbench_program("telecom_gsm"), platform="arm-a57", seed=0,
        seq_length=16, jobs=jobs, **kw,
    )


def _warm(task):
    items = [("lpc", list(range(12)) + [i, i, i, i]) for i in range(4)]
    task.compile_batch(items)
    assert task.snapshots.stats()["captures"] > 0


def test_pickled_task_compile_function_carries_no_snapshots():
    with _task() as task:
        _warm(task)
        clone = pickle.loads(pickle.dumps(task.engine.compile_fn))
    stores = [a for a in clone.args if isinstance(a, PrefixSnapshots)]
    assert len(stores) == 1
    assert stores[0].stats() == dict.fromkeys(stores[0].stats(), 0)


def _compile_and_report(store, module, name, seq):
    cr = run_opt(module, [SEARCH_PASSES[i] for i in seq], target=TARGET, snapshots=store)
    return _output(cr), store.stats()


def test_pool_workers_compile_without_the_store():
    store = PrefixSnapshots()
    module = cbench_program("telecom_gsm").get_module("lpc")
    prefix = list(range(12))
    for tail in (0, 1):
        _compile_and_report(store, module, "lpc", prefix + [tail] * 4)
    before = store.stats()
    assert before["entries"] == 3
    items = [("lpc", prefix + [k] * 4) for k in range(2, 8)]
    with CompileEngine(
        partial(_compile_and_report, store, module), jobs=2, executor="process"
    ) as engine:
        reports = engine.compile_batch(items)
    assert engine.kind == "process"
    for (_, seq), (output, worker_stats) in zip(items, reports):
        # the forked copy is never looked up, let alone filled
        assert worker_stats == before
        cold = run_opt(module, [SEARCH_PASSES[i] for i in seq], target=TARGET)
        assert output == _output(cold)
    assert store.stats() == before


def test_store_serves_only_the_process_that_made_it(monkeypatch):
    module = cbench_program("telecom_gsm").get_module("lpc")
    seq = [SEARCH_PASSES[i] for i in range(16)]
    store = PrefixSnapshots()
    for _ in range(2):
        run_opt(module, seq, target=TARGET, snapshots=store)
    before = store.stats()
    assert before["entries"] == 3
    copy = pickle.loads(pickle.dumps(store))
    assert copy.stats() == dict.fromkeys(before, 0)
    monkeypatch.setattr(opt_tool.os, "getpid", lambda: -1)  # another process
    for target_store in (store, copy):
        out = run_opt(module, seq, target=TARGET, snapshots=target_store)
        assert _output(out) == _output(run_opt(module, seq, target=TARGET))
    assert store.stats() == before
    assert copy.stats() == dict.fromkeys(before, 0)


def test_concurrent_threads_share_one_store():
    module = cbench_program("telecom_gsm").get_module("lpc")
    rng = random.Random(11)
    seqs = _family(rng, parents=3, children=4)
    cold = {tuple(s): _output(run_opt(module, s, target=TARGET)) for s in seqs}
    store = PrefixSnapshots()
    errors = []

    def worker(order):
        try:
            for seq in order:
                got = run_opt(module, seq, target=TARGET, snapshots=store)
                if _output(got) != cold[tuple(seq)]:
                    errors.append(seq)
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=worker, args=(random.Random(i).sample(seqs, len(seqs)) * 2,))
            for i in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    stats = store.stats()
    assert stats["lookups"] == 6 * 2 * len(seqs)
    assert 0 < stats["hits"] <= stats["lookups"]


def test_task_reports_snapshot_counters():
    with _task() as task:
        _warm(task)
        task.compile_batch([("lpc", list(range(12)) + [7] * 4)])
        timing = task.timing_breakdown()
        flat = task.metrics.flat()
    stats = task.snapshots.stats()
    assert stats["hits"] >= 1
    for key, value in stats.items():
        assert timing[f"snapshot_{key}"] == value
        assert flat[f"compiler.snapshot_{key}"] == value


def test_unclosed_tasks_and_their_snapshots_are_collected():
    # tasks are often built in a loop and never closed; each one, with the
    # snapshots its store holds, must stay reachable by the collector
    frozen = gc.get_freeze_count()
    refs = []
    for _ in range(3):
        task = _task()
        _warm(task)
        assert task.snapshots.stats()["entries"] > 0
        refs.append((weakref.ref(task), weakref.ref(task.snapshots)))
        del task
    assert gc.get_freeze_count() == frozen
    gc.collect()
    assert all(t() is None and s() is None for t, s in refs)


#: seeded 16-pass compiles whose output differed between string hash
#: seeds 0 and 1 when loops were found in set order
_HASH_SENSITIVE = [
    ("automotive_susan_c", "susan_c", "mem2reg memcpyopt function-attrs bdce instsimplify reassociate tailcallelim loop-unswitch loop-rotate instsimplify ipsccp correlated-propagation gvn loop-simplify memcpyopt tailcallelim"),
    ("consumer_bzip2d", "bz_rle", "dse licm constmerge instcombine inline sroa function-attrs div-rem-pairs div-rem-pairs simplifycfg instsimplify dse tailcallelim constmerge constmerge licm"),
    ("consumer_bzip2d", "bz_rle", "dce reassociate sroa loop-unswitch mem2reg loop-simplify dse inline sink loop-unroll mergefunc aggressive-instcombine gvn sink ipsccp instcombine"),
    ("consumer_tiff2bw", "tiff_scale", "constmerge sroa loop-vectorize aggressive-instcombine div-rem-pairs reassociate div-rem-pairs inline memcpyopt sroa slp-vectorizer licm early-cse licm tailcallelim loop-rotate"),
    ("network_patricia", "patricia", "loop-deletion loop-vectorize instsimplify loop-unroll mem2reg loop-rotate licm indvars gvn indvars inline loop-unroll lcssa sink deadargelim inline"),
    ("telecom_adpcm_c", "adpcm_coder", "loop-idiom loop-unroll correlated-propagation function-attrs loop-idiom div-rem-pairs sroa simplifycfg loop-simplify loop-vectorize loop-simplify gvn loop-rotate sink licm ipsccp"),
    ("519.lbm_r", "lbm_stream", "memcpyopt loop-vectorize function-attrs slp-vectorizer inline loop-unroll inline jump-threading loop-deletion instsimplify bdce mem2reg loop-rotate globalopt sink aggressive-instcombine"),
    ("557.xz_r", "xz_buffer", "constmerge sccp simplifycfg instsimplify div-rem-pairs deadargelim dse globaldce mem2reg constmerge memcpyopt tailcallelim loop-unroll constmerge lcssa dce"),
]

_HASH_SCRIPT = """
import json, sys
from repro import cbench_names, cbench_program, spec_program
from repro.compiler.opt_tool import run_opt
from repro.compiler.textual import print_module
from repro.machine.platforms import get_platform
target = get_platform("arm-a57").target_info()
out = []
for prog, mod, seq in json.loads(sys.argv[1]):
    program = cbench_program(prog) if prog in cbench_names() else spec_program(prog)
    cr = run_opt(program.get_module(mod), seq.split(), target=target)
    out.append([print_module(cr.module), cr.stats_json()])
print(json.dumps(out))
"""


def test_compile_output_does_not_depend_on_the_hash_seed():
    outputs = []
    for salt in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=salt,
                   PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run(
            [sys.executable, "-c", _HASH_SCRIPT, json.dumps(_HASH_SENSITIVE)],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        outputs.append(json.loads(proc.stdout))
    assert len(outputs[0]) == len(_HASH_SENSITIVE)
    for case, a, b in zip(_HASH_SENSITIVE, *outputs):
        assert a == b, case
