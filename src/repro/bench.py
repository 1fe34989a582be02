"""The surrogate hot-path benchmark behind ``repro bench``.

Two layers:

* **micro** — :class:`~repro.core.cost_model.CitroenCostModel` timings at
  ``n`` observations (default 64/256/512): full refit, incremental
  ``add_observation`` (extend), batched predict and coverage over a
  candidate population — each against the legacy scalar/full-refit
  baseline;
* **end-to-end** — a seeded CITROEN tune at a fixed measurement budget,
  run twice: once with the incremental/warm-started/vectorized surrogate
  (the default) and once with the pre-optimisation model path
  (``model_opts=dict(incremental=False, warm_start=False,
  vectorized=False)``).  Model-side wall time is the sum of the traced
  ``fit`` + ``featurize`` + ``acquisition`` spans, so the win shows up in
  exactly the spans the overhead analysis (§5.4) talks about.

The payload written to ``BENCH_surrogate.json`` is self-describing
(schema tag, git revision, library versions, per-phase wall/CPU seconds)
and diffable: ``repro diff a.json b.json`` gates on the model-side wall
ratio via :func:`diff_bench`.

A second suite (``repro bench --suite interp``, schema ``bench_interp``)
times the measurement engine itself: per-opcode-family micro kernels and
whole cbench workloads run under the tree-walking interpreter, the flat
register bytecode VM, and the VM with fused superblock kernels
(:mod:`repro.machine.fuse`), plus end-to-end measurements/sec figures
through :class:`~repro.machine.profiler.Profiler` — the number that
bounds how many search points a tuner can evaluate per second.  The e2e
scenario rotates through distinct optimisation variants with revisits,
so the ``bytecode`` engine row exercises the full default path (fusion +
IR-identity execution memo) while ``bytecode_base`` isolates raw
dispatch; ``e2e_multi`` drives :meth:`AutotuningTask.measure_batch` at
several compile-worker counts and asserts the
measured histories are jobs-invariant.  Both suites share
:func:`diff_bench`/``repro diff`` gating (the interp gates are the
bytecode end-to-end wall ratio and, when both payloads carry it, the
multi-worker e2e wall ratio).
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

SCHEMA = "bench_surrogate"
SCHEMA_INTERP = "bench_interp"
SCHEMAS = (SCHEMA, SCHEMA_INTERP)
SCHEMA_VERSION = 1

#: the spans that constitute "model-side" work in the tuner loop
MODEL_SPANS = ("fit", "featurize", "acquisition")

#: model_opts reproducing the pre-optimisation surrogate path
LEGACY_MODEL_OPTS = {"incremental": False, "warm_start": False, "vectorized": False}


def git_rev() -> str:
    """The repository revision the numbers belong to (or ``unknown``)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
        return out.stdout.strip()
    except Exception:
        return "unknown"


class _Stopwatch:
    """Wall + CPU seconds around a block."""

    def __enter__(self) -> "_Stopwatch":
        self._w0 = time.perf_counter()
        self._c0 = time.process_time()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = time.perf_counter() - self._w0
        self.cpu = time.process_time() - self._c0


def synthetic_observations(
    n: int, n_keys: int, seed: int
) -> List[Dict[str, Dict[str, int]]]:
    """Sparse per-module statistics dicts shaped like real compile stats."""
    rng = np.random.default_rng(seed)
    keys = [f"pass{i // 4}.Stat{i % 4}" for i in range(n_keys)]
    out = []
    for _ in range(n):
        active = rng.random(n_keys) < 0.3  # sparse, like real counters
        stats = {
            k: int(v)
            for k, v, a in zip(keys, rng.integers(1, 200, n_keys), active)
            if a
        }
        out.append({"mod": stats})
    return out


def _build_model(observations, runtimes, seed: int, legacy: bool):
    from repro.core.cost_model import CitroenCostModel

    opts = LEGACY_MODEL_OPTS if legacy else {}
    model = CitroenCostModel(seed=seed, **opts)
    for per_module, y in zip(observations, runtimes):
        model.add_observation(per_module, y)
    return model


def bench_micro(
    sizes: Sequence[int] = (64, 256, 512),
    n_keys: int = 60,
    n_candidates: int = 256,
    seed: int = 0,
) -> List[Dict[str, object]]:
    """Per-operation timings at each dataset size, fast vs legacy path."""
    rows: List[Dict[str, object]] = []
    for n in sizes:
        obs = synthetic_observations(n + 1, n_keys, seed)
        rng = np.random.default_rng(seed + 1)
        runtimes = list(1.0 + rng.random(n + 1))
        cands = [
            {"mod": pm["mod"]}
            for pm in synthetic_observations(n_candidates, n_keys, seed + 2)
        ]
        row: Dict[str, object] = {"n": int(n), "n_candidates": int(n_candidates)}
        for mode, legacy in (("fast", False), ("legacy", True)):
            model = _build_model(obs[:n], runtimes[:n], seed, legacy)
            with _Stopwatch() as t_fit:
                model.fit(force=True)
            # one more observation: extend on the fast path, a full refit
            # marked stale + rebuilt on the legacy path
            with _Stopwatch() as t_add:
                model.add_observation(obs[n], runtimes[n])
                model.fit()
            merged = [model.merge_config_stats(pm) for pm in cands]
            with _Stopwatch() as t_pred:
                model.predict_merged(merged)
            with _Stopwatch() as t_cov:
                model.coverage_many(merged)
            row[mode] = {
                "fit": {"wall": t_fit.wall, "cpu": t_fit.cpu},
                "add_observation": {"wall": t_add.wall, "cpu": t_add.cpu},
                "predict": {"wall": t_pred.wall, "cpu": t_pred.cpu},
                "coverage": {"wall": t_cov.wall, "cpu": t_cov.cpu},
                "n_refits": model.n_refits,
                "n_extends": model.n_extends,
            }
        rows.append(row)
    return rows


def bench_tune(
    program: str = "security_sha",
    budget: int = 100,
    seed: int = 1,
    seq_length: int = 16,
    legacy: bool = False,
    jobs: int = 1,
) -> Dict[str, object]:
    """One traced end-to-end CITROEN tune; spans aggregated per phase."""
    from repro.cli import _load_program
    from repro.core.citroen import Citroen
    from repro.core.task import AutotuningTask
    from repro.obs.trace import Tracer

    tracer = Tracer()
    with _Stopwatch() as total, AutotuningTask(
        _load_program(program),
        platform="arm-a57",
        seed=seed,
        seq_length=seq_length,
        jobs=jobs,
        tracer=tracer,
    ) as task:
        tuner = Citroen(
            task,
            seed=seed,
            model_opts=dict(LEGACY_MODEL_OPTS) if legacy else None,
        )
        result = tuner.tune(budget)

    spans: Dict[str, Dict[str, float]] = {}
    for event in tracer.spans():
        agg = spans.setdefault(
            event["name"], {"wall": 0.0, "cpu": 0.0, "count": 0}
        )
        agg["wall"] += float(event.get("wall", 0.0))
        agg["cpu"] += float(event.get("cpu", 0.0))
        agg["count"] += 1
    model_wall = sum(spans.get(name, {}).get("wall", 0.0) for name in MODEL_SPANS)
    model_cpu = sum(spans.get(name, {}).get("cpu", 0.0) for name in MODEL_SPANS)
    return {
        "program": program,
        "budget": budget,
        "seed": seed,
        "seq_length": seq_length,
        "jobs": jobs,
        "legacy": bool(legacy),
        "spans": spans,
        "model_wall_seconds": model_wall,
        "model_cpu_seconds": model_cpu,
        "model_seconds": tuner.model_seconds,
        "total_wall_seconds": total.wall,
        "total_cpu_seconds": total.cpu,
        "n_measurements": len(result.measurements),
        "best_runtime": result.best_runtime,
        "speedup_vs_o3": result.speedup_over_o3(),
        "gp_refits": tuner.model.n_refits,
        "gp_extends": tuner.model.n_extends,
    }


def run_bench(
    program: str = "security_sha",
    budget: int = 100,
    seed: int = 1,
    seq_length: int = 16,
    sizes: Sequence[int] = (64, 256, 512),
    baseline: bool = True,
) -> Dict[str, object]:
    """The full benchmark payload (micro + end-to-end, fast vs legacy)."""
    payload: Dict[str, object] = {
        "schema": SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "git_rev": git_rev(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "program": program,
        "budget": budget,
        "seed": seed,
        "micro": bench_micro(sizes=sizes, seed=seed),
        "tune": {"fast": bench_tune(program, budget, seed, seq_length)},
    }
    if baseline:
        tune = payload["tune"]
        tune["legacy"] = bench_tune(program, budget, seed, seq_length, legacy=True)
        fast_wall = tune["fast"]["model_wall_seconds"]
        tune["model_wall_speedup"] = (
            tune["legacy"]["model_wall_seconds"] / fast_wall
            if fast_wall > 0
            else float("inf")
        )
    return payload


# ---------------------------------------------------------------------------
# interpreter / bytecode-VM suite (``--suite interp``)
# ---------------------------------------------------------------------------

#: kernel iteration count giving ~100k interpreted steps per family run
_KERNEL_ITERS = 4000


def _kernel_int_alu(iters: int):
    """add/sub/mul/xor/and/shl/ashr over a 64-bit accumulator."""
    from repro.compiler.builder import FunctionBuilder, c
    from repro.compiler.ir import I32, I64, Module

    mod = Module("k_int_alu")
    b = FunctionBuilder(mod, "main", [], I64)
    acc = b.alloca(I64, hint="acc")
    b.store(c(1, I64), acc)

    def body(bb, i):
        cur = bb.load(I64, acc)
        iw = bb.sext(i, I64)
        t = bb.add(cur, iw, I64)
        t = bb.mul(t, c(2654435761, I64), I64)
        t = bb.xor(t, c(0x5DEECE66D, I64), I64)
        t = bb.and_(t, c((1 << 48) - 1, I64), I64)
        t = bb.shl(t, c(3, I64), I64)
        t = bb.ashr(t, c(2, I64), I64)
        t = bb.sub(t, iw, I64)
        bb.store(t, acc)

    b.counted_loop(c(0, I32), c(iters, I32), body)
    out = b.load(I64, acc)
    b.output(out)
    b.ret(out)
    return mod


def _kernel_int_div(iters: int):
    """sdiv/srem with sign-alternating operands (the C-truncation path)."""
    from repro.compiler.builder import FunctionBuilder, c
    from repro.compiler.ir import I32, I64, Module

    mod = Module("k_int_div")
    b = FunctionBuilder(mod, "main", [], I64)
    acc = b.alloca(I64, hint="acc")
    b.store(c(-123456789, I64), acc)

    def body(bb, i):
        cur = bb.load(I64, acc)
        iw = bb.sext(i, I64)
        d = bb.add(iw, c(3, I64), I64)
        q = bb.sdiv(cur, d, I64)
        r = bb.srem(cur, d, I64)
        t = bb.sub(q, r, I64)
        t = bb.mul(t, c(-7, I64), I64)
        t = bb.add(t, iw, I64)
        bb.store(t, acc)

    b.counted_loop(c(0, I32), c(iters, I32), body)
    out = b.load(I64, acc)
    b.output(out)
    b.ret(out)
    return mod


def _kernel_float(iters: int):
    """fadd/fmul/fdiv/sitofp/fptosi round trips."""
    from repro.compiler.builder import FunctionBuilder, c
    from repro.compiler.ir import F64, I32, I64, Module

    mod = Module("k_float")
    b = FunctionBuilder(mod, "main", [], I64)
    acc = b.alloca(F64, hint="acc")
    b.store(c(1.5, F64), acc)

    def body(bb, i):
        cur = bb.load(F64, acc)
        x = bb.sitofp(bb.add(i, c(1, I32), I32), F64)
        t = bb.fmul(cur, c(1.0000001, F64), F64)
        t = bb.fadd(t, bb.fdiv(x, c(65536.0, F64), F64), F64)
        t = bb.fsub(t, bb.fdiv(t, c(1024.0, F64), F64), F64)
        bb.store(t, acc)

    b.counted_loop(c(0, I32), c(iters, I32), body)
    out = b.fptosi(b.load(F64, acc), I64)
    b.output(out)
    b.ret(out)
    return mod


def _kernel_compare_branch(iters: int):
    """signed *and unsigned* icmp feeding data-dependent branches."""
    from repro.compiler.builder import FunctionBuilder, c
    from repro.compiler.ir import I32, I64, Module

    mod = Module("k_cmp_br")
    b = FunctionBuilder(mod, "main", [], I64)
    acc = b.alloca(I64, hint="acc")
    b.store(c(0, I64), acc)

    def body(bb, i):
        v = bb.sub(i, c(2000, I32), I32)  # sign-alternating
        is_neg = bb.icmp("slt", v, c(0, I32))
        # as unsigned, negative v is huge: takes the opposite branch
        is_big = bb.icmp("ugt", v, c(1000, I32))

        def then1(bb2):
            cur = bb2.load(I64, acc)
            bb2.store(bb2.add(cur, c(3, I64), I64), acc)

        def else1(bb2):
            cur = bb2.load(I64, acc)
            bb2.store(bb2.sub(cur, c(1, I64), I64), acc)

        bb.if_then(is_neg, then1, else1, tag="neg")

        def then2(bb2):
            cur = bb2.load(I64, acc)
            bb2.store(bb2.xor(cur, c(0xFF, I64), I64), acc)

        bb.if_then(is_big, then2, tag="big")
        sel = bb.select(
            bb.icmp("ule", v, c(7, I32)), c(11, I64), c(13, I64), I64
        )
        cur = bb.load(I64, acc)
        bb.store(bb.add(cur, sel, I64), acc)

    b.counted_loop(c(0, I32), c(iters, I32), body)
    out = b.load(I64, acc)
    b.output(out)
    b.ret(out)
    return mod


def _kernel_memory(iters: int, n: int = 64):
    """gep/load/store traffic over a global array and a stack buffer."""
    from repro.compiler.builder import FunctionBuilder, c
    from repro.compiler.ir import I32, I64, GlobalVar, Module

    mod = Module("k_memory")
    mod.add_global(GlobalVar("table", I32, [((i * 37) % 251) for i in range(n)]))
    b = FunctionBuilder(mod, "main", [], I64)
    tab = b.gaddr("table")
    buf = b.alloca(I32, count=n, hint="buf")
    acc = b.alloca(I64, hint="acc")
    b.store(c(0, I64), acc)

    def body(bb, i):
        idx = bb.srem(i, c(n, I32), I32)
        v = bb.load(I32, bb.gep(tab, idx, I32))
        slot = bb.gep(buf, idx, I32)
        old = bb.load(I32, slot)
        bb.store(bb.add(old, v, I32), slot)
        cur = bb.load(I64, acc)
        bb.store(bb.add(cur, bb.sext(v, I64), I64), acc)

    # first pass zero-fills the stack buffer
    def zero(bb, i):
        bb.store(c(0, I32), bb.gep(buf, i, I32))

    b.counted_loop(c(0, I32), c(n, I32), zero, tag="zero")
    b.counted_loop(c(0, I32), c(iters, I32), body)
    out = b.load(I64, acc)
    b.output(out)
    b.ret(out)
    return mod


def _kernel_calls(iters: int):
    """a tiny callee invoked every iteration (call/ret + frame churn)."""
    from repro.compiler.builder import FunctionBuilder, c
    from repro.compiler.ir import I32, I64, Module

    mod = Module("k_calls")
    h = FunctionBuilder(mod, "mix", [("a", I64), ("b", I64)], I64)
    t = h.xor("a", h.mul("b", c(31, I64), I64), I64)
    h.ret(h.add(t, c(17, I64), I64))

    b = FunctionBuilder(mod, "main", [], I64)
    acc = b.alloca(I64, hint="acc")
    b.store(c(7, I64), acc)

    def body(bb, i):
        cur = bb.load(I64, acc)
        r = bb.call("mix", [cur, bb.sext(i, I64)], I64)
        bb.store(r, acc)

    b.counted_loop(c(0, I32), c(iters, I32), body)
    out = b.load(I64, acc)
    b.output(out)
    b.ret(out)
    return mod


def _kernel_fused_chain(iters: int):
    """one long straight-line int+float ALU chain per iteration — the
    superblock fusion pass lowers nearly the whole body to one kernel."""
    from repro.compiler.builder import FunctionBuilder, c
    from repro.compiler.ir import F64, I32, I64, Module

    mod = Module("k_fused_chain")
    b = FunctionBuilder(mod, "main", [], I64)
    acc = b.alloca(I64, hint="acc")
    facc = b.alloca(F64, hint="facc")
    b.store(c(1, I64), acc)
    b.store(c(1.0, F64), facc)

    def body(bb, i):
        t = bb.load(I64, acc)
        iw = bb.sext(i, I64)
        for k in range(4):
            t = bb.add(t, iw, I64)
            t = bb.mul(t, c(2654435761 + k, I64), I64)
            t = bb.xor(t, c(0x9E3779B9, I64), I64)
            t = bb.and_(t, c((1 << 52) - 1, I64), I64)
            t = bb.sub(t, c(k + 1, I64), I64)
        f = bb.load(F64, facc)
        x = bb.sitofp(i, F64)
        f = bb.fadd(f, bb.fmul(x, c(0.0009765625, F64), F64), F64)
        f = bb.fsub(f, bb.fmul(f, c(0.000244140625, F64), F64), F64)
        bb.store(t, acc)
        bb.store(f, facc)

    b.counted_loop(c(0, I32), c(iters, I32), body)
    out = b.add(b.load(I64, acc), b.fptosi(b.load(F64, facc), I64), I64)
    b.output(out)
    b.ret(out)
    return mod


def _kernel_fused_wide(iters: int, lanes: int = 64):
    """64 independent lanes of identical int ALU work per iteration —
    wide dependence levels inside one long fused kernel."""
    from repro.compiler.builder import FunctionBuilder, c
    from repro.compiler.ir import I32, I64, GlobalVar, Module

    mod = Module("k_fused_wide")
    mod.add_global(
        GlobalVar("src", I64, [((k * 2654435761) & ((1 << 63) - 1)) for k in range(lanes)])
    )
    b = FunctionBuilder(mod, "main", [], I64)
    src = b.gaddr("src")
    acc = b.alloca(I64, count=lanes, hint="acc")

    def init(bb, i):
        bb.store(c(0, I64), bb.gep(acc, i, I64))

    b.counted_loop(c(0, I32), c(lanes, I32), init, tag="init")

    def body(bb, i):
        iw = bb.sext(i, I64)
        vals = [bb.load(I64, bb.gep(src, c(k, I64), I64)) for k in range(lanes)]
        accs = [bb.load(I64, bb.gep(acc, c(k, I64), I64)) for k in range(lanes)]
        # three wide dependence levels: one numpy cohort per (level, op)
        t = [bb.mul(v, c(2654435761, I64), I64) for v in vals]
        t = [bb.xor(x, iw, I64) for x in t]
        t = [bb.add(a, x, I64) for a, x in zip(accs, t)]
        for k, x in enumerate(t):
            bb.store(x, bb.gep(acc, c(k, I64), I64))

    b.counted_loop(c(0, I32), c(iters, I32), body)
    total = b.alloca(I64, hint="total")
    b.store(c(0, I64), total)

    def reduce(bb, i):
        cur = bb.load(I64, total)
        bb.store(bb.add(cur, bb.load(I64, bb.gep(acc, i, I64)), I64), total)

    b.counted_loop(c(0, I32), c(lanes, I32), reduce, tag="reduce")
    out = b.load(I64, total)
    b.output(out)
    b.ret(out)
    return mod


def _kernel_vector(iters: int):
    """an SLP-vectorized dot-product body (vload/vbinop/vreduce)."""
    from repro.compiler.builder import FunctionBuilder, c
    from repro.compiler.ir import I32, I64, GlobalVar, Module
    from repro.compiler.opt_tool import run_opt

    lanes = 8
    mod = Module("k_vector")
    mod.add_global(GlobalVar("w", I32, [i + 1 for i in range(lanes)]))
    mod.add_global(GlobalVar("d", I32, [2 * i + 1 for i in range(lanes)]))
    b = FunctionBuilder(mod, "main", [], I64)
    w = b.gaddr("w")
    d = b.gaddr("d")
    acc = b.alloca(I64, hint="acc")
    b.store(c(0, I64), acc)

    def body(bb, i):
        total = None
        for k in range(lanes):
            wv = bb.load(I32, bb.gep(w, c(k, I64), I32))
            dv = bb.load(I32, bb.gep(d, c(k, I64), I32))
            m = bb.mul(wv, dv, I32)
            total = m if total is None else bb.add(total, m, I32)
        cur = bb.load(I64, acc)
        bb.store(bb.add(cur, bb.sext(total, I64), I64), acc)

    b.counted_loop(c(0, I32), c(iters, I32), body)
    out = b.load(I64, acc)
    b.output(out)
    b.ret(out)
    cr = run_opt(mod, ["mem2reg", "slp-vectorizer"])
    return cr.module


#: family name -> builder; iteration counts scaled so every family does a
#: comparable amount of interpreted work per run
KERNEL_FAMILIES = {
    "int_alu": _kernel_int_alu,
    "int_div": _kernel_int_div,
    "float": _kernel_float,
    "compare_branch": _kernel_compare_branch,
    "memory": _kernel_memory,
    "calls": _kernel_calls,
    "vector": _kernel_vector,
    "fused_chain": _kernel_fused_chain,
    "fused_wide": _kernel_fused_wide,
}

#: per-family iteration divisors — heavier bodies do fewer trips so every
#: family interprets a comparable number of steps per run
_KERNEL_ITER_DIV = {"vector": 8, "fused_chain": 4, "fused_wide": 16}


def _time_engines(modules, entry: str, fuel: int, runs: int) -> Dict[str, object]:
    """Run ``modules`` under all three engines, checking parity as we go."""
    from repro.machine.bytecode import BytecodeVM, compile_module
    from repro.machine.fuse import fuse_module
    from repro.machine.interp import Interpreter

    with _Stopwatch() as t_compile:
        bcs = [compile_module(m) for m in modules]
    kernels = fused_ops = 0
    with _Stopwatch() as t_fusep:
        fused_bcs = []
        for raw in bcs:
            fbc, stats = fuse_module(raw)
            fused_bcs.append(fbc)
            kernels += stats["kernels"]
            fused_ops += stats["fused_ops"]
    with _Stopwatch() as t_tree:
        for _ in range(runs):
            tree = Interpreter(modules, fuel=fuel).run(entry)
    vm = BytecodeVM(bcs, fuel=fuel)
    with _Stopwatch() as t_bc:
        for _ in range(runs):
            bc = vm.run(entry)
    fvm = BytecodeVM(fused_bcs, fuel=fuel)
    with _Stopwatch() as t_fused:
        for _ in range(runs):
            fused = fvm.run(entry)
    sig = tree.output_signature()
    if (
        sig != bc.output_signature()
        or tree.steps != bc.steps
        or sig != fused.output_signature()
        or tree.steps != fused.steps
    ):
        raise AssertionError(
            f"engine mismatch on {entry}: tree={sig} "
            f"bc={bc.output_signature()} fused={fused.output_signature()}"
        )
    speedup = t_tree.wall / t_bc.wall if t_bc.wall > 0 else float("inf")
    return {
        "runs": runs,
        "steps": tree.steps,
        "tree": {"wall": t_tree.wall, "cpu": t_tree.cpu},
        "bytecode": {
            "wall": t_bc.wall,
            "cpu": t_bc.cpu,
            "compile_wall": t_compile.wall,
        },
        "fused": {
            "wall": t_fused.wall,
            "cpu": t_fused.cpu,
            "fuse_wall": t_fusep.wall,
            "kernels": kernels,
            "fused_ops": fused_ops,
        },
        "speedup": speedup,
        "speedup_fused": t_tree.wall / t_fused.wall if t_fused.wall > 0 else float("inf"),
    }


def bench_interp_micro(
    iters: int = _KERNEL_ITERS, runs: int = 5
) -> List[Dict[str, object]]:
    """Per-opcode-family timings, tree walker vs bytecode VM."""
    rows: List[Dict[str, object]] = []
    for family, build in KERNEL_FAMILIES.items():
        n = iters // _KERNEL_ITER_DIV.get(family, 1)
        mod = build(n)
        row: Dict[str, object] = {"family": family, "iters": n}
        row.update(_time_engines([mod], "main", fuel=50_000_000, runs=runs))
        if family == "vector":
            row["vector_instrs"] = sum(
                1
                for fn in mod.functions.values()
                for blk in fn.blocks.values()
                for inst in blk.instrs
                if inst.op.startswith("v")
            )
        rows.append(row)
    return rows


def bench_interp_workloads(
    programs: Sequence[str] = ("telecom_gsm", "security_sha", "telecom_adpcm_c"),
    levels: Sequence[str] = ("-O0", "-O3"),
    runs: int = 3,
) -> List[Dict[str, object]]:
    """Whole-workload timings at -O0 and -O3 under both engines."""
    from repro.cli import _load_program
    from repro.compiler.opt_tool import run_opt
    from repro.compiler.pipelines import pipeline

    rows: List[Dict[str, object]] = []
    for name in programs:
        prog = _load_program(name)
        for level in levels:
            if level == "-O0":
                modules = list(prog.modules)
            else:
                seq = pipeline(level)
                modules = [run_opt(m, seq).module for m in prog.modules]
            row: Dict[str, object] = {"program": name, "level": level}
            row.update(
                _time_engines(modules, prog.entry, fuel=prog.fuel, runs=runs)
            )
            rows.append(row)
    return rows


#: optimisation-pipeline prefix lengths (as eighths of -O3) used as the e2e
#: variant rotation — distinct IR per variant, revisited like a real tune
_E2E_VARIANTS = 8


def bench_interp_e2e(
    program: str = "security_sha",
    n_measurements: int = 40,
    seed: int = 1,
    platform_name: str = "arm-a57",
) -> Dict[str, object]:
    """End-to-end measurements/sec through the :class:`Profiler`.

    This is the figure that bounds tuner throughput: each measurement is
    one full program execution plus the cycle/noise model, exactly the
    per-search-point cost inside ``AutotuningTask.measure``.  The schedule
    round-robins over ``_E2E_VARIANTS`` distinct optimisation variants
    (prefixes of the -O3 pipeline), so configurations are *revisited* as
    in a real tuning run.  Three engines share the schedule:

    * ``tree`` — the reference tree walker, execution memo off;
    * ``bytecode_base`` — raw VM dispatch, fusion and memo off (the PR 6
      engine, for attribution);
    * ``bytecode`` — the shipped default path: fused superblock kernels
      plus the IR-identity execution memo (revisits replay the recorded
      execution and only re-draw noise).

    Per-variant output signatures are asserted equal across all three
    engines.  ``steps_per_sec`` credits a memoized measurement at its
    recorded step count — the interpreted-steps-equivalent throughput.
    """
    from repro.cli import _load_program
    from repro.compiler.opt_tool import run_opt
    from repro.compiler.pipelines import pipeline
    from repro.machine.platforms import get_platform
    from repro.machine.profiler import Profiler

    prog = _load_program(program)
    plat = get_platform(platform_name)
    seq = pipeline("-O3")
    variants = []
    for v in range(_E2E_VARIANTS):
        prefix = seq[: (v * len(seq)) // (_E2E_VARIANTS - 1)] if v else []
        mods = [
            run_opt(m, prefix, target=plat.target_info()).module for m in prog.modules
        ]
        variants.append(mods)
    schedule = [i % len(variants) for i in range(n_measurements)]

    configs = {
        "tree": dict(engine="tree", execution_memo=False),
        "bytecode_base": dict(engine="bytecode", fuse=False, execution_memo=False),
        "bytecode": dict(engine="bytecode"),
    }
    out: Dict[str, object] = {
        "program": program,
        "platform": platform_name,
        "n_measurements": n_measurements,
        "n_variants": len(variants),
        "engines": {},
    }
    sigs: Dict[str, List[object]] = {}
    for name, kwargs in configs.items():
        prof = Profiler(plat, seed=seed, fuel=prog.fuel, **kwargs)
        steps = 0
        vsigs: List[object] = [None] * len(variants)
        with _Stopwatch() as t:
            for v in schedule:
                m = prof.measure(variants[v], entry=prog.entry)
                steps += m.result.steps
                vsigs[v] = m.output_signature()
        sigs[name] = vsigs
        out["engines"][name] = {
            "wall": t.wall,
            "cpu": t.cpu,
            "per_sec": n_measurements / t.wall if t.wall > 0 else float("inf"),
            "steps_per_sec": steps / t.wall if t.wall > 0 else float("inf"),
            "bytecode_compiles": prof.artifacts.misses,
            "bytecode_cache_hits": prof.artifacts.hits,
            "execution_memo_hits": prof.execution_memo_hits,
            "fused_kernels": prof.fused_kernels,
            "fused_ops": prof.fused_ops,
        }
    for name, vsigs in sigs.items():
        if vsigs != sigs["tree"]:
            raise AssertionError(f"e2e engine mismatch: tree vs {name}")
    tree_wall = out["engines"]["tree"]["wall"]
    base_wall = out["engines"]["bytecode_base"]["wall"]
    bc_wall = out["engines"]["bytecode"]["wall"]
    out["speedup"] = tree_wall / bc_wall if bc_wall > 0 else float("inf")
    out["speedup_base"] = base_wall / bc_wall if bc_wall > 0 else float("inf")
    return out


def bench_interp_e2e_multi(
    program: str = "telecom_gsm",
    n_configs: int = 24,
    seed: int = 3,
    seq_length: int = 12,
    jobs_levels: Sequence[int] = (1, 2, 4),
) -> Dict[str, object]:
    """Multi-worker e2e: one :meth:`AutotuningTask.measure_batch` sweep per
    worker count, full default measurement path (fused bytecode and the
    execution memo).

    The same seeded candidate population is measured at every ``jobs``
    level; ``histories_identical`` asserts the ``(runtime, ok)`` streams
    are bit-identical across worker counts — the determinism contract the
    engine/memo/artifact layers must preserve under parallelism."""
    from repro.cli import _load_program
    from repro.core.task import AutotuningTask

    out: Dict[str, object] = {
        "program": program,
        "n_configs": n_configs,
        "seed": seed,
        "seq_length": seq_length,
        "jobs": {},
    }
    histories: Dict[int, List] = {}
    for jobs in jobs_levels:
        rng = np.random.default_rng(seed)
        with AutotuningTask(
            _load_program(program),
            platform="arm-a57",
            seed=seed,
            seq_length=seq_length,
            jobs=jobs,
        ) as task:
            mods = [m.name for m in task.program.modules]
            configs = [
                {mods[i % len(mods)]: rng.integers(0, task.alphabet, size=seq_length)}
                for i in range(n_configs)
            ]
            with _Stopwatch() as t:
                results = task.measure_batch(configs)
            tb = task.timing_breakdown()
        histories[jobs] = [(float(v), bool(ok)) for v, ok in results]
        out["jobs"][str(jobs)] = {
            "wall": t.wall,
            "cpu": t.cpu,
            "per_sec": n_configs / t.wall if t.wall > 0 else float("inf"),
            "compile_cache_hits": tb["compile_cache_hits"],
            "execution_memo_hits": tb["execution_memo_hits"],
            "fused_kernels": tb["fused_kernels"],
            "artifact_hits": tb["bytecode_cache_hits"],
        }
    first = histories[jobs_levels[0]]
    out["histories_identical"] = all(histories[j] == first for j in jobs_levels)
    if not out["histories_identical"]:
        raise AssertionError("e2e_multi: histories diverged across jobs levels")
    return out


def run_interp_bench(
    program: str = "security_sha",
    seed: int = 1,
    n_measurements: int = 40,
    iters: int = _KERNEL_ITERS,
) -> Dict[str, object]:
    """The full interpreter-suite payload (micro + workloads + e2e)."""
    return {
        "schema": SCHEMA_INTERP,
        "schema_version": SCHEMA_VERSION,
        "git_rev": git_rev(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "program": program,
        "seed": seed,
        "micro": bench_interp_micro(iters=iters),
        "workloads": bench_interp_workloads(),
        "e2e": bench_interp_e2e(
            program=program, n_measurements=n_measurements, seed=seed
        ),
        "e2e_multi": bench_interp_e2e_multi(seed=seed + 2),
    }


def write_bench(payload: Dict[str, object], path: str) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_bench(path: str) -> Dict[str, object]:
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("schema") not in SCHEMAS:
        raise ValueError(f"{path} is not a bench payload (expected one of {SCHEMAS})")
    return payload


def diff_bench(
    path_a: str, path_b: str, max_model_ratio: float = 1.5
) -> Dict[str, object]:
    """Compare two bench payloads of the same schema.

    ``bench_surrogate``: ``b`` regresses if its model-side wall time
    exceeds ``max_model_ratio`` x ``a``'s (fast path only — the legacy
    numbers are context, not a gate).  ``bench_interp``: ``b`` regresses
    if its bytecode end-to-end measurement wall time exceeds
    ``max_model_ratio`` x ``a``'s.
    """
    a, b = load_bench(path_a), load_bench(path_b)
    if a.get("schema") != b.get("schema"):
        raise ValueError(
            f"schema mismatch: {path_a} is {a.get('schema')!r}, "
            f"{path_b} is {b.get('schema')!r}"
        )

    def ratio_check(name: str, wall_a: float, wall_b: float) -> Dict[str, object]:
        ratio = wall_b / wall_a if wall_a > 0 else float("inf")
        return {
            "name": name,
            "a": wall_a,
            "b": wall_b,
            "ratio": ratio,
            "threshold": max_model_ratio,
            "kind": "ratio",
            "ok": ratio <= max_model_ratio,
            "skipped": False,
        }

    checks: List[Dict[str, object]] = []
    if a.get("schema") == SCHEMA_INTERP:
        checks.append(
            ratio_check(
                "e2e_bytecode_wall_seconds",
                a["e2e"]["engines"]["bytecode"]["wall"],
                b["e2e"]["engines"]["bytecode"]["wall"],
            )
        )
        # multi-worker gate: highest jobs level both payloads measured;
        # payloads predating e2e_multi yield a skipped (non-gating) row
        ma, mb = a.get("e2e_multi"), b.get("e2e_multi")
        common = (
            sorted(set(ma["jobs"]) & set(mb["jobs"]), key=int) if ma and mb else []
        )
        if common:
            j = common[-1]
            checks.append(
                ratio_check(
                    f"e2e_multi_wall_seconds_jobs{j}",
                    ma["jobs"][j]["wall"],
                    mb["jobs"][j]["wall"],
                )
            )
        else:
            checks.append(
                {
                    "name": "e2e_multi_wall_seconds",
                    "a": None,
                    "b": None,
                    "ratio": None,
                    "threshold": max_model_ratio,
                    "kind": "ratio",
                    "ok": True,
                    "skipped": True,
                }
            )
    else:
        checks.append(
            ratio_check(
                "model_wall_seconds",
                a["tune"]["fast"]["model_wall_seconds"],
                b["tune"]["fast"]["model_wall_seconds"],
            )
        )
    regressions = [c["name"] for c in checks if not c["ok"]]
    return {
        "kind": "bench",
        "schema": a.get("schema"),
        "run_a": path_a,
        "run_b": path_b,
        "git_rev": {"a": a.get("git_rev"), "b": b.get("git_rev")},
        "checks": checks,
        "regressions": regressions,
        "regressed": bool(regressions),
        "ok": not regressions,
    }


def summary_table(payload: Dict[str, object]) -> str:
    """Human-readable digest of a bench payload (either schema)."""
    if payload.get("schema") == SCHEMA_INTERP:
        return _interp_summary_table(payload)
    lines = [
        f"surrogate bench @ {str(payload.get('git_rev', '?'))[:12]} "
        f"(program={payload['program']}, budget={payload['budget']}, "
        f"seed={payload['seed']})",
        "",
        f"{'n':>6s} {'op':<16s} {'fast ms':>10s} {'legacy ms':>11s} {'speedup':>8s}",
    ]
    for row in payload["micro"]:
        for op in ("fit", "add_observation", "predict", "coverage"):
            fast = row["fast"][op]["wall"] * 1e3
            legacy = row["legacy"][op]["wall"] * 1e3
            ratio = legacy / fast if fast > 0 else float("inf")
            lines.append(
                f"{row['n']:>6d} {op:<16s} {fast:>10.2f} {legacy:>11.2f} "
                f"{ratio:>7.1f}x"
            )
    tune = payload["tune"]
    fast = tune["fast"]
    lines.append("")
    lines.append(
        f"end-to-end ({fast['n_measurements']} measurements): model wall "
        f"{fast['model_wall_seconds'] * 1e3:.1f} ms "
        f"({fast['gp_refits']} refits, {fast['gp_extends']} extends)"
    )
    if "legacy" in tune:
        legacy = tune["legacy"]
        lines.append(
            f"   legacy path: model wall {legacy['model_wall_seconds'] * 1e3:.1f} ms "
            f"({legacy['gp_refits']} refits) -> "
            f"{tune['model_wall_speedup']:.1f}x model-side speedup"
        )
    return "\n".join(lines)


def _interp_summary_table(payload: Dict[str, object]) -> str:
    def _engine_row(row: Dict[str, object]) -> str:
        fused = row.get("fused")
        fused_ms = f"{fused['wall'] * 1e3:>9.1f}" if fused else f"{'-':>9s}"
        fused_x = (
            f"{row.get('speedup_fused', 0.0):>7.1f}x" if fused else f"{'-':>8s}"
        )
        return (
            f"{row['steps']:>9d} {row['tree']['wall'] * 1e3:>9.1f} "
            f"{row['bytecode']['wall'] * 1e3:>12.1f} {fused_ms} "
            f"{row['speedup']:>7.1f}x {fused_x}"
        )

    header = (
        f"{'steps':>9s} {'tree ms':>9s} {'bytecode ms':>12s} {'fused ms':>9s} "
        f"{'speedup':>8s} {'fused x':>8s}"
    )
    lines = [
        f"interp bench @ {str(payload.get('git_rev', '?'))[:12]}",
        "",
        f"{'kernel':<16s} {header}",
    ]
    for row in payload["micro"]:
        lines.append(f"{row['family']:<16s} {_engine_row(row)}")
    lines.append("")
    lines.append(f"{'workload':<22s} {header}")
    for row in payload["workloads"]:
        label = f"{row['program']} {row['level']}"
        lines.append(f"{label:<22s} {_engine_row(row)}")
    e2e = payload["e2e"]
    engines = e2e["engines"]
    tree = engines["tree"]
    bc = engines["bytecode"]
    lines.append("")
    lines.append(
        f"end-to-end ({e2e['program']}, {e2e['n_measurements']} measurements"
        + (
            f" over {e2e['n_variants']} variants"
            if "n_variants" in e2e
            else ""
        )
        + "):"
    )
    for name in ("tree", "bytecode_base", "bytecode"):
        eng = engines.get(name)
        if eng is None:
            continue
        steps_s = eng.get("steps_per_sec")
        extra = f", {steps_s / 1e6:.1f}M steps/s" if steps_s else ""
        memo = eng.get("execution_memo_hits", 0)
        extra += f", {memo} memo hits" if memo else ""
        lines.append(f"   {name:<14s} {eng['per_sec']:>8.1f} measurements/s{extra}")
    lines.append(
        f"   -> {e2e['speedup']:.1f}x vs tree"
        + (
            f", {e2e['speedup_base']:.1f}x vs unfused/unmemoized VM"
            if "speedup_base" in e2e
            else ""
        )
    )
    multi = payload.get("e2e_multi")
    if multi:
        lines.append("")
        lines.append(
            f"multi-worker e2e ({multi['program']}, {multi['n_configs']} configs, "
            f"histories identical: {multi['histories_identical']}):"
        )
        for jobs in sorted(multi["jobs"], key=int):
            row = multi["jobs"][jobs]
            lines.append(
                f"   jobs={jobs}: {row['per_sec']:>6.1f} configs/s "
                f"({row['execution_memo_hits']} memo hits, "
                f"{row['artifact_hits']} artifact hits)"
            )
    return "\n".join(lines)
