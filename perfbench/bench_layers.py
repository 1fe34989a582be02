"""Outside-in per-layer timing for the tune benchmark.

:class:`LayerTrace` wraps each layer's public entry points *from outside the
program*: it rebinds the names the callers actually use (several modules
import functions by value, so every binding is patched, not just the
defining one), times each call with ``perf_counter`` and restores every
original binding on exit.  The wrappers draw no random numbers and change
no arguments or results, so a traced tune must produce a history that is
bit-identical to the untraced one; the benchmark checks that.

Seconds are *inclusive* busy time summed over calls: a layer's figure
contains the layers it calls (``compiler.run_opt.s`` contains
``compiler.clone.s`` and every ``compiler.pass.*.s``), and under a thread
pool the calls of different workers overlap, so a sum may exceed the wall.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from repro.compiler.pipelines import SEARCH_PASSES

#: ``(name, unit, better)`` of every per-layer metric, in report order.
#: BENCHMARK.json's ``per_layer`` list mirrors this table.
PER_LAYER: List[Tuple[str, str, str]] = (
    [
        ("compiler.run_opt.calls", "count", "lower"),
        ("compiler.run_opt.s", "s", "lower"),
        ("compiler.clone.s", "s", "lower"),
    ]
    + [(f"compiler.pass.{name}.s", "s", "lower") for name in SEARCH_PASSES]
    + [
        ("eval_engine.compile_batch.s", "s", "lower"),
        ("eval_engine.candidates", "count", "lower"),
        ("eval_engine.compiles", "count", "lower"),
        ("eval_engine.cache_hit_ratio", "ratio", "higher"),
        ("eval_engine.queue_wait_s", "s", "lower"),
        ("eval_engine.cores_used", "cores", "higher"),
        ("artifacts.ir_fingerprint.calls", "count", "lower"),
        ("artifacts.ir_fingerprint.s", "s", "lower"),
        ("artifacts.harvest.s", "s", "lower"),
        ("artifacts.hit_ratio", "ratio", "higher"),
        ("task.measure.calls", "count", "lower"),
        ("task.measure.s", "s", "lower"),
        ("task.measure_cache_hit_ratio", "ratio", "higher"),
        ("task.infeasible_share", "ratio", "lower"),
        ("profiler.measure.s", "s", "lower"),
        ("profiler.memo_hit_ratio", "ratio", "higher"),
        ("bytecode.compile_module.s", "s", "lower"),
        ("fuse.fuse_module.s", "s", "lower"),
        ("vm.run.calls", "count", "lower"),
        ("vm.run.s", "s", "lower"),
        ("vm.steps", "count", "lower"),
        ("machine.estimate_cycles.s", "s", "lower"),
        ("cost_model.fit.s", "s", "lower"),
        ("cost_model.refits", "count", "lower"),
        ("cost_model.extends", "count", "lower"),
        ("cost_model.add_observation.s", "s", "lower"),
        ("cost_model.predict_merged.s", "s", "lower"),
        ("cost_model.coverage_many.s", "s", "lower"),
        ("generator.ask.s", "s", "lower"),
        ("generator.candidates", "count", "lower"),
        ("citroen.dedup_hits", "count", "higher"),
        ("wal.append.calls", "count", "lower"),
        ("wal.append.s", "s", "lower"),
        ("recorder.write_event.s", "s", "lower"),
        ("recorder.run_dir_bytes", "bytes", "lower"),
        ("bench.traced_tune_s", "s", "lower"),
        ("bench.tracing_overhead_s", "s", "lower"),
    ]
)


class LayerTrace:
    """Per-layer call counts and busy seconds, collected by rebinding.

    Use as a context manager: entering patches every binding, exiting
    restores the originals.  Counting happens only while :attr:`active`
    is true, so the caller opens the window exactly around ``tune()``.
    """

    def __init__(self) -> None:
        self.active = False
        self.restored = False
        self.seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._saved: List[Tuple[object, str, bool, object]] = []

    # -- accounting ---------------------------------------------------------
    def _add(self, name: str, seconds: float, extra: Optional[Dict[str, float]]) -> None:
        with self._lock:
            self.seconds[name] += seconds
            self.counts[name] += 1
            for key, value in (extra or {}).items():
                self.counts[key] += value

    def timed(
        self,
        name: str,
        fn: Callable,
        extra: Optional[Callable[[tuple, object], Dict[str, float]]] = None,
        cpu: bool = False,
    ) -> Callable:
        """``fn`` wrapped to add its wall time (and ``extra(args, result)``
        counts; with ``cpu``, process CPU seconds as ``<name>.cpu``) to
        ``name`` while the trace is active."""
        trace = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not trace.active:
                return fn(*args, **kwargs)
            c0 = time.process_time() if cpu else 0.0
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
            counts = extra(args, out) if extra is not None else {}
            if cpu:
                counts = dict(counts, **{f"{name}.cpu": time.process_time() - c0})
            trace._add(name, dt, counts)
            return out

        return wrapper

    # -- patching -----------------------------------------------------------
    def _patch(self, owner: object, attr: str, name: str, **kw) -> None:
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        self._saved.append((owner, attr, own, original))
        setattr(owner, attr, self.timed(name, original, **kw))

    def _timed_create(self, create: Callable) -> Callable:
        """``registry.create`` returning pass instances whose
        ``run_on_module`` is timed under ``compiler.pass.<name>.s``."""

        @functools.wraps(create)
        def wrapper(name: str):
            pss = create(name)
            pss.run_on_module = self.timed(f"compiler.pass.{name}", pss.run_on_module)
            return pss

        return wrapper

    def __enter__(self) -> "LayerTrace":
        from repro.compiler.ir import Module
        from repro.compiler.pass_manager import registry
        from repro.core import task as task_mod
        from repro.core.cost_model import CitroenCostModel
        from repro.core.eval_engine import CompileEngine
        from repro.core.generator import CandidateGenerator
        from repro.core.wal import WriteAheadLog
        from repro.machine import artifacts, profiler
        from repro.machine.bytecode import BytecodeVM
        from repro.obs.recorder import RunRecorder

        self._patch(task_mod, "run_opt", "compiler.run_opt")
        self._patch(Module, "clone", "compiler.clone")
        self._saved.append((registry, "create", False, registry.create))
        registry.create = self._timed_create(registry.create)
        self._patch(
            CompileEngine, "compile_batch", "eval_engine.compile_batch", cpu=True,
            extra=lambda args, out: {"eval_engine.candidates": len(args[1])},
        )
        for mod in (artifacts, profiler):
            self._patch(mod, "ir_fingerprint", "artifacts.ir_fingerprint")
            self._patch(mod, "compile_module", "bytecode.compile_module")
        self._patch(artifacts.ArtifactStore, "harvest", "artifacts.harvest")
        self._patch(task_mod.AutotuningTask, "measure", "task.measure")
        self._patch(profiler.Profiler, "measure", "profiler.measure")
        self._patch(profiler, "fuse_module", "fuse.fuse_module")
        self._patch(profiler, "estimate_cycles", "machine.estimate_cycles")
        self._patch(
            BytecodeVM, "run", "vm.run",
            extra=lambda args, out: {"vm.steps": out.steps},
        )
        for method in ("fit", "add_observation", "predict_merged", "coverage_many"):
            self._patch(CitroenCostModel, method, f"cost_model.{method}")
        self._patch(
            CandidateGenerator, "ask", "generator.ask",
            extra=lambda args, out: {"generator.candidates": len(out)},
        )
        self._patch(WriteAheadLog, "append", "wal.append")
        self._patch(RunRecorder, "write_event", "recorder.write_event")
        return self

    def __exit__(self, *exc) -> None:
        self.active = False
        saved, self._saved = self._saved, []
        for owner, attr, own, original in reversed(saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        #: every binding is back to the object it held before ``__enter__``
        self.restored = all(
            vars(owner).get(attr) is original if own else attr not in vars(owner)
            for owner, attr, own, original in saved
        )

    def seconds_of(self, name: str) -> float:
        return self.seconds.get(name, 0.0)

    def calls_of(self, name: str) -> int:
        return int(self.counts.get(name, 0))
