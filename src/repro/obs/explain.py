"""Post-hoc speedup attribution: why is a tuned pipeline fast?

``repro explain RUN_DIR`` answers the question every phase-ordering result
begs: *which passes in the winning sequence actually paid for the
speedup?*  The tuner's artifacts record only end-to-end runtimes; this
module replays the incumbent configuration through the compiler with full
:class:`~repro.compiler.pass_manager.PassTrace` instrumentation and then
attributes the runtime by ablation:

* **leave-one-out** — each pass is deleted from its module's sequence and
  the ablated program re-measured; the runtime delta is the pass's
  *marginal contribution* to the final binary;
* **prefix replay** — the sequence is truncated at every length ``k`` and
  re-measured, yielding the cumulative "speedup so far" curve the report
  plots;
* **no-op detection** — a pass whose removal leaves the module's final IR
  *textually identical* (same :func:`~repro.compiler.textual.print_module`
  output) contributed nothing to the binary; its marginal is exactly 0.

Determinism makes the attribution exact rather than statistical: replays
run on :meth:`~repro.machine.profiler.Profiler.deterministic_seconds`
(cost-model cycles, no measurement noise, no RNG), so two ablations that
produce the same binary get the same seconds to the last bit.  Compiles
are memoised for the replay in a dict keyed by ``(module, sequence)``, so
the full sequence, every prefix, and every leave-one-out variant compile
at most once each; executions go through
the profiler's fingerprint-keyed measurement store, so IR-identical
ablations are never re-run.

Everything reads the run directory's JSON artifacts; no pickles, no live
tuner, and the run's own RNG stream is never touched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.compiler.opt_tool import run_opt
from repro.compiler.pass_manager import PassTrace
from repro.machine.artifacts import CompiledModule
from repro.machine.platforms import get_platform
from repro.machine.profiler import Profiler
from repro.obs.analysis import load_run
from repro.obs.recorder import _atomic_write_json
from repro.obs.trace import Tracer
from repro.workloads import cbench_names, cbench_program, spec_names, spec_program

__all__ = [
    "ModuleExplanation",
    "PassAttribution",
    "ExplainReport",
    "explain_run",
]


@dataclass
class PassAttribution:
    """One pass application in the incumbent sequence, fully attributed.

    ``marginal_seconds`` is the leave-one-out runtime delta (ablated minus
    incumbent): positive means removing the pass makes the program slower —
    the pass is pulling its weight.  ``noop`` marks passes whose removal
    leaves the module's final IR byte-identical."""

    index: int
    name: str
    wall: float
    cpu: float
    changed: bool
    noop: bool
    marginal_seconds: float
    stats_delta: Dict[str, int] = field(default_factory=dict)
    ir_delta: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "pass": self.name,
            "wall": self.wall,
            "cpu": self.cpu,
            "changed": self.changed,
            "noop": self.noop,
            "marginal_seconds": self.marginal_seconds,
            "stats_delta": dict(self.stats_delta),
            "ir_delta": dict(self.ir_delta),
        }


@dataclass
class ModuleExplanation:
    """Attribution for one module's incumbent sequence."""

    module: str
    sequence: Tuple[str, ...]
    passes: List[PassAttribution]
    #: deterministic program seconds with this module compiled under
    #: ``sequence[:k]`` for k = 0..len (other modules at their incumbents)
    prefix_seconds: List[float]

    @property
    def n_noop(self) -> int:
        return sum(1 for p in self.passes if p.noop)

    def to_dict(self) -> Dict[str, object]:
        return {
            "module": self.module,
            "sequence": list(self.sequence),
            "n_noop": self.n_noop,
            "passes": [p.to_dict() for p in self.passes],
            "prefix_seconds": list(self.prefix_seconds),
        }


@dataclass
class ExplainReport:
    """The full ``repro explain`` result for one run directory."""

    run_dir: str
    program: str
    tuner: str
    seed: object
    platform: str
    best_config: Dict[str, Tuple[str, ...]]
    o3_seconds: float
    best_seconds: float
    modules: List[ModuleExplanation]
    #: compiles the replay actually performed vs. requests it absorbed
    compile_stats: Dict[str, object] = field(default_factory=dict)
    #: deterministic-executions performed vs. memoised by binary signature
    execution_stats: Dict[str, object] = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        return self.o3_seconds / self.best_seconds if self.best_seconds else 0.0

    @property
    def n_noop(self) -> int:
        return sum(m.n_noop for m in self.modules)

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": 1,
            "run_dir": self.run_dir,
            "program": self.program,
            "tuner": self.tuner,
            "seed": self.seed,
            "platform": self.platform,
            "best_config": {m: list(s) for m, s in self.best_config.items()},
            "o3_seconds": self.o3_seconds,
            "best_seconds": self.best_seconds,
            "speedup": self.speedup,
            "n_noop": self.n_noop,
            "modules": [m.to_dict() for m in self.modules],
            "compile_stats": dict(self.compile_stats),
            "execution_stats": dict(self.execution_stats),
        }

    def render(self) -> str:
        """Markdown/ASCII report (what the CLI prints)."""
        from repro.reporting import ascii_series, pass_attribution_table

        lines = [f"# Speedup attribution: {Path(self.run_dir).name}", ""]
        lines.append(
            f"- program: **{self.program}**  tuner: **{self.tuner}**  "
            f"seed: {self.seed}  platform: {self.platform}"
        )
        lines.append(
            f"- deterministic runtime: **{self.best_seconds * 1e6:.2f} us** "
            f"vs -O3 {self.o3_seconds * 1e6:.2f} us "
            f"(**{self.speedup:.3f}x**, noise-free cost model)"
        )
        lines.append(
            f"- modules explained: {len(self.modules)}  "
            f"no-op passes: {self.n_noop}"
        )
        lines.append("")
        for mod in self.modules:
            lines.append(f"## Module `{mod.module}` ({len(mod.sequence)} passes)")
            lines.append("")
            lines.append("```")
            lines.append(pass_attribution_table([p.to_dict() for p in mod.passes]))
            lines.append("```")
            lines.append("")
            if len(mod.prefix_seconds) > 2:
                lines.append("Cumulative runtime as the pipeline grows (prefix replay):")
                lines.append("")
                lines.append("```")
                lines.extend(
                    ascii_series(
                        [s * 1e6 for s in mod.prefix_seconds], unit="prefix length"
                    )
                )
                lines.append("```")
                lines.append("")
            noops = [p.name for p in mod.passes if p.noop]
            if noops:
                lines.append(
                    f"No-op passes (removal leaves the final IR identical): "
                    f"{', '.join(noops)}."
                )
                lines.append("")
        cs, es = self.compile_stats, self.execution_stats
        lines.append(
            f"Replay cost: {cs.get('compiles', '?')} compiles for "
            f"{cs.get('requests', '?')} requests (compile memo), "
            f"{es.get('executions', '?')} executions for "
            f"{es.get('requests', '?')} ablations (execution memo)."
        )
        return "\n".join(lines).rstrip() + "\n"


def _load_program(name: str):
    if name in cbench_names():
        return cbench_program(name)
    if name in spec_names():
        return spec_program(name)
    raise ValueError(f"unknown program {name!r} in run manifest")


class _Replayer:
    """Deterministic compile+execute service for ablation replays.

    Compiles are memoised for this replay in a dict keyed by the decoded
    ``(module, sequence)`` pair — the incumbent, every prefix, and every
    leave-one-out variant share it.  Executions are memoised by
    the profiler's execution memo, keyed by the linked modules' IR
    fingerprints: ablations that compile to IR-identical binaries share
    one execution and get exactly equal seconds."""

    def __init__(self, program, platform) -> None:
        self.program = program
        self.platform = platform
        self.target = platform.target_info()
        # seed is irrelevant: only the noise-free deterministic clock runs
        self.profiler = Profiler(platform, seed=0, fuel=program.fuel)
        self._compiled: Dict[Tuple[str, Tuple[str, ...]], CompiledModule] = {}
        self.exec_requests = 0
        self.compile_requests = 0

    def compiled(self, name: str, seq: Sequence[str]) -> CompiledModule:
        """The module compiled under ``seq`` (memoised for this replay)."""
        self.compile_requests += 1
        key = (name, tuple(seq))
        out = self._compiled.get(key)
        if out is None:
            cr = run_opt(self.program.get_module(name), list(seq), target=self.target)
            out = self._compiled[key] = CompiledModule(cr.module, cr.stats_json())
        return out

    def seconds(self, config: Dict[str, Sequence[str]]) -> float:
        """Deterministic program seconds for a full per-module config."""
        self.exec_requests += 1
        linked = [
            self.compiled(m.name, config.get(m.name, ()))
            for m in self.program.modules
        ]
        seconds, _result = self.profiler.deterministic_seconds(
            [c.module for c in linked],
            entry=self.program.entry,
            fingerprints=[c.fingerprint for c in linked],
        )
        return seconds

    def stats(self) -> Tuple[Dict[str, object], Dict[str, object]]:
        compile_stats = {
            "requests": self.compile_requests,
            "compiles": len(self._compiled),
            "cache_hits": self.compile_requests - len(self._compiled),
        }
        execution_stats = {
            "requests": self.exec_requests,
            "executions": self.exec_requests - self.profiler.execution_memo_hits,
        }
        return compile_stats, execution_stats


def explain_run(
    run_dir: Union[str, Path],
    prefixes: bool = True,
    tracer: Optional[Tracer] = None,
    write_json: bool = True,
) -> ExplainReport:
    """Attribute a recorded run's speedup to the passes that earned it.

    Loads ``run_dir``'s artifacts, rebuilds the program and platform from
    the manifest, replays the incumbent (``best_config``) with a full
    :class:`PassTrace`, then measures every leave-one-out and (with
    ``prefixes``) prefix ablation on the deterministic clock.  Pass a
    ``tracer`` to capture the replay as ``pass.*`` spans (exportable to a
    Chrome trace); with ``write_json`` the report is persisted atomically
    as ``explain.json`` inside the run directory, where ``repro analyze``
    and the warehouse pick it up.
    """
    run = load_run(run_dir)
    if run.result is None or not run.result.best_config:
        raise ValueError(
            f"run {run.path} has no best_config to explain "
            "(interrupted before its first feasible measurement?)"
        )
    man = run.manifest
    program = _load_program(str(man.get("program") or run.result.program))
    platform = get_platform(str(man.get("platform", "arm-a57")))
    tracer = tracer if tracer is not None else Tracer(enabled=False, keep=0)
    replayer = _Replayer(program, platform)

    best_config: Dict[str, Tuple[str, ...]] = {
        m: tuple(s) for m, s in run.result.best_config.items()
    }
    # -O3 anchor: the same named pipeline the task compiles its baseline with
    from repro.compiler.pipelines import pipeline as _pipeline

    o3_seq = tuple(_pipeline("-O3"))
    with tracer.span("explain.replay", modules=len(best_config)):
        o3_seconds = replayer.seconds({m.name: o3_seq for m in program.modules})
        full_config = {
            m.name: best_config.get(m.name, o3_seq) for m in program.modules
        }
        best_seconds = replayer.seconds(full_config)

        modules: List[ModuleExplanation] = []
        for name in sorted(best_config):
            seq = best_config[name]
            # full traced replay: per-pass timing, stats and IR deltas
            trace = PassTrace()
            with tracer.span(
                "pass.pipeline", module=name, length=len(seq)
            ) as sp:
                base = tracer.now()
                run_opt(
                    program.get_module(name), list(seq),
                    target=replayer.target, trace=trace,
                )
                for e in trace.entries:
                    tracer.span_event(
                        "pass.run",
                        wall=e.wall,
                        cpu=e.cpu,
                        ts=base + e.offset,
                        index=e.index,
                        module=name,
                        changed=e.changed,
                        stats_delta=e.stats_delta,
                        ir_delta=e.ir_delta(),
                        **{"pass": e.name},
                    )
                sp.set(**trace.summary())

            full_fp = replayer.compiled(name, seq).fingerprint
            attributions: List[PassAttribution] = []
            for i, entry in enumerate(trace.entries):
                ablated = seq[:i] + seq[i + 1:]
                noop = replayer.compiled(name, ablated).fingerprint == full_fp
                if noop:
                    marginal = 0.0
                else:
                    cfg = dict(full_config)
                    cfg[name] = ablated
                    marginal = replayer.seconds(cfg) - best_seconds
                attributions.append(
                    PassAttribution(
                        index=entry.index,
                        name=entry.name,
                        wall=entry.wall,
                        cpu=entry.cpu,
                        changed=entry.changed,
                        noop=noop,
                        marginal_seconds=marginal,
                        stats_delta=entry.stats_delta,
                        ir_delta=entry.ir_delta(),
                    )
                )

            prefix_seconds: List[float] = []
            if prefixes:
                for k in range(len(seq) + 1):
                    cfg = dict(full_config)
                    cfg[name] = seq[:k]
                    prefix_seconds.append(replayer.seconds(cfg))

            modules.append(
                ModuleExplanation(
                    module=name,
                    sequence=seq,
                    passes=attributions,
                    prefix_seconds=prefix_seconds,
                )
            )

    compile_stats, execution_stats = replayer.stats()
    report = ExplainReport(
        run_dir=str(run.path),
        program=program.name,
        tuner=run.result.tuner,
        seed=man.get("seed"),
        platform=str(man.get("platform", "arm-a57")),
        best_config=best_config,
        o3_seconds=o3_seconds,
        best_seconds=best_seconds,
        modules=modules,
        compile_stats=compile_stats,
        execution_stats=execution_stats,
    )
    if write_json:
        _atomic_write_json(run.path / "explain.json", report.to_dict())
    return report
