"""Search traces shared by CITROEN and every baseline tuner."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Measurement", "TuningResult"]


@dataclass
class Measurement:
    """One expensive runtime measurement (or an infeasible attempt).

    ``sequence`` is the changed module's pass sequence — or, for
    whole-config measurements (``module == "all"``), every module's passes
    concatenated in module-name order.  ``sequences`` holds the full
    per-module configuration when the tuner records it.

    ``status`` classifies the outcome: ``"ok"``; ``"incorrect"``
    (differential test failed — a miscompilation); ``"crash"`` (the
    measured binary crashed or ran out of fuel); ``"error"``/``"timeout"``/
    ``"quarantined"`` (the candidate never compiled).  Infeasible
    measurements carry ``runtime == inf`` and ``correct == False`` but
    still occupy a budget slot — a fault-tolerant tuner records them and
    keeps searching.
    """

    index: int
    module: str
    sequence: Tuple[str, ...]
    runtime: float
    speedup_vs_o3: float
    correct: bool = True
    sequences: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    status: str = "ok"


@dataclass
class TuningResult:
    """Outcome of one tuning run.

    ``best_history[i]`` is the best runtime after ``i + 1`` measurements —
    the convergence curves of Figs 5.6/5.7 are cuts through this.
    """

    program: str
    tuner: str
    measurements: List[Measurement] = field(default_factory=list)
    o3_runtime: float = float("nan")
    o0_runtime: float = float("nan")
    best_config: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    timing: Dict[str, float] = field(default_factory=dict)
    extras: Dict[str, object] = field(default_factory=dict)

    @property
    def runtimes(self) -> np.ndarray:
        return np.asarray([m.runtime for m in self.measurements])

    @property
    def interrupted(self) -> bool:
        """True when the run stopped before spending its budget (graceful
        SIGINT/SIGTERM shutdown); such traces are partial but valid, and
        resumable via ``repro tune --resume`` when a WAL was recorded."""
        return bool(self.extras.get("interrupted", False))

    @property
    def n_infeasible(self) -> int:
        """Budget slots spent on candidates that failed to compile, crashed,
        or miscompiled (recorded with ``runtime == inf``)."""
        return sum(1 for m in self.measurements if not m.correct)

    @property
    def best_history(self) -> np.ndarray:
        return np.minimum.accumulate(self.runtimes)

    @property
    def best_runtime(self) -> float:
        return float(self.best_history[-1])

    def speedup_over_o3(self, at: Optional[int] = None) -> float:
        """Speedup of the best-found binary relative to -O3 after ``at``
        measurements (defaults to the full budget)."""
        hist = self.best_history
        idx = min(at, len(hist)) - 1 if at is not None else len(hist) - 1
        return float(self.o3_runtime / hist[idx])

    def speedup_curve(self, points: Sequence[int]) -> List[float]:
        """Speedups over -O3 at each budget cut in ``points``."""
        return [self.speedup_over_o3(p) for p in points]

    def to_dict(self) -> Dict[str, object]:
        """JSON-facing form of the full trace (the RunRecorder's
        ``result.json``).  Non-finite floats are kept as-is here; the
        recorder stringifies them at serialisation time."""
        return {
            "program": self.program,
            "tuner": self.tuner,
            "o3_runtime": self.o3_runtime,
            "o0_runtime": self.o0_runtime,
            "best_runtime": self.best_runtime if self.measurements else None,
            "best_config": {m: list(s) for m, s in self.best_config.items()},
            "n_measurements": len(self.measurements),
            "n_infeasible": self.n_infeasible,
            "measurements": [
                {
                    "index": m.index,
                    "module": m.module,
                    "sequence": list(m.sequence),
                    "runtime": m.runtime,
                    "speedup_vs_o3": m.speedup_vs_o3,
                    "correct": m.correct,
                    "status": m.status,
                }
                for m in self.measurements
            ],
            "timing": dict(self.timing),
            "extras": {
                k: v
                for k, v in self.extras.items()
                # keep result.json scannable: drop the bulky per-iteration
                # lists (decision records live in events.jsonl)
                if k
                not in (
                    "winner_strategies",
                    "chosen_modules",
                    "chosen_coverage",
                    "decisions",
                )
            },
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TuningResult":
        """Rebuild a result from :meth:`to_dict` output (or its JSON form).

        The recorder stringifies non-finite floats (``"inf"``/``"nan"``) at
        serialisation time; both the raw and stringified forms load, and
        ``best_config`` sequences come back as tuples — so the offline
        analyzer reads ``result.json`` without touching pickles.  Derived
        fields (``best_runtime``, ``n_measurements``, …) are recomputed,
        not trusted."""

        def _float(v, default=float("nan")) -> float:
            if v is None:
                return default
            return float(v)  # float("inf"/"-inf"/"nan") parses the strings

        result = cls(
            program=str(data.get("program", "")),
            tuner=str(data.get("tuner", "")),
            o3_runtime=_float(data.get("o3_runtime")),
            o0_runtime=_float(data.get("o0_runtime")),
        )
        result.best_config = {
            m: tuple(s) for m, s in (data.get("best_config") or {}).items()
        }
        # timing is mostly numeric, but carries annotation strings
        # (e.g. ``measure_engine``), toggle bools, and (in older results)
        # nested stats dicts such as ``artifact_store`` — only numerics and
        # the stringified non-finite floats are coerced; everything else
        # stays verbatim
        def _timing_value(v):
            if isinstance(v, str):
                return _float(v) if v in ("inf", "-inf", "nan") else v
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                return v
            return _float(v)

        result.timing = {
            k: _timing_value(v) for k, v in (data.get("timing") or {}).items()
        }
        result.extras = dict(data.get("extras") or {})
        for m in data.get("measurements") or []:
            result.measurements.append(
                Measurement(
                    index=int(m["index"]),
                    module=str(m["module"]),
                    sequence=tuple(m["sequence"]),
                    runtime=_float(m["runtime"]),
                    speedup_vs_o3=_float(m.get("speedup_vs_o3"), 0.0),
                    correct=bool(m.get("correct", True)),
                    sequences={
                        name: tuple(s)
                        for name, s in (m.get("sequences") or {}).items()
                    },
                    status=str(m.get("status", "ok")),
                )
            )
        return result
