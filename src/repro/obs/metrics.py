"""Process-wide metrics: counters, gauges, and streaming histograms.

A :class:`MetricsRegistry` is a named bag of instruments::

    reg = MetricsRegistry()
    reg.counter("engine.cache_hits").inc()
    reg.gauge("engine.quarantine_size").set(3)
    reg.histogram("engine.compile_seconds").observe(dt)
    reg.snapshot()   # JSON-serialisable dict, histograms as p50/p90/p99

Instruments are get-or-create by name (asking for an existing name with a
different type raises), individually thread-safe, and picklable (locks are
re-created on unpickle) so a compile function closing over an instrumented
engine still crosses process boundaries.

The histogram is a *deterministic decimating reservoir*: every value is
retained until ``max_samples``, then the sample is decimated by half and
the retention stride doubles, so memory stays bounded while quantiles are
computed over an evenly spaced subsample of the stream.  No RNG is
consumed (tuner reproducibility is sacred here), and the quantile
estimates are always bracketed by the true ``min``/``max``, which are
tracked exactly — as are ``count`` and ``sum``.

:func:`get_registry` returns the process-wide default registry; component
registries (the engine's, a task's) can be that one or private instances —
the :class:`~repro.obs.recorder.RunRecorder` snapshots whichever it is
given into ``metrics.json``.
"""

from __future__ import annotations

import math
from threading import Lock
from typing import Dict, List, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "merge_snapshots",
]


class _Instrument:
    """Lock-owning base; pickling drops and re-creates the lock."""

    def __init__(self) -> None:
        self._lock = Lock()

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_lock"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = Lock()


class Counter(_Instrument):
    """Monotonically increasing value (ints or float seconds)."""

    def __init__(self) -> None:
        super().__init__()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge(_Instrument):
    """A value that can go up and down (sizes, rates)."""

    def __init__(self) -> None:
        super().__init__()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram(_Instrument):
    """Streaming distribution with deterministic bounded retention.

    Values are kept verbatim until ``max_samples``; the sample is then
    decimated by half (every other retained value) and the stride between
    retained observations doubles.  ``count``/``sum``/``min``/``max`` stay
    exact; quantiles are estimated over the evenly spaced subsample.
    """

    def __init__(self, max_samples: int = 4096) -> None:
        super().__init__()
        if max_samples < 2:
            raise ValueError(f"max_samples must be >= 2, got {max_samples}")
        self.max_samples = int(max_samples)
        self._samples: List[float] = []
        self._stride = 1
        self._seen_since_kept = 0
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            self._min = min(self._min, value)
            self._max = max(self._max, value)
            self._seen_since_kept += 1
            if self._seen_since_kept >= self._stride:
                self._seen_since_kept = 0
                self._samples.append(value)
                if len(self._samples) >= self.max_samples:
                    self._samples = self._samples[::2]
                    self._stride *= 2

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        with self._lock:
            return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        with self._lock:
            return self._max if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0..1) over the retained subsample."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            if not self._samples:
                return 0.0
            ordered = sorted(self._samples)
            idx = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
            return ordered[idx]

    def summary(self) -> Dict[str, float]:
        """The JSON-facing digest: count/sum/mean/min/max + p50/p90/p99."""
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry(_Instrument):
    """Named, typed, get-or-create collection of instruments."""

    def __init__(self) -> None:
        super().__init__()
        self._instruments: Dict[str, _Instrument] = {}

    def _get_or_create(self, name: str, cls, factory):
        with self._lock:
            inst = self._instruments.get(name)
            if inst is None:
                inst = self._instruments[name] = factory()
            elif not isinstance(inst, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(inst).__name__}, not {cls.__name__}"
                )
            return inst

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge, Gauge)

    def histogram(self, name: str, max_samples: int = 4096) -> Histogram:
        return self._get_or_create(
            name, Histogram, lambda: Histogram(max_samples=max_samples)
        )

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._instruments)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-serialisable state: counters, gauges, histogram digests."""
        with self._lock:
            items = sorted(self._instruments.items())
        out: Dict[str, Dict[str, object]] = {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        for name, inst in items:
            if isinstance(inst, Counter):
                v = inst.value
                out["counters"][name] = int(v) if v == int(v) else v
            elif isinstance(inst, Gauge):
                out["gauges"][name] = inst.value
            elif isinstance(inst, Histogram):
                out["histograms"][name] = inst.summary()
        return out

    def flat(self) -> Dict[str, float]:
        """One-level dict (histograms as ``name.p50`` etc.) for log lines."""
        snap = self.snapshot()
        out: Dict[str, float] = {}
        out.update(snap["counters"])
        out.update(snap["gauges"])
        for name, digest in snap["histograms"].items():
            for k in ("count", "mean", "p50", "p99"):
                out[f"{name}.{k}"] = digest[k]
        return out


def merge_snapshots(snapshots: List[Dict[str, Dict[str, object]]]) -> Dict[str, Dict[str, object]]:
    """Merge registry snapshots from successive run *epochs* into totals.

    A resumed run is several processes writing the same run directory;
    each leaves one snapshot.  The merge semantics are "total work
    performed across all processes": counters sum, gauges take the last
    epoch's value, and histograms combine exactly on ``count``/``sum``/
    ``min``/``max`` (``mean`` recomputed) while the quantile estimates
    are taken from the epoch with the most observations — per-sample
    streams are not persisted, so cross-epoch quantiles cannot be
    reconstructed and an approximation beats dropping epochs.
    """
    out: Dict[str, Dict[str, object]] = {
        "counters": {},
        "gauges": {},
        "histograms": {},
    }
    quantile_src: Dict[str, float] = {}  # per-histogram largest epoch count
    for snap in snapshots:
        if not snap:
            continue
        for name, v in (snap.get("counters") or {}).items():
            cur = out["counters"].get(name, 0)
            total = cur + v
            out["counters"][name] = (
                int(total) if float(total) == int(total) else total
            )
        for name, v in (snap.get("gauges") or {}).items():
            out["gauges"][name] = v
        for name, digest in (snap.get("histograms") or {}).items():
            agg = out["histograms"].get(name)
            if agg is None:
                out["histograms"][name] = dict(digest)
                quantile_src[name] = digest.get("count", 0)
                continue
            prev_count = agg["count"]
            agg["count"] = prev_count + digest["count"]
            agg["sum"] = agg["sum"] + digest["sum"]
            if digest["count"]:
                if prev_count:
                    agg["min"] = min(agg["min"], digest["min"])
                    agg["max"] = max(agg["max"], digest["max"])
                else:
                    agg["min"], agg["max"] = digest["min"], digest["max"]
            agg["mean"] = agg["sum"] / agg["count"] if agg["count"] else 0.0
            if digest.get("count", 0) >= quantile_src.get(name, 0):
                quantile_src[name] = digest.get("count", 0)
                for q in ("p50", "p90", "p99"):
                    agg[q] = digest[q]
    return out


_DEFAULT = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _DEFAULT
