"""Structured tracing: nestable spans and point events.

A :class:`Tracer` hands out :class:`Span` context managers::

    with tracer.span("propose", iteration=3) as sp:
        ...
        sp.set(candidates=len(raw))

Each finished span becomes one JSON-serialisable event dict capturing its
name, start time (relative to the tracer's epoch), wall seconds, per-thread
CPU seconds, nesting depth, parent span, thread name, and attributes.
Point events (``tracer.event("cache_flush", size=n)``) record a moment
without a duration.  Events flow to an optional ``sink`` callable — the
:class:`~repro.obs.recorder.RunRecorder` hooks its JSONL writer there —
and into a bounded in-memory buffer that
:func:`repro.reporting.span_table` renders directly.

Design constraints honoured throughout:

* **disabled is free** — a tracer built with ``enabled=False`` (or the
  module-level :data:`NULL_TRACER`) returns one shared no-op span, so an
  uninstrumented hot loop pays a single attribute check per call site and
  tuner behaviour stays bit-identical (tracing consumes no RNG);
* **thread-safe** — the span stack is thread-local (workers inside the
  :class:`~repro.core.eval_engine.CompileEngine` nest correctly under the
  batch span of the submitting thread only if they share it; worker-side
  spans start their own stack), while the buffer and sink are guarded by
  one lock;
* **no wall-clock timestamps** — event ``ts`` is relative to the tracer
  epoch, so two runs at the same seed produce structurally identical
  traces.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from typing import Callable, Dict, List, Optional

__all__ = ["NULL_TRACER", "Span", "Tracer"]


class _NullSpan:
    """Shared no-op span: the disabled-tracer fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def set(self, **attrs) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class Span:
    """One live span; finishes (and emits) on ``__exit__``."""

    __slots__ = (
        "tracer", "name", "attrs", "span_id", "parent_id", "depth",
        "_t0", "_ts", "_cpu0",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, object]) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs

    def set(self, **attrs) -> "Span":
        """Attach attributes to the span while it is running."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        tracer = self.tracer
        stack = tracer._stack()
        self.parent_id = stack[-1].span_id if stack else None
        self.depth = len(stack)
        self.span_id = next(tracer._ids)
        stack.append(self)
        self._ts = time.perf_counter() - tracer._epoch
        self._t0 = time.perf_counter()
        self._cpu0 = time.thread_time()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        wall = time.perf_counter() - self._t0
        cpu = time.thread_time() - self._cpu0
        tracer = self.tracer
        stack = tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        event = {
            "type": "span",
            "name": self.name,
            "ts": self._ts,
            "wall": wall,
            "cpu": cpu,
            "id": self.span_id,
            "parent": self.parent_id,
            "depth": self.depth,
            "thread": threading.current_thread().name,
        }
        if exc_type is not None:
            event["error"] = exc_type.__name__
        if self.attrs:
            event["attrs"] = self.attrs
        tracer._emit(event)
        return None


class Tracer:
    """Factory for nestable spans and point events.

    Parameters
    ----------
    sink:
        optional callable receiving each finished event dict (the
        RunRecorder's JSONL writer); exceptions from the sink propagate —
        a broken trace file should fail loudly, not silently drop spans.
    enabled:
        when ``False`` every ``span()``/``event()`` is a no-op.
    keep:
        bounded count of events retained in memory for
        :meth:`events`/:func:`repro.reporting.span_table` (0 disables
        retention; the sink still sees everything).
    """

    def __init__(
        self,
        sink: Optional[Callable[[Dict[str, object]], None]] = None,
        enabled: bool = True,
        keep: int = 100_000,
    ) -> None:
        self.sink = sink
        self.enabled = bool(enabled)
        self._keep = int(keep)
        self._buffer: "deque[Dict[str, object]]" = deque(maxlen=self._keep or 1)
        self._epoch = time.perf_counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- span stack (per thread) ------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- emission ---------------------------------------------------------------
    def _emit(self, event: Dict[str, object]) -> None:
        with self._lock:
            if self._keep:
                self._buffer.append(event)
            if self.sink is not None:
                self.sink(event)

    # -- public API -------------------------------------------------------------
    def span(self, name: str, **attrs):
        """A context manager timing the enclosed block as one span."""
        if not self.enabled:
            return _NULL_SPAN
        return Span(self, name, attrs)

    def now(self) -> float:
        """Seconds since the tracer epoch (the ``ts`` clock of events)."""
        return time.perf_counter() - self._epoch

    def span_event(
        self,
        name: str,
        wall: float,
        cpu: float = 0.0,
        ts: Optional[float] = None,
        **attrs,
    ) -> None:
        """Emit a span whose timing was measured *outside* the tracer.

        Retrospective instrumentation: code that already timed a unit of
        work (e.g. a :class:`~repro.compiler.pass_manager.PassTrace`
        replay) can inject it as a first-class span — it nests under the
        calling thread's current live span and renders identically in
        :func:`repro.reporting.span_table` and the Chrome exporter.
        ``ts`` is the start time on the epoch clock (see :meth:`now`);
        when omitted the span is assumed to have just finished.
        """
        if not self.enabled:
            return
        stack = self._stack()
        event: Dict[str, object] = {
            "type": "span",
            "name": name,
            "ts": (self.now() - wall) if ts is None else ts,
            "wall": wall,
            "cpu": cpu,
            "id": next(self._ids),
            "parent": stack[-1].span_id if stack else None,
            "depth": len(stack),
            "thread": threading.current_thread().name,
        }
        if attrs:
            event["attrs"] = attrs
        self._emit(event)

    def event(self, name: str, **attrs) -> None:
        """Record an instantaneous point event."""
        if not self.enabled:
            return
        stack = self._stack()
        event: Dict[str, object] = {
            "type": "event",
            "name": name,
            "ts": time.perf_counter() - self._epoch,
            "parent": stack[-1].span_id if stack else None,
        }
        if attrs:
            event["attrs"] = attrs
        self._emit(event)

    def events(self) -> List[Dict[str, object]]:
        """Retained events (bounded by ``keep``), oldest first."""
        with self._lock:
            return list(self._buffer)

    def spans(self) -> List[Dict[str, object]]:
        """Retained span events only."""
        return [e for e in self.events() if e.get("type") == "span"]

    def clear(self) -> None:
        with self._lock:
            self._buffer.clear()

    # -- pickling (a compile function sent to a process worker may close over us)
    def __getstate__(self):
        state = self.__dict__.copy()
        state["_lock"] = None
        state["_local"] = None
        state["_buffer"] = None
        state["sink"] = None  # file handles don't cross process boundaries
        state["_ids"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._buffer = deque(maxlen=self._keep or 1)
        self._ids = itertools.count(1)


#: The shared disabled tracer: instrumented code defaults to this, so an
#: unconfigured run pays one ``enabled`` check per call site and nothing else.
NULL_TRACER = Tracer(enabled=False, keep=0)
