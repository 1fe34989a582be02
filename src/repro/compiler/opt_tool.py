"""``opt``-like driver: apply a pass sequence, collect ``-stats-json``.

This is the programmatic stand-in for shelling out to
``opt -passes=... -stats -stats-json``: it clones the input module (the
"source file"), runs the sequence, and returns the optimised module together
with the statistics dictionary.  Compilation is cheap relative to execution,
matching the cost asymmetry CITROEN exploits (§5.2).

A tuner compiles many sequences that share a prefix with one compiled
before (DES and GA children keep most of their parent's genes).  A
:class:`PrefixSnapshots` store passed to :func:`run_opt` keeps the IR and
statistics reached after a few prefix depths, and a later compile with
the same prefix resumes from there instead of from the source module.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.compiler import passes as _passes  # noqa: F401  (registers passes)
from repro.compiler.ir import Module
from repro.compiler.pass_manager import PassManager, PassTrace, TargetInfo, registry
from repro.compiler.statistics import StatsCollector

__all__ = [
    "CompileResult",
    "PrefixSnapshots",
    "SNAPSHOT_CAPACITY",
    "SNAPSHOT_DEPTHS",
    "run_opt",
    "available_passes",
]

#: Pass-prefix depths after which a compile may leave a snapshot.  Few and
#: deep: restoring a snapshot costs the same module clone a cold compile
#: starts with, but capturing one costs an extra clone (~two pass
#: applications), so every eligible depth would spend most of what it saves.
SNAPSHOT_DEPTHS = (4, 8, 12)
#: Snapshots one store keeps; the least recently used is evicted first.
SNAPSHOT_CAPACITY = 512
#: Prefixes a store remembers having seen once (admission candidates).
_SEEN_CAPACITY = 8 * SNAPSHOT_CAPACITY


@dataclass
class CompileResult:
    """Output of one ``opt`` invocation."""

    module: Module
    stats: StatsCollector
    sequence: List[str]
    #: per-pass application records when the compile was traced
    trace: Optional[PassTrace] = None

    def stats_json(self) -> Dict[str, int]:
        """Flat ``{"pass.Counter": value}`` statistics dict."""
        return self.stats.as_dict()


_Key = Tuple[Module, Optional[TargetInfo], Tuple[str, ...]]


class PrefixSnapshots:
    """Bounded store of compile states keyed by pass prefix.

    An entry maps ``(source module, target, pass-prefix)`` to a clone of
    the module after that prefix and a copy of the statistics counters it
    produced.  :meth:`compile` resumes from the deepest stored prefix of
    its sequence and runs only the suffix; the module and statistics it
    returns equal a cold compile's, because passes keep no state outside
    the module and :meth:`Module.clone` copies all of it (the invariant
    :func:`~repro.compiler.verify.verify_function` enforces).

    Only prefixes of :data:`SNAPSHOT_DEPTHS` passes are stored, and only
    the second time a compile runs through one: a prefix seen once is
    rarely seen again, and each capture costs a clone.  At most
    :data:`SNAPSHOT_CAPACITY` entries are kept, least recently used
    evicted first.  The store hands out clones only, never its own
    modules, so callers may mutate what they get back.  Keys hold the
    source module by identity: a source module must not change while a
    store is in use.

    Thread-safe.  A store serves only the process that made it: in a
    forked child, or unpickled in another process (its pickled form is
    empty), :func:`run_opt` compiles cold and leaves it alone.  Process
    workers therefore compile without snapshots: per-worker stores cost
    worker memory and did not make a pooled tune faster (DESIGN.md,
    "Compile path")."""

    def __init__(self) -> None:
        self._pid = os.getpid()
        self._lock = threading.Lock()
        self._entries: "OrderedDict[_Key, Tuple[Module, Dict]]" = OrderedDict()
        self._seen: "OrderedDict[_Key, None]" = OrderedDict()
        self.lookups = 0
        self.hits = 0
        self.captures = 0
        #: pass applications the hits did not have to run
        self.skipped_passes = 0

    def __reduce__(self):
        return (_empty_store, (self._pid,))

    @property
    def local(self) -> bool:
        """Whether this is the process that made the store."""
        return self._pid == os.getpid()

    def stats(self) -> Dict[str, int]:
        """The store's counters: compiles that looked up a
        prefix (``lookups``), how many resumed from one (``hits``),
        snapshots taken (``captures``), pass applications skipped and live
        entries."""
        with self._lock:
            return {
                "lookups": self.lookups,
                "hits": self.hits,
                "captures": self.captures,
                "skipped_passes": self.skipped_passes,
                "entries": len(self._entries),
            }

    def _restore(
        self, module: Module, seq: List[str], target: Optional[TargetInfo]
    ) -> Tuple[int, Module, StatsCollector]:
        """The deepest stored state of ``seq``'s prefixes (or the source
        at depth 0), as a private clone."""
        found = None
        with self._lock:
            self.lookups += 1
            for depth in reversed(SNAPSHOT_DEPTHS):
                if depth > len(seq):
                    continue
                key = (module, target, tuple(seq[:depth]))
                found = self._entries.get(key)
                if found is not None:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    self.skipped_passes += depth
                    break
        if found is None:
            return 0, module.clone(), StatsCollector()
        # entries are never mutated, so cloning outside the lock is safe
        # even if another thread evicts this one meanwhile
        snap, counters = found
        return depth, snap.clone(), StatsCollector.from_snapshot(counters)

    def _offer(self, key: _Key, work: Module, stats: StatsCollector) -> None:
        """A compile ran through prefix ``key``: store its state on the
        prefix's second sighting, else remember the first."""
        with self._lock:
            if key in self._entries:  # another thread captured it
                return
            if key not in self._seen:
                self._seen[key] = None
                if len(self._seen) > _SEEN_CAPACITY:
                    self._seen.popitem(last=False)
                return
            del self._seen[key]
        snap = work.clone()
        counters = stats.snapshot()
        with self._lock:
            self._entries[key] = (snap, counters)
            self.captures += 1
            if len(self._entries) > SNAPSHOT_CAPACITY:
                self._entries.popitem(last=False)

    def compile(
        self, module: Module, sequence: Sequence[str], target: Optional[TargetInfo]
    ) -> CompileResult:
        """:func:`run_opt` through the store (no trace, no verifier)."""
        seq = list(sequence)
        pm = PassManager(seq, target=target)  # rejects unknown passes first
        depth, work, stats = self._restore(module, seq, target)
        for stop in SNAPSHOT_DEPTHS + (len(seq),):
            if stop <= depth or stop > len(seq):
                continue
            PassManager(seq[depth:stop], target=pm.target).run(work, stats)
            depth = stop
            if stop in SNAPSHOT_DEPTHS:
                self._offer((module, target, tuple(seq[:stop])), work, stats)
        return CompileResult(work, stats, seq)


def _empty_store(owner_pid: int) -> PrefixSnapshots:
    """Unpickle a :class:`PrefixSnapshots`: empty, and still serving only
    the process that made the original."""
    store = PrefixSnapshots()
    store._pid = owner_pid
    return store


def run_opt(
    module: Module,
    sequence: Sequence[str],
    target: Optional[TargetInfo] = None,
    verify_each: bool = False,
    trace: Optional[PassTrace] = None,
    snapshots: Optional[PrefixSnapshots] = None,
) -> CompileResult:
    """Apply ``sequence`` to a *clone* of ``module``; the input is untouched.

    ``trace`` (a :class:`~repro.compiler.pass_manager.PassTrace`) records
    per-pass timing, statistics deltas, and IR fingerprint deltas without
    changing the compile's output.

    With ``snapshots`` the compile resumes from the deepest prefix of
    ``sequence`` the store holds for ``(module, target)`` and may leave a
    snapshot there (see :class:`PrefixSnapshots`); the result is the
    same.  A traced or per-pass-verified compile bypasses the store (both
    need every pass to run), and so does a process the store does not
    serve."""
    if snapshots is not None and trace is None and not verify_each and snapshots.local:
        return snapshots.compile(module, sequence, target)
    work = module.clone()
    pm = PassManager(sequence, target=target, verify_each=verify_each)
    stats = pm.run(work, trace=trace)
    return CompileResult(work, stats, list(sequence), trace=trace)


def available_passes() -> List[str]:
    """All registered pass names (the phase-ordering alphabet, Table 5.3)."""
    return sorted(registry.names())
