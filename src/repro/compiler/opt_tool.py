"""``opt``-like driver: apply a pass sequence, collect ``-stats-json``.

This is the programmatic stand-in for shelling out to
``opt -passes=... -stats -stats-json``: it clones the input module (the
"source file"), runs the sequence, and returns the optimised module together
with the statistics dictionary.  Compilation is cheap relative to execution,
matching the cost asymmetry CITROEN exploits (§5.2).

A tuner compiles many sequences that reach the same IR: most pass
applications leave the module unchanged, and sequences that differ still
meet in a few dozen distinct IR states.  A :class:`CompileGraph` passed
to :func:`run_opt` remembers, for every IR state it has reached, where
each pass leads from it, so a compile runs a pass only the first time it
is applied to a state, fingerprints the result only when the pass
reports that it changed the IR, and builds no module for a compile that
wants only its statistics.
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.compiler import passes as _passes  # noqa: F401  (registers passes)
from repro.compiler.ir import Module
from repro.compiler.pass_manager import PassManager, PassTrace, TargetInfo, registry
from repro.compiler.statistics import StatsCollector
from repro.compiler.textual import ir_fingerprint

__all__ = [
    "CompileGraph",
    "CompileResult",
    "GRAPH_CAPACITY",
    "run_opt",
    "available_passes",
    "state_key",
]

#: IR states one graph keeps (each holds a module, ~15 KB); the least
#: recently used is evicted first.
GRAPH_CAPACITY = 1024


@dataclass
class CompileResult:
    """Output of one ``opt`` invocation (``module`` is ``None`` for a
    stats-only compile)."""

    module: Optional[Module]
    stats: StatsCollector
    sequence: List[str]
    #: per-pass application records when the compile was traced
    trace: Optional[PassTrace] = None

    def stats_json(self) -> Dict[str, int]:
        """Flat ``{"pass.Counter": value}`` statistics dict."""
        return self.stats.as_dict()


_StateKey = Tuple[str, Tuple[int, ...]]
_Counters = Dict[Tuple[str, str], int]
#: a journal entry: from-key, target key, pass, to-key, statistics delta,
#: and the module of a state that was new to the graph that wrote it
_Entry = Tuple[Optional[_StateKey], Optional[Tuple], Optional[str], _StateKey,
               Optional[_Counters], Optional[Module]]


def state_key(module: Module) -> _StateKey:
    """The key of ``module``'s IR state.

    The printed IR covers every field a pass reads except each function's
    fresh-name counter, which decides the names later passes create; the
    key is the IR fingerprint plus those counters."""
    return ir_fingerprint(module), tuple(fn._counter for fn in module.functions.values())


def _target_key(target: TargetInfo) -> Tuple:
    return (type(target),) + tuple(sorted(vars(target).items()))


class _Node:
    """One IR state: its key, a module nothing mutates, and the edges
    leaving it, ``(target id, pass) -> (next state key, statistics the
    pass bumped)``."""

    __slots__ = ("key", "module", "edges")

    def __init__(self, key: _StateKey, module: Module) -> None:
        self.key = key
        self.module = module
        self.edges: Dict[Tuple[int, str], Tuple[_StateKey, _Counters]] = {}


class CompileGraph:
    """Content-addressed compile states: run each pass once per distinct IR.

    A node is one IR state, keyed by :func:`state_key`; an edge maps
    ``(state, target, pass)`` to the state the pass leads to and the
    statistics it bumps on the way.  :meth:`compile` starts at the node
    of its source module and follows one edge per pass, summing the
    statistics; a stretch of known edges is walked under one lock
    acquisition.  It runs a pass only where the edge is missing: on a
    clone of the node's module, outside the lock.  The ``changed`` flag
    the pass returns decides the rest: a pass that returns ``False``
    leaves the state as it was, so the clone is dropped and the edge
    loops back to the node unfingerprinted; any other value is keyed
    (a pass that over-reports costs one fingerprint and still lands on
    its own node).  Passes keep no state outside the module and the key
    covers all of it (a test pins the IR fields the key covers), so the
    module and statistics a compile returns equal a cold compile's
    wherever the flag is sound; the tests use every registered pass as
    the oracle for that.  A ``stats_only`` compile returns no module, so
    it clones nothing it did not run a pass on.

    At most :data:`GRAPH_CAPACITY` nodes are kept, least recently used
    evicted first; an edge into an evicted node counts as missing.  Nodes
    are never mutated and never handed out: a caller gets a clone.
    Source modules are held by identity (weakly): a source must not
    change while a graph is in use.  A pass that raises leaves no node or
    edge behind.

    Thread-safe.  A forked child keeps the nodes it inherits, with a
    fresh lock and zeroed pass counters; the pickled form is empty.
    Copies in several processes stay one logical graph through journals:
    once :meth:`take_journal` has been called, the graph records every
    edge and state it adds, and :meth:`merge` adds another copy's records
    (see :class:`~repro.core.eval_engine.CompileEngine`).  A graph nobody
    copies keeps no journal."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._nodes: "OrderedDict[_StateKey, _Node]" = OrderedDict()
        self._roots: "weakref.WeakKeyDictionary[Module, _StateKey]" = (
            weakref.WeakKeyDictionary()
        )
        #: target key -> the small id edges carry (cheaper to hash)
        self._targets: Dict[Tuple, int] = {}
        #: pass applications run, ones of those that led back to the
        #: state they started from, and ones an existing edge answered
        self.passes_run = 0
        self.passes_unchanged = 0
        self.passes_skipped = 0
        #: entries added since the last take_journal (None: not kept),
        #: and the pass counters as of that call
        self._journal: Optional[List[_Entry]] = None
        self._taken = (0, 0, 0)
        _LIVE.add(self)

    def __reduce__(self):
        return (CompileGraph, ())

    def stats(self) -> Dict[str, int]:
        """Live ``nodes`` and ``edges``, and the pass applications run
        (``passes_run``), run but led back to the state they started from
        (``passes_unchanged``, a subset of ``passes_run``: nearly all of
        them reported no change and were never fingerprinted), and
        skipped (``passes_skipped``) so far."""
        with self._lock:
            return {
                "nodes": len(self._nodes),
                "edges": sum(len(n.edges) for n in self._nodes.values()),
                "passes_run": self.passes_run,
                "passes_unchanged": self.passes_unchanged,
                "passes_skipped": self.passes_skipped,
            }

    def _admit(self, key: _StateKey, module: Module) -> _Node:
        """The node of ``key``, added with ``module`` if missing (call
        with the lock held)."""
        node = self._nodes.get(key)
        if node is not None:
            self._nodes.move_to_end(key)
            return node
        node = self._nodes[key] = _Node(key, module)
        if len(self._nodes) > GRAPH_CAPACITY:
            self._nodes.popitem(last=False)
        return node

    def _root(self, module: Module) -> _Node:
        with self._lock:
            key = self._roots.get(module)
            node = self._nodes.get(key) if key is not None else None
            if node is not None:
                self._nodes.move_to_end(key)
                return node
        work = module.clone()
        key = state_key(work)
        with self._lock:
            self._roots[module] = key
            if self._journal is not None and key not in self._nodes:
                self._journal.append((None, None, None, key, None, work))
            return self._admit(key, work)

    def take_journal(self) -> Tuple[List[_Entry], Tuple[int, int, int]]:
        """The entries this graph added since the last call, and its
        ``(passes_run, passes_unchanged, passes_skipped)`` over that
        stretch.  The first call starts the journal.

        An entry is ``(from-key, target key, pass, to-key, statistics
        delta, module)``: one edge, with the module of the state it
        leads to when that state was new here (else ``None``).  A root
        state is an entry with no edge (``from-key`` ``None``)."""
        with self._lock:
            entries = self._journal or []
            self._journal = []
            counts = (self.passes_run, self.passes_unchanged, self.passes_skipped)
            delta = tuple(a - b for a, b in zip(counts, self._taken))
            self._taken = counts
        return entries, delta

    def merge(
        self, entries: Sequence[_Entry], counts: Tuple[int, int, int] = (0, 0, 0)
    ) -> None:
        """Add another copy's journal entries, and add ``counts`` (its
        pass counters) to this graph's.  Merging the same entries twice
        is a no-op, and merged entries are not journaled again.  An edge
        whose from-state is missing here is dropped; one into a missing
        state is kept, and counts as missing until a compile re-adds the
        state."""
        with self._lock:
            nodes = self._nodes
            for src, tkey, name, key, delta, module in entries:
                if module is not None and key not in nodes:
                    self._admit(key, module)
                node = nodes.get(src) if src is not None else None
                if node is None:
                    continue
                tid = self._targets.setdefault(tkey, len(self._targets))
                if key == node.key:
                    key = node.key  # the walk tells self-loops apart by identity
                node.edges.setdefault((tid, name), (key, delta))
            self.passes_run += counts[0]
            self.passes_unchanged += counts[1]
            self.passes_skipped += counts[2]

    def compile(
        self,
        module: Module,
        sequence: Sequence[str],
        target: Optional[TargetInfo],
        stats_only: bool = False,
    ) -> CompileResult:
        """:func:`run_opt` through the graph (no trace, no verifier)."""
        seq = list(sequence)
        unknown = registry.unknown(seq)
        if unknown:  # before any lock or edge work
            raise KeyError(f"unknown passes: {unknown}")
        if target is None:
            target = TargetInfo()
        tkey = _target_key(target)
        tid = self._targets.get(tkey)
        if tid is None:
            with self._lock:
                tid = self._targets.setdefault(tkey, len(self._targets))
        nodes = self._nodes
        node = self._root(module)
        counters: _Counters = {}
        i, n = 0, len(seq)
        while True:
            # follow known edges, under one lock, up to the first missing one
            with self._lock:
                start = i
                while i < n:
                    edge = node.edges.get((tid, seq[i]))
                    if edge is None:
                        break
                    key, delta = edge
                    if key is not node.key:
                        nxt = nodes.get(key)
                        if nxt is None:
                            break
                        nodes.move_to_end(key)
                        node = nxt
                    if delta:
                        for stat, value in delta.items():
                            counters[stat] = counters.get(stat, 0) + value
                    i += 1
                self.passes_skipped += i - start
            if i == n:
                break
            name = seq[i]
            work = node.module.clone()
            stats = StatsCollector()
            changed = registry.create(name).run_on_module(work, stats, target)
            # only an explicit False is trusted; any other value is keyed
            key = node.key if changed is False else state_key(work)
            delta = stats.snapshot()
            with self._lock:
                self.passes_run += 1
                if key == node.key:
                    # a self-loop carries the node's own key object, which
                    # the walk above tells apart by identity
                    self.passes_unchanged += 1
                    node.edges[(tid, name)] = (node.key, delta)
                    if self._journal is not None:
                        self._journal.append((node.key, tkey, name, node.key, delta, None))
                else:
                    node.edges[(tid, name)] = (key, delta)
                    if self._journal is not None:
                        new = None if key in nodes else work
                        self._journal.append((node.key, tkey, name, key, delta, new))
                    node = self._admit(key, work)
            for stat, value in delta.items():
                counters[stat] = counters.get(stat, 0) + value
            i += 1
        result = None if stats_only else node.module.clone()
        return CompileResult(result, StatsCollector.from_snapshot(counters), seq)


#: every live graph, so that a forked child can re-arm each one
_LIVE: "weakref.WeakSet[CompileGraph]" = weakref.WeakSet()


def _after_fork_in_child() -> None:
    # a lock some other parent thread held at the fork would stay held
    for graph in list(_LIVE):
        graph._lock = threading.Lock()
        graph.passes_run = graph.passes_unchanged = graph.passes_skipped = 0
        graph._taken = (0, 0, 0)
        # the parent's unsent entries are already in the inherited nodes
        if graph._journal is not None:
            graph._journal = []


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


def run_opt(
    module: Module,
    sequence: Sequence[str],
    target: Optional[TargetInfo] = None,
    verify_each: bool = False,
    trace: Optional[PassTrace] = None,
    graph: Optional[CompileGraph] = None,
    stats_only: bool = False,
) -> CompileResult:
    """Apply ``sequence`` to a *clone* of ``module``; the input is untouched.

    ``trace`` (a :class:`~repro.compiler.pass_manager.PassTrace`) records
    per-pass timing, statistics deltas, and IR fingerprint deltas without
    changing the compile's output.

    With ``graph`` the compile runs only the passes the
    :class:`CompileGraph` has not yet applied to the state they meet;
    module and statistics are the same.  A traced or per-pass-verified
    compile bypasses the graph (both need every pass to run).

    With ``stats_only`` the result carries ``module=None``: only the
    statistics are wanted, and through a graph no module is built."""
    if graph is not None and trace is None and not verify_each:
        return graph.compile(module, sequence, target, stats_only=stats_only)
    work = module.clone()
    pm = PassManager(sequence, target=target, verify_each=verify_each)
    stats = pm.run(work, trace=trace)
    return CompileResult(None if stats_only else work, stats, list(sequence), trace=trace)


def available_passes() -> List[str]:
    """All registered pass names (the phase-ordering alphabet, Table 5.3)."""
    return sorted(registry.names())
