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
is applied to a state, runs it on the state's own module in place (no
clone for the many runs that change nothing), fingerprints the result
only when the pass reports that it changed the IR, and builds no module
for a compile that wants only its statistics.
"""

from __future__ import annotations

import os
import pickle
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.compiler import passes as _passes  # noqa: F401  (registers passes)
from repro.compiler.ir import Module
from repro.compiler.pass_manager import PassManager, PassTrace, TargetInfo, registry
from repro.compiler.statistics import StatsCollector
from repro.compiler.textual import ir_fingerprint

__all__ = [
    "CompileGraph",
    "CompileResult",
    "GRAPH_CAPACITY",
    "Miss",
    "run_opt",
    "available_passes",
    "state_key",
]

#: IR states one graph keeps (each holds at most one module, ~15 KB);
#: the least recently used is evicted first.
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
#: and the pickled module of a state that was new to the graph that wrote it
_Entry = Tuple[Optional[_StateKey], Optional[Tuple], Optional[str], _StateKey,
               Optional[_Counters], Optional[bytes]]


def state_key(module: Module) -> _StateKey:
    """The key of ``module``'s IR state.

    The printed IR covers every field a pass reads except each function's
    fresh-name counter, which decides the names later passes create; the
    key is the IR fingerprint plus those counters."""
    return ir_fingerprint(module), tuple(fn._counter for fn in module.functions.values())


def _target_key(target: TargetInfo) -> Tuple:
    return (type(target),) + tuple(sorted(vars(target).items()))


class _Node:
    """One IR state: its key, its module, the edges leaving it,
    ``(target id, pass) -> (next state key, statistics the pass bumped)``,
    and the edge that created it.

    ``origin`` is ``(parent node, target, pass)``.  A node with an origin
    hands its module on to the state a pass creates from it, and holds
    ``None`` until it re-derives the module from its parent's.  A node
    without one (a root, a merged state, or one whose parent was dropped)
    is pinned: it keeps its module, and a pass runs on a clone of it.
    ``children`` are the nodes whose origin is this one."""

    __slots__ = ("key", "module", "edges", "origin", "children")

    def __init__(
        self, key: _StateKey, module: Optional[Module],
        origin: Optional[Tuple["_Node", TargetInfo, str]] = None,
    ) -> None:
        self.key = key
        self.module = module
        self.edges: Dict[Tuple[int, str], Tuple[_StateKey, _Counters]] = {}
        self.origin = origin
        self.children: List["_Node"] = []


class CompileGraph:
    """Content-addressed compile states: run each pass once per distinct IR.

    A node is one IR state, keyed by :func:`state_key`; an edge maps
    ``(state, target, pass)`` to the state the pass leads to and the
    statistics it bumps on the way.  A compile takes two steps.  The walk
    (:meth:`walk`) starts at the node of its source module and follows
    one edge per pass, summing the statistics, up to the first missing
    edge, and returns the finished result or a :class:`Miss`: the node
    and position it stopped at.  The run step (:meth:`resume`) continues
    from there and executes the missing pass on that node's own module,
    in place.  The ``changed`` flag the pass
    returns decides the rest: a pass that returns ``False`` leaves the
    state as it was, so the module stays with the node and the edge loops
    back to it unfingerprinted; any other value is keyed (a pass that
    over-reports costs one fingerprint and still lands on its own node).
    A pass that changes the IR hands the module on to the state it leads
    to.  The node it left keeps its key and edges, and re-derives its
    module (a clone of its parent's module plus the one pass that created
    it) only when it is needed again.  Roots and merged states have no
    creating edge, so a pass runs on a clone of their module.  The
    compile then walks on from the state the pass reached.

    Passes keep no state outside the module and the key covers all of it
    (a test pins the IR fields the key covers), so the module and
    statistics a compile returns equal a cold compile's wherever the flag
    is sound; the tests use every registered pass as the oracle for that.
    A ``stats_only`` compile returns no module; any other returns a clone
    of the final state's module, never the graph's own.

    At most :data:`GRAPH_CAPACITY` nodes are kept, so at most as many
    modules, least recently used evicted first; an edge into an evicted
    node counts as missing.  Evicting a node also drops the nodes that
    would re-derive their module from it, and pins the ones that hold
    theirs.  Source modules are held by identity (weakly): a source must
    not change while a graph is in use.  A pass that raises adds no node
    or edge, and leaves the node it ran on to re-derive its module.

    Thread-safe: a compile holds the lock while it walks and runs, as its
    passes mutate the graph's modules.  A forked child keeps the nodes it
    inherits, with a fresh lock and zeroed counters; the pickled form is
    empty.  Copies in several processes stay one logical graph through
    journals: once :meth:`take_journal` has been called, the graph records
    every edge and state it adds, and :meth:`merge` adds another copy's
    records (see :class:`~repro.core.eval_engine.CompileEngine`), until
    :meth:`end_journal`.  An entry pickles a new state's module when it
    is written, before a later run mutates the module in place.  A graph
    nobody copies keeps no journal."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._nodes: "OrderedDict[_StateKey, _Node]" = OrderedDict()
        self._roots: "weakref.WeakKeyDictionary[Module, _StateKey]" = (
            weakref.WeakKeyDictionary()
        )
        #: target key -> the small id edges carry (cheaper to hash)
        self._targets: Dict[Tuple, int] = {}
        #: pass applications run, ones of those that led back to the
        #: state they started from, ones an existing edge answered, and
        #: modules re-derived from a parent's
        self.passes_run = 0
        self.passes_unchanged = 0
        self.passes_skipped = 0
        self.rederived = 0
        #: entries added since the last take_journal (None: not kept),
        #: and the counters as of that call
        self._journal: Optional[List[_Entry]] = None
        self._taken = (0, 0, 0, 0)
        _LIVE.add(self)

    def __reduce__(self):
        return (CompileGraph, ())

    def stats(self) -> Dict[str, int]:
        """Live ``nodes`` and ``edges``, the pass applications run
        (``passes_run``), run but led back to the state they started from
        (``passes_unchanged``, a subset of ``passes_run``: nearly all of
        them reported no change and were never fingerprinted), and
        skipped (``passes_skipped``) so far, and the modules re-derived
        from a parent's (``rederived``)."""
        with self._lock:
            return {
                "nodes": len(self._nodes),
                "edges": sum(len(n.edges) for n in self._nodes.values()),
                "passes_run": self.passes_run,
                "passes_unchanged": self.passes_unchanged,
                "passes_skipped": self.passes_skipped,
                "rederived": self.rederived,
            }

    def _admit(
        self, key: _StateKey, module: Module,
        origin: Optional[Tuple[_Node, TargetInfo, str]] = None,
    ) -> _Node:
        """The node of ``key``, added with ``module`` and ``origin`` if
        missing; an existing node without its module takes ``module``
        (call with the lock held)."""
        node = self._nodes.get(key)
        if node is not None:
            self._nodes.move_to_end(key)
            if node.module is None:
                node.module = module
            return node
        node = self._nodes[key] = _Node(key, module, origin)
        if origin is not None:
            origin[0].children.append(node)
        if len(self._nodes) > GRAPH_CAPACITY:
            self._drop(self._nodes.popitem(last=False)[1])
        return node

    def _drop(self, node: _Node) -> None:
        """Remove ``node`` and the nodes that would re-derive their module
        from it, and pin those of its children that hold theirs (call
        with the lock held)."""
        if node.origin is not None:
            node.origin[0].children.remove(node)
            node.origin = None
        stack = [node]
        while stack:
            node = stack.pop()
            if self._nodes.get(node.key) is node:
                del self._nodes[node.key]
            for child in node.children:
                child.origin = None
                if child.module is None:
                    stack.append(child)
            node.children = []

    def _module(self, node: _Node) -> Module:
        """``node``'s module, re-derived along the creating edges of the
        nodes that handed theirs on (call with the lock held)."""
        chain = []
        while node.module is None:
            chain.append(node)
            node = node.origin[0]
        module = node.module
        for node in reversed(chain):
            _parent, target, name = node.origin
            module = module.clone()
            registry.create(name).run_on_module(module, StatsCollector(), target)
            node.module = module
            self.rederived += 1
        return module

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
                self._journal.append((None, None, None, key, None, _pickled(work)))
            return self._admit(key, work)

    def take_journal(self) -> Tuple[List[_Entry], Tuple[int, int, int, int]]:
        """The entries this graph added since the last call, and its
        ``(passes_run, passes_unchanged, passes_skipped, rederived)`` over
        that stretch.  The first call starts the journal.

        An entry is ``(from-key, target key, pass, to-key, statistics
        delta, module)``: one edge, with the pickled module of the state
        it leads to when that state was new here (else ``None``).  A root
        state is an entry with no edge (``from-key`` ``None``)."""
        with self._lock:
            entries = self._journal or []
            self._journal = []
            counts = (
                self.passes_run, self.passes_unchanged, self.passes_skipped, self.rederived
            )
            delta = tuple(a - b for a, b in zip(counts, self._taken))
            self._taken = counts
        return entries, delta

    def end_journal(self) -> None:
        """Stop the journal and drop the entries not yet taken (no copy
        will receive them); the next :meth:`take_journal` starts anew."""
        with self._lock:
            self._journal = None

    def merge(
        self, entries: Sequence[_Entry], counts: Tuple[int, ...] = (0, 0, 0, 0)
    ) -> None:
        """Add another copy's journal entries, and add ``counts`` (its
        counters) to this graph's.  Merging the same entries twice is a
        no-op, and merged entries are not journaled again.  A merged
        state is pinned.  An edge whose from-state is missing here is
        dropped; one into a missing state is kept, and counts as missing
        until a compile re-adds the state."""
        with self._lock:
            nodes = self._nodes
            for src, tkey, name, key, delta, module in entries:
                if module is not None and key not in nodes:
                    self._admit(key, pickle.loads(module))
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
            self.rederived += counts[3]

    def _follow(
        self, node: _Node, seq: List[str], tid: int, i: int, counters: _Counters
    ) -> Tuple[_Node, int]:
        """Follow known edges from ``node`` at pass ``i``, summing their
        statistics into ``counters``; the node and position of the first
        missing edge (or the end).  Call with the lock held."""
        nodes = self._nodes
        n = len(seq)
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
        return node, i

    def _run(
        self, node: _Node, name: str, tid: int, tkey: Tuple, target: TargetInfo,
        counters: _Counters,
    ) -> _Node:
        """Run pass ``name`` on ``node``'s module in place, add the edge,
        and return the node it leads to (call with the lock held)."""
        keep = node.origin is None  # a pinned node keeps its module
        if keep:
            work = node.module.clone()
        else:
            work = self._module(node)
            node.module = None  # back below, unless the pass moves the state
        stats = StatsCollector()
        changed = registry.create(name).run_on_module(work, stats, target)
        # only an explicit False is trusted; any other value is keyed
        key = node.key if changed is False else state_key(work)
        delta = stats.snapshot()
        self.passes_run += 1
        new = None
        if key == node.key:
            # a self-loop carries the node's own key object, which the
            # walk tells apart by identity
            key = node.key
            self.passes_unchanged += 1
            if not keep:
                node.module = work
            nxt = node
        else:
            if self._journal is not None and key not in self._nodes:
                new = _pickled(work)  # before a later run mutates it
            live = self._nodes.get(node.key) is node
            nxt = self._admit(key, work, (node, target, name) if live else None)
        node.edges[(tid, name)] = (key, delta)
        if self._journal is not None:
            self._journal.append((node.key, tkey, name, key, delta, new))
        for stat, value in delta.items():
            counters[stat] = counters.get(stat, 0) + value
        return nxt

    def walk(
        self,
        module: Module,
        sequence: Sequence[str],
        target: Optional[TargetInfo],
        stats_only: bool = False,
    ) -> Union[CompileResult, "Miss"]:
        """Follow known edges: the result :meth:`compile` would return when
        every pass has one, else the :class:`Miss` that :meth:`resume`
        continues from.  Runs no pass, except to re-derive the final
        state's module for a result that carries one; unknown passes
        raise before any edge work."""
        seq = list(sequence)
        unknown = registry.unknown(seq)
        if unknown:
            raise KeyError(f"unknown passes: {unknown}")
        if target is None:
            target = TargetInfo()
        tkey = _target_key(target)
        tid = self._targets.get(tkey)
        if tid is None:
            with self._lock:
                tid = self._targets.setdefault(tkey, len(self._targets))
        root = self._root(module)
        counters: _Counters = {}
        with self._lock:
            node, i = self._follow(root, seq, tid, 0, counters)
            if i == len(seq):
                self.passes_skipped += i
                return self._result(node, seq, counters, stats_only)
        return Miss(module, seq, target, tkey, tid, stats_only, node, i, counters)

    def resume(self, miss: "Miss") -> CompileResult:
        """Finish the compile a walk stopped at ``miss``: run each missing
        pass in place and walk on.  If the state it stopped at was dropped
        since, start again from the source module.  Safe to call again
        after a pass raised (its node re-derives its module)."""
        with self._lock:
            node = miss.node
            if self._nodes.get(node.key) is node:
                self.passes_skipped += miss.i
                return self._finish(node, miss.i, miss, dict(miss.counters))
        root = self._root(miss.module)
        with self._lock:
            return self._finish(root, 0, miss, {})

    def _finish(self, node: _Node, i: int, miss: "Miss", counters: _Counters) -> CompileResult:
        """Walk and run the rest of ``miss``'s compile from ``node`` at
        pass ``i`` (call with the lock held).  It walks before it runs: a
        compile since the walk may have added the edge it stopped at."""
        seq, tid = miss.seq, miss.tid
        while True:
            node, j = self._follow(node, seq, tid, i, counters)
            self.passes_skipped += j - i
            if j == len(seq):
                return self._result(node, seq, counters, miss.stats_only)
            node = self._run(node, seq[j], tid, miss.tkey, miss.target, counters)
            i = j + 1

    def _result(
        self, node: _Node, seq: List[str], counters: _Counters, stats_only: bool
    ) -> CompileResult:
        """The result of a compile that ended at ``node``: a clone of its
        module, never the graph's own (call with the lock held)."""
        out = None if stats_only else self._module(node).clone()
        return CompileResult(out, StatsCollector.from_snapshot(counters), seq)

    def compile(
        self,
        module: Module,
        sequence: Sequence[str],
        target: Optional[TargetInfo],
        stats_only: bool = False,
    ) -> CompileResult:
        """:func:`run_opt` through the graph (no trace, no verifier): walk,
        and run each missing pass in place."""
        out = self.walk(module, sequence, target, stats_only)
        return self.resume(out) if isinstance(out, Miss) else out


class Miss:
    """Where :meth:`CompileGraph.walk` stopped: the compile's arguments,
    the node of the first missing edge, the pass position there, and the
    statistics summed up to it.  ``left`` is the passes a
    :meth:`CompileGraph.resume` still has to walk or run."""

    __slots__ = ("module", "seq", "target", "tkey", "tid", "stats_only", "node", "i",
                 "counters")

    def __init__(self, module, seq, target, tkey, tid, stats_only, node, i, counters) -> None:
        self.module = module
        self.seq = seq
        self.target = target
        self.tkey = tkey
        self.tid = tid
        self.stats_only = stats_only
        self.node = node
        self.i = i
        self.counters = counters

    @property
    def left(self) -> int:
        return len(self.seq) - self.i


def _pickled(module: Module) -> bytes:
    return pickle.dumps(module, pickle.HIGHEST_PROTOCOL)


#: every live graph, so that a forked child can re-arm each one
_LIVE: "weakref.WeakSet[CompileGraph]" = weakref.WeakSet()


def _after_fork_in_child() -> None:
    # a lock some other parent thread held at the fork would stay held
    for graph in list(_LIVE):
        graph._lock = threading.Lock()
        graph.passes_run = graph.passes_unchanged = graph.passes_skipped = 0
        graph.rederived = 0
        graph._taken = (0, 0, 0, 0)
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
    resume: Optional[Miss] = None,
) -> CompileResult:
    """Apply ``sequence`` to a *clone* of ``module``; the input is untouched.

    ``trace`` (a :class:`~repro.compiler.pass_manager.PassTrace`) records
    per-pass timing, statistics deltas, and IR fingerprint deltas without
    changing the compile's output.

    With ``graph`` the compile runs only the passes the
    :class:`CompileGraph` has not yet applied to the state they meet;
    module and statistics are the same.  ``resume``, the :class:`Miss`
    that ``graph.walk`` returned for this same compile, continues it from
    where that walk stopped.  A traced or per-pass-verified compile
    bypasses the graph (both need every pass to run).

    With ``stats_only`` the result carries ``module=None``: only the
    statistics are wanted, and through a graph no module is built."""
    if graph is not None and trace is None and not verify_each:
        if resume is not None:
            return graph.resume(resume)
        return graph.compile(module, sequence, target, stats_only=stats_only)
    work = module.clone()
    pm = PassManager(sequence, target=target, verify_each=verify_each)
    stats = pm.run(work, trace=trace)
    return CompileResult(None if stats_only else work, stats, list(sequence), trace=trace)


def available_passes() -> List[str]:
    """All registered pass names (the phase-ordering alphabet, Table 5.3)."""
    return sorted(registry.names())
