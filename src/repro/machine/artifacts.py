"""The measurement store: one content-addressed cache between a compiled
module and its measured verdict.

Everything is keyed by the **IR fingerprint** — a digest of the module's
printed text (:func:`~repro.compiler.textual.print_module` round-trips and
includes the module name, so the text alone determines the IR).  Distinct
pass sequences frequently lower to byte-identical IR, so fingerprint
keying shares one entry between them.

One :class:`ArtifactStore` LRU, owned by the
:class:`~repro.machine.profiler.Profiler`, holds two kinds of entry:

* ``fingerprint -> executable bytecode`` (the translated module, for the
  profiler), built on demand by :meth:`ArtifactStore.harvest`;
* ``(entry, fuel, fingerprints) -> recorded execution outcome``, the
  profiler's execution memo.

Fingerprints (:func:`~repro.compiler.textual.ir_fingerprint`) are
computed once per compiled module and only when it is first measured:
:class:`CompiledModule` carries the fingerprint next to the module it
digests, so nothing is memoized on the (mutable) module.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Hashable, List, Optional, Sequence

from repro.compiler.ir import Module
from repro.compiler.textual import ir_fingerprint
from repro.machine.bytecode import BytecodeModule, compile_module

__all__ = ["ArtifactStore", "CompiledModule", "ir_fingerprint"]


class CompiledModule:
    """One compile result: the optimised module and its statistics.

    Unpacks and indexes as ``(module, stats)``.  :attr:`fingerprint` is
    computed on first access — when the result is first measured — and
    kept with the result; the module may be shared by every slot of a
    compile batch that asked for the same candidate and must not be
    mutated."""

    __slots__ = ("module", "stats", "_fingerprint")

    def __init__(self, module: Module, stats: Dict[str, int]) -> None:
        self.module = module
        self.stats = stats
        self._fingerprint: Optional[str] = None

    def __iter__(self):
        return iter((self.module, self.stats))

    def __getitem__(self, index: int):
        return (self.module, self.stats)[index]

    @property
    def fingerprint(self) -> str:
        if self._fingerprint is None:
            self._fingerprint = ir_fingerprint(self.module)
        return self._fingerprint


class ArtifactStore:
    """Thread-safe bounded LRU over bytecode artifacts and execution outcomes.

    ``hits``/``misses`` count bytecode lookups in :meth:`harvest` (a miss
    builds the artifact); outcome lookups go through :meth:`get`/:meth:`put`
    and are counted by the profiler as ``execution_memo_hits``.
    """

    def __init__(self, max_entries: int = 1024) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable) -> Optional[object]:
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def put(self, key: Hashable, value: object) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def harvest(
        self,
        modules: Sequence[Module],
        fingerprints: Sequence[str],
        build: Callable[[Module], BytecodeModule] = compile_module,
    ) -> List[BytecodeModule]:
        """Executable bytecode for one linked program: each module's
        artifact is served from the store, or built with ``build`` and
        stored under its fingerprint."""
        out: List[BytecodeModule] = []
        for module, fp in zip(modules, fingerprints):
            bc = self.get(fp)
            with self._lock:
                if bc is None:
                    self.misses += 1
                else:
                    self.hits += 1
            if bc is None:
                bc = build(module)
                self.put(fp, bc)
            out.append(bc)
        return out

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"size": len(self._entries), "hits": self.hits, "misses": self.misses}
