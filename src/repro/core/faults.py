"""Seeded fault injection for chaos-testing the evaluation pipeline.

Real phase-ordering searches hit unusual pass orders that crash ``opt``,
hang, fail transiently (file system, OOM-killer), or miscompile — the
entire reason the system carries differential testing (§1.1).  The
simulated compiler in this repo is too well-behaved to exercise those
paths, so :class:`FaultInjector` recreates them *deterministically*: every
``(module, sequence)`` candidate is hashed together with the injector seed
to decide whether — and how — it fails.  Two runs with the same seed see
exactly the same faults, so chaos runs stay reproducible and bisectable.

Fault taxonomy
--------------
``crash``
    the compile function raises :class:`CompilerCrash` on every attempt —
    a deterministic compiler bug.  The engine's retries cannot save it;
    the key lands in the quarantine set.
``hang``
    the compile function sleeps ``hang_seconds`` before returning — long
    enough to trip the engine's per-candidate timeout when one is set
    (without a timeout the candidate merely compiles late).
``transient``
    the first ``transient_failures`` attempts raise
    :class:`TransientCompileError`, then the compile succeeds — the case
    the engine's bounded retry-with-backoff exists for.
``miscompile``
    the compile succeeds but the returned binary's observable behaviour
    is corrupted (:func:`corrupt_module`), so differential testing flags
    the measurement and the tuner records it as infeasible.

The injector is generic: it wraps any ``fn(module_name, sequence) ->
result`` and only needs a ``corrupt_fn`` to implement ``miscompile`` for
the result type at hand (:class:`~repro.core.task.AutotuningTask` passes
one that corrupts the compiled :class:`~repro.compiler.ir.Module`).
"""

from __future__ import annotations

import hashlib
import time
from threading import Lock
from typing import Callable, Dict, Hashable, Optional, Sequence, Tuple

__all__ = [
    "FAULT_KINDS",
    "CompilerCrash",
    "TransientCompileError",
    "FaultInjector",
    "corrupt_module",
    "parse_fault_kinds",
]

#: The four injectable fault classes, in canonical order.
FAULT_KINDS: Tuple[str, ...] = ("crash", "hang", "transient", "miscompile")


class CompilerCrash(RuntimeError):
    """Injected deterministic compiler crash (fails on every attempt)."""


class TransientCompileError(RuntimeError):
    """Injected transient failure (succeeds after enough retries)."""


def parse_fault_kinds(spec: str) -> Tuple[str, ...]:
    """Parse a CLI fault list like ``"crash,transient"`` (or ``"all"``)."""
    spec = (spec or "").strip().lower()
    if spec in ("", "none"):
        return ()
    if spec == "all":
        return FAULT_KINDS
    kinds = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if part not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {part!r}; choose from {', '.join(FAULT_KINDS)}"
            )
        if part not in kinds:
            kinds.append(part)
    return tuple(kinds)


def _seq_key(seq: Sequence) -> Tuple:
    """A candidate sequence as a hashable, repr-stable tuple: pass names
    as they are, gene indices as ``int``."""
    return tuple(i if isinstance(i, str) else int(i) for i in seq)


def corrupt_module(compiled):
    """Corrupt a compiled ``(Module, stats)`` pair observably.

    Prepends an ``output`` of a sentinel constant to every function's entry
    block (on a clone — the input may be shared by other batch slots), so any
    execution of the module emits extra output values and its signature can
    no longer match the reference program's: differential testing is
    guaranteed to catch the miscompilation the moment the module runs.
    """
    from repro.compiler.ir import I32, Const, Instr

    module, stats = compiled
    bad = module.clone()
    for fn in bad.functions.values():
        entry = fn.entry
        insert_at = 0
        while insert_at < len(entry.instrs) and entry.instrs[insert_at].op == "phi":
            insert_at += 1
        entry.instrs.insert(
            insert_at, Instr("output", args=[Const(0x5EED, I32)])
        )
    return bad, stats


class FaultInjector:
    """Deterministic, seeded fault injection per ``(module, sequence)``.

    Parameters
    ----------
    rate:
        probability (per candidate key) of injecting a fault, in ``[0, 1]``.
    kinds:
        which fault classes may be injected; the class for a faulty key is
        itself chosen deterministically from this tuple.
    seed:
        the chaos seed — same seed, same faults, run after run.
    hang_seconds:
        sleep length of the ``hang`` fault (pick it above the engine's
        ``timeout`` to exercise the timeout path).
    transient_failures:
        how many attempts a ``transient`` key fails before succeeding
        (pair with the engine's ``max_retries``).  Attempts are counted
        per process, so a key compiled again in another process fails
        anew.
    corrupt_fn:
        maps a successful result to its miscompiled form; required for the
        ``miscompile`` kind to have any effect (``None`` leaves the result
        intact).
    """

    def __init__(
        self,
        rate: float = 0.05,
        kinds: Sequence[str] = FAULT_KINDS,
        seed: int = 0,
        hang_seconds: float = 0.25,
        transient_failures: int = 1,
        corrupt_fn: Optional[Callable[[object], object]] = None,
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {rate}")
        for k in kinds:
            if k not in FAULT_KINDS:
                raise ValueError(
                    f"unknown fault kind {k!r}; choose from {', '.join(FAULT_KINDS)}"
                )
        self.rate = float(rate)
        self.kinds: Tuple[str, ...] = tuple(kinds)
        self.seed = int(seed)
        self.hang_seconds = float(hang_seconds)
        self.transient_failures = int(transient_failures)
        self.corrupt_fn = corrupt_fn

        self._lock = Lock()
        self._transient_attempts: Dict[Hashable, int] = {}

    # -- deterministic fault assignment ------------------------------------
    def _digest(self, module_name: str, seq: Sequence) -> bytes:
        key = repr((self.seed, str(module_name), _seq_key(seq)))
        return hashlib.blake2b(key.encode("utf-8"), digest_size=16).digest()

    def fault_for(self, module_name: str, seq: Sequence) -> Optional[str]:
        """The fault class injected for this candidate, or ``None``.

        A pure function of ``(seed, module_name, sequence)`` — the same
        candidate gets the same answer on every call, in every run.  The
        sequence is gene indices or pass names (a task's compiles carry
        the decoded names, so every encoding of a pipeline faults alike).
        """
        if self.rate <= 0.0 or not self.kinds:
            return None
        d = self._digest(module_name, seq)
        u = int.from_bytes(d[:8], "big") / 2**64
        if u >= self.rate:
            return None
        return self.kinds[int.from_bytes(d[8:12], "big") % len(self.kinds)]

    # -- wrapping -----------------------------------------------------------
    def wrap(self, fn: Callable[[str, Sequence], object]) -> Callable:
        """Wrap ``fn(module_name, seq)`` with fault injection.

        The wrapper raises for ``crash``/``transient`` faults, delays for
        ``hang``, and corrupts the successful result for ``miscompile``;
        fault-free keys pass straight through.
        """

        def faulty(module_name: str, seq: Sequence):
            kind = self.fault_for(module_name, seq)
            if kind is None:
                return fn(module_name, seq)
            if kind == "crash":
                raise CompilerCrash(
                    f"injected compiler crash on ({module_name}, seed={self.seed})"
                )
            if kind == "hang":
                time.sleep(self.hang_seconds)
                return fn(module_name, seq)
            if kind == "transient":
                key = (module_name, _seq_key(seq))
                with self._lock:
                    n = self._transient_attempts.get(key, 0) + 1
                    self._transient_attempts[key] = n
                if n <= self.transient_failures:
                    raise TransientCompileError(
                        f"injected transient failure {n}/{self.transient_failures}"
                        f" on ({module_name}, seed={self.seed})"
                    )
                return fn(module_name, seq)
            # miscompile: succeed, but corrupt the observable behaviour
            out = fn(module_name, seq)
            return self.corrupt_fn(out) if self.corrupt_fn is not None else out

        return faulty
