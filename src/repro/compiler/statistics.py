"""Per-pass compilation statistics, the paper's central signal.

Mirrors LLVM's ``opt -stats -stats-json`` output: each pass increments named
counters while it transforms the IR (``mem2reg.NumPromoted``,
``slp-vectorizer.NumVectorInstructions``, …).  CITROEN vectorises these
counters into the feature space its cost model is trained on (§5.3.3).
"""

from __future__ import annotations

import json
from typing import Dict, Iterator, List, Tuple

__all__ = ["StatsCollector", "flat_stat_key", "split_stat_key"]


def flat_stat_key(pass_name: str, counter: str) -> str:
    """The flat ``"pass.Counter"`` key of one statistic.

    Dots inside the *pass name* are backslash-escaped (as are literal
    backslashes), so a parameterized pass like ``"slp-vectorizer.w4"``
    cannot collide with ``("slp-vectorizer", "w4.Counter")`` once the
    tuple key is flattened for the vectorizer or the warehouse.  Counter
    names keep their dots verbatim: :func:`split_stat_key` splits at the
    first *unescaped* dot.
    """
    escaped = pass_name.replace("\\", "\\\\").replace(".", "\\.")
    return f"{escaped}.{counter}"


def split_stat_key(key: str) -> Tuple[str, str]:
    """Invert :func:`flat_stat_key`: ``"pass.Counter"`` -> ``(pass, counter)``."""
    out: List[str] = []
    i = 0
    while i < len(key):
        ch = key[i]
        if ch == "\\" and i + 1 < len(key):
            out.append(key[i + 1])
            i += 2
            continue
        if ch == ".":
            return "".join(out), key[i + 1:]
        out.append(ch)
        i += 1
    raise ValueError(f"not a flat pass.Counter key: {key!r}")


class StatsCollector:
    """Accumulates ``(pass, counter) -> int`` statistics during compilation."""

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, str], int] = {}

    @classmethod
    def from_snapshot(cls, counters: Dict[Tuple[str, str], int]) -> "StatsCollector":
        """A collector holding a copy of :meth:`snapshot`'s ``counters``."""
        out = cls()
        out._counters = dict(counters)
        return out

    def bump(self, pass_name: str, counter: str, amount: int = 1) -> None:
        """Increment ``<pass_name>.<counter>`` by ``amount`` (no-op if 0)."""
        if amount == 0:
            return
        key = (pass_name, counter)
        self._counters[key] = self._counters.get(key, 0) + amount

    def get(self, pass_name: str, counter: str) -> int:
        """Current value of ``<pass_name>.<counter>`` (0 if unset)."""
        return self._counters.get((pass_name, counter), 0)

    def items(self) -> Iterator[Tuple[Tuple[str, str], int]]:
        """Iterate over ``((pass, counter), value)`` pairs."""
        return iter(self._counters.items())

    def as_dict(self) -> Dict[str, int]:
        """Flat ``{"pass.Counter": value}`` dict, like ``-stats-json``.

        Keys come from :func:`flat_stat_key`, so pass names containing
        ``.`` are escaped rather than silently aliasing another pass's
        counter (no registered pass carries a dot today, which is why
        this stays byte-compatible with earlier runs)."""
        return {
            flat_stat_key(p, c): v for (p, c), v in sorted(self._counters.items())
        }

    def to_json(self) -> str:
        """JSON rendering of :meth:`as_dict`."""
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def snapshot(self) -> Dict[Tuple[str, str], int]:
        """A point-in-time copy of the raw counters, for :meth:`diff`."""
        return dict(self._counters)

    def diff(self, before: Dict[Tuple[str, str], int]) -> Dict[str, int]:
        """Flat counter deltas accumulated since ``before`` was snapshot.

        Only non-zero deltas are returned — the per-pass statistics delta
        a :class:`~repro.compiler.pass_manager.PassTrace` records is
        usually a handful of counters out of hundreds."""
        out: Dict[str, int] = {}
        for (p, c), v in sorted(self._counters.items()):
            d = v - before.get((p, c), 0)
            if d != 0:
                out[flat_stat_key(p, c)] = d
        return out

    def merge(self, other: "StatsCollector") -> None:
        """Add every counter of ``other`` into this collector."""
        for (p, c), v in other.items():
            self.bump(p, c, v)

    def scoped(self, pass_name: str) -> "ScopedStats":
        """A view bound to one pass name."""
        return ScopedStats(self, pass_name)

    def __len__(self) -> int:
        return len(self._counters)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StatsCollector({self.as_dict()})"


class ScopedStats:
    """A view of the collector bound to one pass name."""

    __slots__ = ("_parent", "_pass")

    def __init__(self, parent: StatsCollector, pass_name: str) -> None:
        self._parent = parent
        self._pass = pass_name

    def bump(self, counter: str, amount: int = 1) -> None:
        """Increment ``counter`` for the bound pass."""
        self._parent.bump(self._pass, counter, amount)
