"""Cross-sweep memo cache for solved MIS components.

The Fig. 8g/8h threshold sweeps re-run CTCR over a δ grid on one
instance. Because conflicts only accumulate monotonically-ish as δ
moves, consecutive sweep points share most of their conflict-hypergraph
*components* verbatim — same set ids, same weights, same edges. Solving
a component is the expensive part, so identical components are solved
once per process and replayed from this cache afterwards.

The key is a canonical content hash of the component **plus** every
solver knob that can change its answer (``exact``, ``node_budget``,
``max_exact_component``). Vertices are canonicalized through ``repr``,
which is stable across processes for the int/tuple vertices used here
(hash randomization never enters the key), so cached solutions are
valid to replay verbatim: equal key implies equal vertex ids.

Eviction is FIFO with a bounded entry count — sweep workloads revisit
recent structures, and components are small, so a simple bound keeps
memory flat without LRU bookkeeping.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.mis.hypergraph_mis import WeightedHypergraph

__all__ = ["MISComponentCache", "get_mis_cache", "clear_mis_cache"]


class MISComponentCache:
    """Bounded FIFO cache: canonical component key -> solution set."""

    def __init__(self, max_entries: int = 4096) -> None:
        self.max_entries = max_entries
        self._entries: OrderedDict[str, frozenset] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def key(
        sub: "WeightedHypergraph",
        node_budget: int,
        exact: bool,
        max_exact_component: int,
    ) -> str:
        """Canonical content hash of a component + solver knobs."""
        canon = (
            "hmis-v1",
            bool(exact),
            int(node_budget),
            int(max_exact_component),
            sorted((repr(v), sub.weights[v]) for v in sub.vertices),
            sorted(sorted(repr(v) for v in edge) for edge in sub.edges),
        )
        return hashlib.sha1(repr(canon).encode()).hexdigest()

    def get(self, key: str) -> set | None:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return set(entry)

    def put(self, key: str, solution: set) -> None:
        if key in self._entries:
            return
        self._entries[key] = frozenset(solution)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0


_GLOBAL_CACHE: MISComponentCache | None = None


def get_mis_cache() -> MISComponentCache:
    """Process-global cache shared by every CTCR build in this process."""
    global _GLOBAL_CACHE
    if _GLOBAL_CACHE is None:
        _GLOBAL_CACHE = MISComponentCache()
    return _GLOBAL_CACHE


def clear_mis_cache() -> None:
    """Reset the process-global cache (tests, benchmark baselines)."""
    if _GLOBAL_CACHE is not None:
        _GLOBAL_CACHE.clear()
