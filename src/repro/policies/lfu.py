"""Least-Frequently-Used eviction.

Not one of the paper's baselines, but a natural additional comparison
point: it approximates usage probability with a runtime frequency
counter, sitting between the history-only policies (LRU/FIFO) and
CoServe's pre-assessed probabilities.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.policies.base import EvictionContext, EvictionPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.model_pool import ModelPool


class LFUPolicy(EvictionPolicy):
    """Evict the resident expert with the fewest recorded accesses."""

    def __init__(self) -> None:
        self._access_counts: Dict[Tuple[str, str], int] = {}
        self._load_order: Dict[Tuple[str, str], int] = {}
        self._tick = 0

    def on_pool_load(self, pool: "ModelPool", expert_id: str) -> None:
        self._tick += 1
        self._load_order[(pool.name, expert_id)] = self._tick
        self._access_counts[(pool.name, expert_id)] = 0

    def record_access(self, pool_name: str, expert_id: str) -> None:
        self._access_counts[(pool_name, expert_id)] += 1

    def on_pool_evict(self, pool: "ModelPool", expert_id: str) -> None:
        del self._access_counts[(pool.name, expert_id)]
        del self._load_order[(pool.name, expert_id)]

    def victim_order(self, context: EvictionContext) -> List[str]:
        """Fewest accesses first, then earliest load, then expert id.

        Cut once the victims cover ``context.bytes_to_free``; when every
        evictable resident together falls short, all are returned.
        """

        def sort_key(expert_id: str):
            key = (context.pool_name, expert_id)
            return (self._access_counts[key], self._load_order[key], expert_id)

        sizes = context.resident_bytes
        victims: List[str] = []
        covered = 0
        for expert_id in sorted(context.evictable(), key=sort_key):
            if covered >= context.bytes_to_free:
                break
            victims.append(expert_id)
            covered += sizes[expert_id]
        return victims
