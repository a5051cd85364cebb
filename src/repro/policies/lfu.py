"""Least-Frequently-Used eviction.

Not one of the paper's baselines, but a natural additional comparison
point: it approximates usage probability with a runtime frequency
counter, sitting between the history-only policies (LRU/FIFO) and
CoServe's pre-assessed probabilities.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.policies.base import EvictionContext, EvictionPolicy, select_victims


class LFUPolicy(EvictionPolicy):
    """Evict the resident expert with the fewest recorded accesses."""

    def __init__(self) -> None:
        self._access_counts: Dict[Tuple[str, str], int] = {}
        self._load_order: Dict[Tuple[str, str], int] = {}
        self._tick = 0

    def record_load(self, pool_name: str, expert_id: str) -> None:
        self._tick += 1
        self._load_order[(pool_name, expert_id)] = self._tick
        self._access_counts.setdefault((pool_name, expert_id), 0)

    def record_access(self, pool_name: str, expert_id: str) -> None:
        key = (pool_name, expert_id)
        self._access_counts[key] = self._access_counts.get(key, 0) + 1

    def record_eviction(self, pool_name: str, expert_id: str) -> None:
        self._access_counts.pop((pool_name, expert_id), None)
        self._load_order.pop((pool_name, expert_id), None)

    def victim_order(self, context: EvictionContext) -> List[str]:
        def sort_key(expert_id: str):
            key = (context.pool_name, expert_id)
            return (
                self._access_counts.get(key, 0),
                self._load_order.get(key, 0),
                expert_id,
            )

        return select_victims(
            context.evictable(), sort_key, context.bytes_to_free, context.resident_bytes
        )
