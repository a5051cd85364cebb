"""First-In-First-Out eviction.

The Samba-CoE FIFO baseline (§5.1) replaces the LRU strategy with plain
FIFO: the expert that has been resident the longest is evicted first,
regardless of how recently or frequently it has been used.
"""

from __future__ import annotations

from typing import List

from repro.policies.base import EvictionContext, _PerPoolRecencyPolicy


class FIFOPolicy(_PerPoolRecencyPolicy):
    """Evict the resident expert that was loaded earliest.

    Only loads bump recency (accesses do not), so the pool's
    bump-ordered map *is* the load order and victims stream out of it
    directly.
    """

    def record_load(self, pool_name: str, expert_id: str) -> None:
        self._bump(pool_name, expert_id)

    def record_eviction(self, pool_name: str, expert_id: str) -> None:
        self._forget(pool_name, expert_id)

    def victim_order(self, context: EvictionContext) -> List[str]:
        return self._victims_by_recency(context)
