"""First-In-First-Out eviction.

The Samba-CoE FIFO baseline (§5.1) replaces the LRU strategy with plain
FIFO: the expert that has been resident the longest is evicted first,
regardless of how recently or frequently it has been used.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, List

from repro.policies.base import EvictionContext, EvictionPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.model_pool import ModelPool


class FIFOPolicy(EvictionPolicy):
    """Evict the resident expert that was loaded earliest.

    Each pool's residents sit in an insertion-ordered map that the
    pool's own load and eviction notifications fill and empty, so the
    map *is* the pool's residency in load order and victims stream
    straight out of it: no per-candidate key, no sort.
    :class:`~repro.policies.lru.LRUPolicy` keeps the same map and moves
    an expert to its end on every access.
    """

    def __init__(self) -> None:
        self._order: Dict[str, "OrderedDict[str, None]"] = {}

    def on_pool_load(self, pool: "ModelPool", expert_id: str) -> None:
        order = self._order.get(pool.name)
        if order is None:
            order = self._order[pool.name] = OrderedDict()
        order[expert_id] = None

    def on_pool_evict(self, pool: "ModelPool", expert_id: str) -> None:
        del self._order[pool.name][expert_id]

    def victim_order(self, context: EvictionContext) -> List[str]:
        """Residents in map order, cut once the victims cover the bytes."""
        bytes_to_free = context.bytes_to_free
        if bytes_to_free <= 0:
            return []
        incoming = context.incoming_expert_id
        protected = context.protected_expert_ids
        sizes = context.resident_bytes
        victims: List[str] = []
        covered = 0
        for expert_id in self._order.get(context.pool_name, ()):
            if expert_id == incoming or expert_id in protected:
                continue
            victims.append(expert_id)
            covered += sizes[expert_id]
            if covered >= bytes_to_free:
                break
        return victims
