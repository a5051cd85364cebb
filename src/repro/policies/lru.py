"""Least-Recently-Used eviction.

This is the policy Samba-CoE uses to swap experts between HBM and DDR
(§2.2).  It relies purely on historical access order, which §3.2 shows
can evict experts whose pre-assessed usage probability is actually
higher than the experts it keeps.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List

from repro.policies.base import EvictionContext, _PerPoolRecencyPolicy


class LRUPolicy(_PerPoolRecencyPolicy):
    """Evict the resident expert that was used least recently.

    Loads and accesses both bump recency; victims stream out of the
    pool's bump-ordered map (identical order to the former
    ``(tick, expert_id)`` sort, without building a key per resident
    per eviction).
    """

    # Both hooks are _bump, inlined: they fire once per batch start and
    # once per expert load, and the delegating frame is measurable at
    # million-request scale.

    def record_load(self, pool_name: str, expert_id: str) -> None:
        pool_order = self._order.get(pool_name)
        if pool_order is None:
            self._order[pool_name] = OrderedDict({expert_id: None})
        elif expert_id in pool_order:
            pool_order.move_to_end(expert_id)
        else:
            pool_order[expert_id] = None

    record_access = record_load

    def record_eviction(self, pool_name: str, expert_id: str) -> None:
        self._forget(pool_name, expert_id)

    def victim_order(self, context: EvictionContext) -> List[str]:
        return self._victims_by_recency(context)
