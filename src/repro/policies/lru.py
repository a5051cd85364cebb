"""Least-Recently-Used eviction.

This is the policy Samba-CoE uses to swap experts between HBM and DDR
(§2.2).  It relies purely on historical access order, which §3.2 shows
can evict experts whose pre-assessed usage probability is actually
higher than the experts it keeps.
"""

from __future__ import annotations

from repro.policies.fifo import FIFOPolicy


class LRUPolicy(FIFOPolicy):
    """Evict the resident expert that was used least recently.

    FIFO's per-pool load-ordered map, with every access moving the
    expert to the most-recent end: victims stream out of the map in
    recency order.
    """

    def record_access(self, pool_name: str, expert_id: str) -> None:
        self._order[pool_name].move_to_end(expert_id)
