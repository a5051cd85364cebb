"""Global expert-residency index.

Before this index existed, answering "where can expert *e* be loaded
from right now?" meant scanning every executor's model pool — once in
the engine when a load actually happens and once per candidate executor
inside the scheduler's latency predictor.  With many executors and many
stage jobs those scans dominated the simulation hot path.

The :class:`ResidencyIndex` inverts the relationship: it maps each
expert id to the set of model pools currently holding it, and is kept
consistent by listening to every pool load and evict (see
:meth:`~repro.simulation.model_pool.ModelPool.add_listener`).  Queries
are then O(holders) — effectively O(1), since an expert is resident in
at most a handful of pools.  The host cache is not mirrored here:
whoever needs it (the engine's source-tier lookup, the scheduler's
latency predictor) asks the
:class:`~repro.simulation.host_cache.HostCache` itself.

Pool preference mirrors the engine's historical scan order: each pool
is registered with the *rank* of the first executor bound to it, and
:meth:`best_source_tier` returns the memory tier of the lowest-ranked
holding pool, exactly what the old first-match executor scan produced.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple, TYPE_CHECKING

from repro.hardware.memory import MemoryTier

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.model_pool import ModelPool


class ResidencyIndex:
    """Tracks which pools / tiers hold each expert, with O(1) updates."""

    def __init__(self) -> None:
        #: pool -> (rank, memory tier); rank is the index of the first
        #: executor bound to the pool, preserving scan preference order.
        self._pool_meta: "Dict[ModelPool, Tuple[int, MemoryTier]]" = {}
        #: expert_id -> pools currently holding it.
        self._holders: "Dict[str, Set[ModelPool]]" = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_pool(self, pool: "ModelPool", tier: MemoryTier, rank: int) -> None:
        """Track a model pool living in ``tier`` with scan rank ``rank``."""
        if pool in self._pool_meta:
            raise ValueError(f"pool '{pool.name}' is already registered")
        self._pool_meta[pool] = (rank, tier)
        pool.add_listener(self)
        for expert_id in pool.resident_expert_ids():
            self._holders.setdefault(expert_id, set()).add(pool)

    # ------------------------------------------------------------------
    # Listener callbacks (ModelPool)
    # ------------------------------------------------------------------
    def on_pool_load(self, pool: "ModelPool", expert_id: str) -> None:
        self._holders.setdefault(expert_id, set()).add(pool)

    def on_pool_evict(self, pool: "ModelPool", expert_id: str) -> None:
        holders = self._holders.get(expert_id)
        if holders is not None:
            holders.discard(pool)
            if not holders:
                del self._holders[expert_id]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def best_source_tier(
        self, expert_id: str, exclude_pool: "Optional[ModelPool]" = None
    ) -> Optional[MemoryTier]:
        """Memory tier of the preferred pool holding the expert.

        ``exclude_pool`` skips the asking executor's own pool (loading
        from yourself is not a transfer).  Returns ``None`` when no
        other pool holds the expert; callers fall back to the SSD (or
        to the host cache, which they ask first).
        """
        holders = self._holders.get(expert_id)
        if not holders:
            return None
        best: Optional[Tuple[int, MemoryTier]] = None
        for pool in holders:
            if pool is exclude_pool:
                continue
            meta = self._pool_meta[pool]
            if best is None or meta[0] < best[0]:
                best = meta
        return None if best is None else best[1]

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def check_consistency(self) -> None:
        """Verify the index against the ground-truth pools.

        Used by tests; raises ``AssertionError`` on any divergence.
        """
        for pool in self._pool_meta:
            for expert_id in pool.resident_expert_ids():
                assert pool in self._holders.get(expert_id, set()), (
                    f"expert '{expert_id}' resident in pool '{pool.name}' "
                    "but missing from the residency index"
                )
        for expert_id, holders in self._holders.items():
            for pool in holders:
                assert pool.contains(expert_id), (
                    f"residency index lists expert '{expert_id}' in pool "
                    f"'{pool.name}' but the pool does not hold it"
                )
