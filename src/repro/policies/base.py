"""Eviction policy interface.

A policy listens to the model pools it serves (so it can maintain
recency, frequency or residency state), is told of each batch a
resident expert serves, and, when asked, produces a *victim ordering*:
evictable residents of one model pool, from the most to the least
attractive eviction candidate, cut off once they cover the bytes the
incoming expert needs.  The simulator evicts experts in that order
until the incoming expert fits; separating "ordering" (policy) from
"how many" (simulator) keeps every policy small.  A policy serves one
run: every serving system builds fresh policies per simulation.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, AbstractSet, List, Mapping, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.model_pool import ModelPool


@dataclass(frozen=True)
class EvictionContext:
    """Information available to a policy when choosing victims.

    Parameters
    ----------
    pool_name:
        Name of the model pool that needs space.  Executors bound to the
        same processor usually share one pool, so policy state (recency,
        frequency, load order) is keyed by pool rather than by executor.
    incoming_expert_id:
        The expert that needs to be loaded.
    bytes_to_free:
        How many bytes must be evicted before the incoming expert fits.
        Policies return only the victim prefix covering this amount —
        the simulator stops evicting once the expert fits, so the
        truncation is behaviour-preserving — or every evictable resident
        when even all of them cannot cover it.
    resident_bytes:
        Sizes (in bytes) of the experts resident in the pool, used to
        measure how much a victim prefix frees.  The engine passes the
        pool's live :meth:`~repro.simulation.model_pool.ModelPool.resident_sizes`
        view.
    protected_expert_ids:
        Experts that must not be evicted (e.g. experts currently being
        executed by an executor sharing the pool).
    """

    pool_name: str
    incoming_expert_id: str
    bytes_to_free: int
    resident_bytes: Mapping[str, int]
    protected_expert_ids: AbstractSet[str] = frozenset()

    def evictable(self) -> Tuple[str, ...]:
        """Residents that may legally be evicted, sorted by id."""
        blocked: Set[str] = set(self.protected_expert_ids)
        blocked.add(self.incoming_expert_id)
        return tuple(e for e in sorted(self.resident_bytes) if e not in blocked)


class EvictionPolicy(abc.ABC):
    """Base class for expert replacement policies.

    A policy is a model-pool listener: ``ServingSimulation`` subscribes
    it once to each distinct pool, so every load into and eviction from
    a pool (preloads included) reaches :meth:`on_pool_load` and
    :meth:`on_pool_evict` after the pool has changed.  A policy's
    victim order may therefore depend on the residency the pools
    reported rather than on a scan of the pool.  The engine calls
    :meth:`record_access` each time a resident expert serves a batch.
    """

    def on_pool_load(self, pool: "ModelPool", expert_id: str) -> None:
        """An expert was loaded into ``pool`` (which now holds it)."""

    def on_pool_evict(self, pool: "ModelPool", expert_id: str) -> None:
        """An expert was evicted from ``pool`` (which no longer holds it)."""

    def record_access(self, pool_name: str, expert_id: str) -> None:
        """Notify the policy that a resident expert served a batch."""

    @abc.abstractmethod
    def victim_order(self, context: EvictionContext) -> List[str]:
        """Return evictable experts ordered from first to last victim.

        Implementations must only return experts from
        ``context.evictable()``; the simulator evicts them in order
        until the incoming expert fits.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"
