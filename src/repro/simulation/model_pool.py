"""Per-executor model pools.

The model pool is the working-memory area an executor keeps loaded
experts in (Figure 7).  It is a byte-accounted set: experts are loaded
until the pool's capacity is reached, after which the eviction policy
must free space.

Used bytes are tracked incrementally (``can_fit`` sits on the engine's
expert-load hot path), and the pool is the one owner of residency:
every membership change is reported to registered listeners after it
happens.  The serving simulation's eviction policy and CoServe's price
rows listen this way, and the engine asks the pools themselves where
else an expert is resident, so no copy of residency has to be fed by
hand.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, List, Mapping, Tuple


class ModelPool:
    """A capacity-bounded set of resident experts."""

    def __init__(self, name: str, capacity_bytes: int) -> None:
        if capacity_bytes < 0:
            raise ValueError("capacity_bytes must be non-negative")
        self.name = name
        self.capacity_bytes = capacity_bytes
        self._resident: Dict[str, int] = {}
        self._used_bytes = 0
        self._listeners: List[object] = []

    # ------------------------------------------------------------------
    # Listeners
    # ------------------------------------------------------------------
    def add_listener(self, listener: object) -> None:
        """Register an observer notified of every load and eviction.

        Listeners implement ``on_pool_load(pool, expert_id)`` and
        ``on_pool_evict(pool, expert_id)``.
        """
        self._listeners.append(listener)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def used_bytes(self) -> int:
        return self._used_bytes

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self._used_bytes

    @property
    def resident_count(self) -> int:
        return len(self._resident)

    def resident_expert_ids(self) -> Tuple[str, ...]:
        """Currently resident experts, sorted by id."""
        return tuple(sorted(self._resident))

    def resident_sizes(self) -> Mapping[str, int]:
        """Read-only live view of resident expert sizes in bytes."""
        return MappingProxyType(self._resident)

    def contains(self, expert_id: str) -> bool:
        return expert_id in self._resident

    def __contains__(self, expert_id: str) -> bool:
        return expert_id in self._resident

    def __len__(self) -> int:
        return len(self._resident)

    def can_fit(self, num_bytes: int) -> bool:
        return num_bytes <= self.capacity_bytes - self._used_bytes

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def load(self, expert_id: str, num_bytes: int) -> None:
        """Add an expert to the pool; it must fit."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        if expert_id in self._resident:
            raise ValueError(f"expert '{expert_id}' is already resident in pool '{self.name}'")
        if not self.can_fit(num_bytes):
            raise MemoryError(
                f"expert '{expert_id}' ({num_bytes} bytes) does not fit in pool "
                f"'{self.name}' ({self.free_bytes} bytes free)"
            )
        self._resident[expert_id] = num_bytes
        self._used_bytes += num_bytes
        for listener in self._listeners:
            listener.on_pool_load(self, expert_id)

    def evict(self, expert_id: str) -> int:
        """Remove an expert from the pool and return its size."""
        if expert_id not in self._resident:
            raise KeyError(f"expert '{expert_id}' is not resident in pool '{self.name}'")
        freed = self._resident.pop(expert_id)
        self._used_bytes -= freed
        for listener in self._listeners:
            listener.on_pool_evict(self, expert_id)
        return freed

    def clear(self) -> None:
        """Evict every resident, one at a time, notifying each eviction."""
        for expert_id in tuple(self._resident):
            self.evict(expert_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ModelPool(name={self.name!r}, resident={self.resident_count}, "
            f"used={self.used_bytes}/{self.capacity_bytes})"
        )
