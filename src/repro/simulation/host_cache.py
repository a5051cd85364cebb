"""Host-memory expert cache.

On the NUMA device, experts evicted from GPU memory can stay cached in
CPU memory (the DDR tier in Samba-CoE's HBM/DDR hierarchy, §2.2): a
later load then crosses PCIe instead of re-reading the SSD, which is an
order of magnitude faster (Figure 1).  The cache is managed with LRU
semantics and is shared by every GPU executor of a device.

UMA devices have no separate host tier, so they simply do not create a
cache.

Used bytes are tracked incrementally, so capacity checks and lookups
stay O(1) however full the cache is, and membership changes are
reported to registered listeners (CoServe's scheduler drops an
expert's cached prices on them).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple


class HostCache:
    """An LRU cache of expert weights held in CPU memory."""

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes < 0:
            raise ValueError("capacity_bytes must be non-negative")
        self.capacity_bytes = capacity_bytes
        self._resident: "OrderedDict[str, int]" = OrderedDict()
        self._used_bytes = 0
        self._listeners: List[object] = []

    # ------------------------------------------------------------------
    # Listeners
    # ------------------------------------------------------------------
    def add_listener(self, listener: object) -> None:
        """Register an observer notified of every insertion and removal.

        Listeners implement ``on_host_cache_put(cache, expert_id)`` and
        ``on_host_cache_remove(cache, expert_id)``.
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
        return tuple(self._resident)

    def contains(self, expert_id: str) -> bool:
        return expert_id in self._resident

    def lookup(self, expert_id: str) -> bool:
        """Check residency, refreshing the expert's recency on a hit."""
        if expert_id in self._resident:
            self._resident.move_to_end(expert_id)
            return True
        return False

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def put(self, expert_id: str, num_bytes: int) -> bool:
        """Insert an expert, evicting LRU entries until it fits.

        Returns whether the cache stored a new copy: ``False`` when the
        expert is larger than the whole cache (nothing is cached), and
        when the cache already holds it (its recency is refreshed, and
        no listener is notified).
        """
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        if num_bytes > self.capacity_bytes:
            return False
        if expert_id in self._resident:
            self._resident.move_to_end(expert_id)
            return False
        while self._used_bytes + num_bytes > self.capacity_bytes and self._resident:
            victim, freed = self._resident.popitem(last=False)
            self._used_bytes -= freed
            for listener in self._listeners:
                listener.on_host_cache_remove(self, victim)
        self._resident[expert_id] = num_bytes
        self._used_bytes += num_bytes
        for listener in self._listeners:
            listener.on_host_cache_put(self, expert_id)
        return True

    def remove(self, expert_id: str) -> Optional[int]:
        """Drop an expert from the cache if present."""
        freed = self._resident.pop(expert_id, None)
        if freed is not None:
            self._used_bytes -= freed
            for listener in self._listeners:
                listener.on_host_cache_remove(self, expert_id)
        return freed

    def clear(self) -> None:
        """Drop every expert, one at a time, notifying each removal."""
        for expert_id in tuple(self._resident):
            self.remove(expert_id)
