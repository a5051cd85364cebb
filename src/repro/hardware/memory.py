"""Memory regions and tiers.

A :class:`MemoryRegion` names one fixed-capacity memory of a device and
the tier it belongs to.  It only describes the hardware: the memory
allocator (§4.4 of the paper) splits a region's capacity between model
pools, and the model pools and host caches of a simulation count the
bytes they hold themselves.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class MemoryTier(str, enum.Enum):
    """A level of the memory/storage hierarchy an expert may reside in."""

    GPU = "gpu"
    CPU = "cpu"
    UNIFIED = "unified"
    SSD = "ssd"


@dataclass(frozen=True)
class MemoryRegion:
    """A fixed-capacity memory region of a device.

    Parameters
    ----------
    name:
        Human-readable name, e.g. ``"numa.gpu"``.
    tier:
        Which :class:`MemoryTier` this region belongs to.
    capacity_bytes:
        Total capacity of the region.
    """

    name: str
    tier: MemoryTier
    capacity_bytes: int

    def __post_init__(self) -> None:
        if self.capacity_bytes < 0:
            raise ValueError(f"capacity_bytes must be non-negative, got {self.capacity_bytes}")
