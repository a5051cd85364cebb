"""Shared serial resources.

Multiple inference executors can be bound to the same physical
processor (e.g. three GPU executors on one RTX 3080Ti) and their expert
loads share the same SSD and PCIe link.  A :class:`SerialResource`
models such a resource as exclusively held for the duration of an
operation: an acquisition that arrives while the resource is busy is
delayed until the resource frees up.

This first-come-first-served approximation captures the two effects the
paper relies on: executors on the *same* processor do not add raw
compute throughput, while loads on one executor *do* overlap with
computation on the others.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass
class SerialResource:
    """A resource that serves one operation at a time."""

    name: str
    available_at_ms: float = 0.0

    def acquire(self, now_ms: float, duration_ms: float) -> Tuple[float, float]:
        """Reserve the resource for ``duration_ms`` starting at/after ``now_ms``.

        Returns the (start, end) interval actually granted; the start is
        delayed if the resource is still busy at ``now_ms``.
        """
        if duration_ms < 0:
            raise ValueError("duration_ms must be non-negative")
        start = max(now_ms, self.available_at_ms)
        end = start + duration_ms
        self.available_at_ms = end
        return start, end
