"""Unit constants and conversion helpers.

Conventions used throughout the library:

* time is expressed in **milliseconds** (``float``),
* memory sizes are expressed in **bytes** (``int``),
* bandwidths are expressed in **bytes per millisecond** (``float``).

Vendor-style decimal units are used for sizes (1 MB = 10**6 bytes),
matching how the paper quotes SSD bandwidths and model sizes.
"""

from __future__ import annotations

KB: int = 10**3
MB: int = 10**6
GB: int = 10**9

SECOND_MS: float = 1000.0
MINUTE_MS: float = 60 * SECOND_MS


def bytes_to_mb(num_bytes: float) -> float:
    """Convert a byte count to megabytes (decimal)."""
    return num_bytes / MB


def bytes_to_gb(num_bytes: float) -> float:
    """Convert a byte count to gigabytes (decimal)."""
    return num_bytes / GB


def mb_per_second_to_bytes_per_ms(mb_per_s: float) -> float:
    """Convert a bandwidth in MB/s to bytes per millisecond."""
    return mb_per_s * MB / SECOND_MS

