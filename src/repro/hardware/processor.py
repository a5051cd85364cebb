"""Processor model.

CoServe creates inference executors on both the GPU and the CPU of a
device.  A :class:`Processor` identifies the compute resource an
executor is bound to; the per-architecture performance characteristics
live in :mod:`repro.hardware.performance`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.hardware.memory import MemoryTier


class ProcessorKind(str, enum.Enum):
    """The two processor classes the paper schedules executors onto."""

    GPU = "gpu"
    CPU = "cpu"


@dataclass(frozen=True)
class Processor:
    """A compute resource on a device.

    Parameters
    ----------
    name:
        Marketing name, e.g. ``"NVIDIA RTX 3080Ti"``.
    kind:
        Whether this is a GPU or a CPU.
    memory_tier:
        The memory tier this processor executes from (``GPU``/``CPU`` on a
        NUMA device, ``UNIFIED`` on a UMA device).
    cores:
        Number of physical cores / SMs; informational.
    peak_tflops:
        Peak throughput in TFLOPS; informational (execution latency is
        taken from the calibrated performance model, not derived from
        peak FLOPS).
    """

    name: str
    kind: ProcessorKind
    memory_tier: MemoryTier
    cores: int = 1
    peak_tflops: float = 0.0

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ValueError("cores must be positive")
        if self.peak_tflops < 0:
            raise ValueError("peak_tflops must be non-negative")
