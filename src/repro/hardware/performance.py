"""Calibrated device performance model.

This is the "ground truth" the discrete-event simulator uses to advance
virtual time.  It plays the role of the physical hardware in the paper:
the offline profiler (§4.5) *measures* these quantities through
microbenchmarks, it never reads them directly.

The execution-latency model follows the paper's observation (§4.2) that
batch latency is linear in the number of requests, ``latency = K·n + B``,
as long as the processor is not saturated.  Beyond the saturation batch
size the marginal cost of an extra request grows, which produces the
average-latency minimum visible in Figure 5 (e.g. batch 6 on the UMA
GPU, batch 5 on the UMA CPU).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from repro.hardware.processor import ProcessorKind


@dataclass(frozen=True)
class ExecutionProfile:
    """Performance of one expert architecture on one processor.

    Parameters
    ----------
    k_ms:
        Marginal latency per request in a batch (the ``K`` of ``K·n + B``).
    b_ms:
        Fixed per-batch latency (the ``B`` of ``K·n + B``).
    saturation_batch:
        Batch size beyond which the processor is saturated and the
        marginal cost of an additional request starts to grow.
    saturation_penalty_ms:
        Quadratic penalty coefficient applied beyond the saturation
        batch size.
    activation_bytes_per_sample:
        Memory consumed by intermediate results for one request.
    load_overhead_ms:
        Framework overhead (deserialisation, tensor reorganisation)
        added to every expert load targeting this processor, on top of
        the raw transfer time.
    """

    k_ms: float
    b_ms: float
    saturation_batch: int
    saturation_penalty_ms: float
    activation_bytes_per_sample: int
    load_overhead_ms: float

    def __post_init__(self) -> None:
        if self.k_ms <= 0 or self.b_ms < 0:
            raise ValueError("k_ms must be positive and b_ms non-negative")
        if self.saturation_batch <= 0:
            raise ValueError("saturation_batch must be positive")
        if self.saturation_penalty_ms < 0:
            raise ValueError("saturation_penalty_ms must be non-negative")
        if self.activation_bytes_per_sample < 0:
            raise ValueError("activation_bytes_per_sample must be non-negative")
        if self.load_overhead_ms < 0:
            raise ValueError("load_overhead_ms must be non-negative")

    def execution_latency_ms(self, batch_size: int) -> float:
        """Latency of executing a batch of ``batch_size`` requests."""
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        latency = self.k_ms * batch_size + self.b_ms
        overflow = batch_size - self.saturation_batch
        if overflow > 0:
            latency += self.saturation_penalty_ms * overflow * overflow
        return latency

    def average_latency_ms(self, batch_size: int) -> float:
        """Per-request latency at a given batch size (Figure 5's metric)."""
        return self.execution_latency_ms(batch_size) / batch_size

    def activation_bytes(self, batch_size: int) -> int:
        """Intermediate-result memory for a batch of ``batch_size``."""
        if batch_size < 0:
            raise ValueError("batch_size must be non-negative")
        return self.activation_bytes_per_sample * batch_size


ProfileKey = Tuple[str, ProcessorKind]


class DevicePerformanceModel:
    """Lookup table of :class:`ExecutionProfile` per (architecture, processor).

    The simulator asks this model three questions: how long does a batch
    take, how much activation memory does it need, and how long does it
    take to materialise an expert's weights on a processor (transfer
    time is computed by the :class:`~repro.hardware.device.Device`; the
    profile only contributes the framework overhead).
    """

    def __init__(self, profiles: Mapping[ProfileKey, ExecutionProfile]) -> None:
        if not profiles:
            raise ValueError("at least one execution profile is required")
        self._profiles: Dict[ProfileKey, ExecutionProfile] = dict(profiles)

    @property
    def architectures(self) -> Tuple[str, ...]:
        """Names of architectures with at least one profile."""
        return tuple(sorted({arch for arch, _ in self._profiles}))

    def profile(self, architecture: str, processor: ProcessorKind) -> ExecutionProfile:
        """Return the profile for an (architecture, processor) pair."""
        try:
            return self._profiles[(architecture, processor)]
        except KeyError:
            raise KeyError(
                f"no execution profile for architecture '{architecture}' on "
                f"processor '{processor.value}'"
            ) from None

    def execution_latency_ms(
        self, architecture: str, processor: ProcessorKind, batch_size: int
    ) -> float:
        """Batch execution latency on a processor."""
        return self.profile(architecture, processor).execution_latency_ms(batch_size)

    def activation_bytes(
        self, architecture: str, processor: ProcessorKind, batch_size: int
    ) -> int:
        """Intermediate-result footprint of a batch on a processor."""
        return self.profile(architecture, processor).activation_bytes(batch_size)

    def load_overhead_ms(self, architecture: str, processor: ProcessorKind) -> float:
        """Framework overhead for loading an expert onto a processor."""
        return self.profile(architecture, processor).load_overhead_ms
