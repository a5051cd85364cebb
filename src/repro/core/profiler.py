"""The offline profiler (§4.5).

Offline profiling runs once per device, before system initialisation.
It executes microbenchmarks on the device — sweeping batch sizes for
each expert architecture on each processor — and derives:

* the **maximum batch size**: the point where average latency stops
  improving, i.e. the processor is (nearly) fully utilised (Figure 5);
* the linear latency constants **K and B** used for additional-latency
  prediction (§4.2, Figure 12);
* the **loading latency** of an expert from each source tier, used to
  predict expert switching latency;
* the **memory footprint** (weights + per-sample activations) and the
  normalised **memory score** used by the expert manager (Figure 10);
* the **expert usage probabilities** (from routing rules and the known
  category mix, or empirically from a sample dataset).

In this reproduction the microbenchmarks run against the calibrated
device performance model rather than physical hardware; the profiler
still only observes latencies and footprints the way a real profiler
would (it fits K/B from the sweep instead of reading them from the
calibration).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.coe.model import CoEModel
from repro.coe.probability import UsageProfile, compute_usage_profile, empirical_usage_profile
from repro.core.config import ExpertPerformanceRecord, PerformanceMatrix
from repro.hardware.device import Device
from repro.hardware.memory import MemoryTier
from repro.hardware.processor import ProcessorKind


@dataclass(frozen=True)
class MicrobenchmarkResult:
    """Raw sweep data for one (architecture, processor) pair.

    This is exactly the data Figures 5, 6 and 12 plot: execution
    latency, average latency and memory footprint as functions of the
    batch size.
    """

    architecture: str
    processor: ProcessorKind
    batch_sizes: Tuple[int, ...]
    execution_latency_ms: Tuple[float, ...]
    average_latency_ms: Tuple[float, ...]
    memory_footprint_bytes: Tuple[int, ...]

    def best_batch_size(self, tolerance: float = 0.02) -> int:
        """Batch size where average latency (approximately) bottoms out.

        Returns the smallest batch size whose average latency is within
        ``tolerance`` of the global minimum — the "plateau" criterion of
        §4.5.
        """
        minimum = min(self.average_latency_ms)
        for batch, average in zip(self.batch_sizes, self.average_latency_ms):
            if average <= minimum * (1.0 + tolerance):
                return batch
        return self.batch_sizes[-1]


class OfflineProfiler:
    """Runs the §4.5 microbenchmarks and assembles the configuration."""

    #: Default batch sizes swept by the microbenchmarks.
    DEFAULT_BATCH_SIZES: Tuple[int, ...] = tuple(range(1, 33))

    def __init__(self, device: Device, model: CoEModel) -> None:
        self.device = device
        self.model = model

    # ------------------------------------------------------------------
    # Microbenchmarks
    # ------------------------------------------------------------------
    def sweep(
        self,
        architecture: str,
        processor: ProcessorKind,
        batch_sizes: Optional[Sequence[int]] = None,
    ) -> MicrobenchmarkResult:
        """Measure execution latency and memory footprint over batch sizes."""
        batches = tuple(batch_sizes or self.DEFAULT_BATCH_SIZES)
        if not batches or any(batch <= 0 for batch in batches):
            raise ValueError("batch sizes must be positive")
        expert_ids = self.model.experts_of_architecture(architecture)
        if not expert_ids:
            raise KeyError(f"model has no expert of architecture '{architecture}'")
        weight_bytes = self.model.expert(expert_ids[0]).weight_bytes

        latencies = []
        footprints = []
        for batch in batches:
            latency = self.device.execution_latency_ms(architecture, processor, batch)
            activation = self.device.activation_bytes(architecture, processor, batch)
            latencies.append(latency)
            footprints.append(weight_bytes + activation)
        averages = [latency / batch for latency, batch in zip(latencies, batches)]
        return MicrobenchmarkResult(
            architecture=architecture,
            processor=processor,
            batch_sizes=batches,
            execution_latency_ms=tuple(latencies),
            average_latency_ms=tuple(averages),
            memory_footprint_bytes=tuple(footprints),
        )

    def measure_loading_latency(
        self, architecture: str, processor: ProcessorKind
    ) -> Dict[str, float]:
        """Expert loading latency from every tier the device offers."""
        expert_ids = self.model.experts_of_architecture(architecture)
        if not expert_ids:
            raise KeyError(f"model has no expert of architecture '{architecture}'")
        weight_bytes = self.model.expert(expert_ids[0]).weight_bytes

        latencies: Dict[str, float] = {
            MemoryTier.SSD.value: self.device.expert_load_latency_ms(
                weight_bytes, architecture, MemoryTier.SSD, processor
            )
        }
        cache_tier = self.device.cache_tier_for(processor)
        if cache_tier is not None:
            latencies[cache_tier.value] = self.device.expert_load_latency_ms(
                weight_bytes, architecture, cache_tier, processor
            )
        if self.device.is_uma:
            latencies[MemoryTier.UNIFIED.value] = self.device.expert_load_latency_ms(
                weight_bytes, architecture, MemoryTier.UNIFIED, processor
            )
        return latencies

    # ------------------------------------------------------------------
    # Performance matrix
    # ------------------------------------------------------------------
    def _fit_linear_latency(self, result: MicrobenchmarkResult, max_batch: int) -> Tuple[float, float]:
        """Least-squares fit of ``latency = K·n + B`` over the linear region."""
        points = [
            (batch, latency)
            for batch, latency in zip(result.batch_sizes, result.execution_latency_ms)
            if batch <= max_batch
        ]
        if len(points) < 2:
            batch, latency = points[0]
            # With a single point assume the intercept is zero.
            return latency / batch, 0.0
        xs = np.array([point[0] for point in points], dtype=float)
        ys = np.array([point[1] for point in points], dtype=float)
        k, b = np.polyfit(xs, ys, 1)
        return float(max(k, 1e-6)), float(max(b, 0.0))

    def build_performance_matrix(
        self,
        batch_sizes: Optional[Sequence[int]] = None,
        processors: Optional[Sequence[ProcessorKind]] = None,
    ) -> PerformanceMatrix:
        """Profile every architecture on every processor of the device."""
        processors = tuple(processors or self.device.processor_kinds)
        architectures = self.model.architectures
        weight_by_architecture = {
            architecture: self.model.expert(self.model.experts_of_architecture(architecture)[0]).weight_bytes
            for architecture in architectures
        }
        smallest_weight = min(weight_by_architecture.values())

        records: Dict[Tuple[str, ProcessorKind], ExpertPerformanceRecord] = {}
        for architecture in architectures:
            for processor in processors:
                sweep = self.sweep(architecture, processor, batch_sizes)
                max_batch = sweep.best_batch_size()
                k_ms, b_ms = self._fit_linear_latency(sweep, max_batch)
                activation_per_sample = self.device.activation_bytes(architecture, processor, 1)
                records[(architecture, processor)] = ExpertPerformanceRecord(
                    architecture=architecture,
                    processor=processor,
                    k_ms=k_ms,
                    b_ms=b_ms,
                    max_batch_size=max_batch,
                    activation_bytes_per_sample=activation_per_sample,
                    weight_bytes=weight_by_architecture[architecture],
                    load_latency_ms=self.measure_loading_latency(architecture, processor),
                    memory_score=weight_by_architecture[architecture] / smallest_weight,
                )
        return PerformanceMatrix(records)

    # ------------------------------------------------------------------
    # Expert information
    # ------------------------------------------------------------------
    def estimate_usage_profile(
        self,
        category_weights: Optional[Mapping[str, float]] = None,
        observed_pipelines: Optional[Iterable[Sequence[str]]] = None,
    ) -> UsageProfile:
        """Pre-assess expert usage probabilities (§4.5).

        With predefined routing rules the probabilities are computed
        directly from the category mix; with ambiguous rules they are
        estimated from observed pipelines of a sample dataset.
        """
        if observed_pipelines is not None:
            return empirical_usage_profile(self.model, list(observed_pipelines))
        if category_weights is None:
            raise ValueError("either category_weights or observed_pipelines is required")
        return compute_usage_profile(self.model, category_weights)
