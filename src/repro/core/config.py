"""Expert performance metrics produced by the offline phase (§4.5).

The offline profiler measures, per (architecture, processor), the
maximum batch size, the execution latency constants ``K``/``B``, the
loading latency per source tier, the memory footprint and the
normalised memory score.  The other offline outputs live elsewhere:
the routing rules in the CoE model, the pre-assessed usage
probabilities in :class:`~repro.coe.probability.UsageProfile`, and the
executor and memory parameters on the serving systems' constructors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from repro.hardware.processor import ProcessorKind


@dataclass(frozen=True)
class ExpertPerformanceRecord:
    """Profiled performance of one expert architecture on one processor.

    Experts of the same architecture share one record, because their
    computational complexity is identical (§4.5).
    """

    architecture: str
    processor: ProcessorKind
    k_ms: float
    b_ms: float
    max_batch_size: int
    activation_bytes_per_sample: int
    weight_bytes: int
    load_latency_ms: Mapping[str, float]
    memory_score: float

    def __post_init__(self) -> None:
        if self.k_ms <= 0 or self.b_ms < 0:
            raise ValueError("k_ms must be positive and b_ms non-negative")
        if self.max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if self.weight_bytes <= 0:
            raise ValueError("weight_bytes must be positive")
        if self.memory_score <= 0:
            raise ValueError("memory_score must be positive")

    def load_latency_from(self, source_tier: str) -> float:
        """Predicted expert switching latency from a source tier."""
        if source_tier in self.load_latency_ms:
            return self.load_latency_ms[source_tier]
        raise KeyError(
            f"no load latency recorded from tier '{source_tier}' for "
            f"{self.architecture} on {self.processor.value}"
        )


class PerformanceMatrix:
    """All profiled records, indexed by (architecture, processor)."""

    def __init__(self, records: Mapping[Tuple[str, ProcessorKind], ExpertPerformanceRecord]) -> None:
        if not records:
            raise ValueError("performance matrix must contain at least one record")
        self._records: Dict[Tuple[str, ProcessorKind], ExpertPerformanceRecord] = dict(records)

    def record(self, architecture: str, processor: ProcessorKind) -> ExpertPerformanceRecord:
        try:
            return self._records[(architecture, processor)]
        except KeyError:
            raise KeyError(
                f"no performance record for '{architecture}' on '{processor.value}'"
            ) from None

    @property
    def architectures(self) -> Tuple[str, ...]:
        return tuple(sorted({architecture for architecture, _ in self._records}))
