"""Structured results of one serving-simulation run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.simulation.request import SimRequest


@dataclass(frozen=True, slots=True)
class ExecutorSummary:
    """Per-executor statistics of a run."""

    name: str
    processor_kind: str
    batches_executed: int
    stages_executed: int
    execution_busy_ms: float
    load_busy_ms: float
    expert_loads: int
    expert_switches: int
    loads_from_ssd: int
    loads_from_cache: int
    resident_experts_at_end: int


@dataclass(frozen=True, slots=True)
class SimulationResult:
    """Aggregate outcome of serving one request stream."""

    system_name: str
    device_name: str
    workload_name: str
    num_requests: int
    makespan_ms: float
    total_execution_ms: float
    total_switching_ms: float
    total_scheduling_ms: float
    expert_loads: int
    expert_switches: int
    loads_from_ssd: int
    loads_from_cache: int
    executors: Tuple[ExecutorSummary, ...]
    requests: Tuple[SimRequest, ...] = field(repr=False, default=())
    scheduling_decisions: int = 0
    #: True when the run stopped early (e.g. an SLO monitor proved the
    #: target unreachable); ``num_requests`` then counts the requests
    #: that completed before the stop, and ``abort_reason`` says why.
    aborted: bool = False
    abort_reason: Optional[str] = None

    # ------------------------------------------------------------------
    # Headline metrics
    # ------------------------------------------------------------------
    @property
    def throughput_rps(self) -> float:
        """Completed requests per second of virtual time (Figure 13)."""
        if self.makespan_ms <= 0:
            return 0.0
        return self.num_requests / (self.makespan_ms / 1000.0)

    @property
    def average_request_latency_ms(self) -> float:
        """Mean per-request inference latency (execution + switching share).

        Batch execution time and expert switching time are shared by the
        requests of a batch, so the per-request figure is the total
        serving time divided by the number of requests (Figure 19's
        "inference" bar).
        """
        if self.num_requests == 0:
            return 0.0
        return (self.total_execution_ms + self.total_switching_ms) / self.num_requests

    @property
    def average_scheduling_latency_ms(self) -> float:
        """Mean per-decision scheduling latency (Figure 19)."""
        if self.scheduling_decisions == 0:
            return 0.0
        return self.total_scheduling_ms / self.scheduling_decisions

    @property
    def switching_share(self) -> float:
        """Fraction of busy time spent switching experts (Figure 1's metric)."""
        total = self.total_execution_ms + self.total_switching_ms
        if total <= 0:
            return 0.0
        return self.total_switching_ms / total
