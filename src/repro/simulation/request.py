"""Requests and stage jobs.

A :class:`SimRequest` is the simulator-side view of one workload
request.  CoE inference can take a request through several experts
(classification, then possibly detection), so the schedulable unit is a
:class:`StageJob` — one (request, pipeline stage) pair bound to a
specific expert.  A stage job for stage ``i + 1`` is only created once
stage ``i`` has finished executing, which is how the simulator models
expert dependency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.workload.generator import RequestSpec


@dataclass(slots=True)
class StageRecord:
    """What happened to one pipeline stage of a request."""

    stage_index: int
    expert_id: str
    executor_name: str
    enqueue_ms: float
    start_ms: float
    end_ms: float
    batch_size: int
    switch_wait_ms: float = 0.0

    @property
    def service_ms(self) -> float:
        """Time from execution start (incl. expert switching) to finish."""
        return self.end_ms - self.start_ms


@dataclass(slots=True)
class SimRequest:
    """Simulator state of one request.

    Slotted: million-request sweeps keep every request alive for the
    whole run, and dropping the per-instance ``__dict__`` cuts the
    request/job footprint by roughly a third (measured in CHANGES.md).
    """

    spec: RequestSpec
    next_stage: int = 0
    records: List[StageRecord] = field(default_factory=list)
    completed_ms: Optional[float] = None

    @property
    def request_id(self) -> int:
        return self.spec.request_id

    @property
    def arrival_ms(self) -> float:
        return self.spec.arrival_ms

    @property
    def pipeline(self) -> Tuple[str, ...]:
        return self.spec.realized_pipeline

    @property
    def is_completed(self) -> bool:
        return self.completed_ms is not None

    @property
    def stage_count(self) -> int:
        return len(self.pipeline)

    def current_expert_id(self) -> str:
        """Expert required by the next (not yet executed) stage."""
        if self.next_stage >= self.stage_count:
            raise RuntimeError(f"request {self.request_id} has no remaining stages")
        return self.pipeline[self.next_stage]

    def has_remaining_stages(self) -> bool:
        return self.next_stage < self.stage_count

    def record_stage(self, record: StageRecord) -> None:
        """Record a finished stage and advance the pipeline."""
        if record.stage_index != self.next_stage:
            raise ValueError(
                f"request {self.request_id} expected stage {self.next_stage}, "
                f"got record for stage {record.stage_index}"
            )
        self.records.append(record)
        self.next_stage += 1
        if not self.has_remaining_stages():
            self.completed_ms = record.end_ms

    @property
    def end_to_end_latency_ms(self) -> Optional[float]:
        """Arrival-to-completion latency, if the request completed."""
        if self.completed_ms is None:
            return None
        return self.completed_ms - self.arrival_ms

    @property
    def total_service_ms(self) -> float:
        """Total time spent actually serving the request (all stages)."""
        return sum(record.service_ms for record in self.records)


@dataclass(slots=True)
class StageJob:
    """A schedulable unit: one pipeline stage of one request (slotted —
    flood regimes queue tens of thousands of jobs at once)."""

    request: SimRequest
    stage_index: int
    expert_id: str
    enqueue_ms: float
    predicted_latency_ms: float = 0.0

    @property
    def request_id(self) -> int:
        return self.request.request_id

    @property
    def category(self) -> str:
        return self.request.spec.category

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StageJob(request={self.request_id}, stage={self.stage_index}, "
            f"expert={self.expert_id})"
        )
