"""Run-level metric accumulation.

:class:`MetricsCollector` holds the run totals a
:class:`~repro.simulation.results.SimulationResult` reports;
:class:`MetricsObserver` streams a simulation session's typed events
into it.  Every session subscribes one ``MetricsObserver`` feeding
``ServingSimulation.metrics`` — metric collection rides the
:class:`~repro.simulation.session.SimObserver` hook surface instead of
being hard-wired into the event loop, and there is no other path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.session import BatchStart, ExpertLoad, JobDispatch


@dataclass
class MetricsCollector:
    """The run totals behind a :class:`~repro.simulation.results.SimulationResult`.

    Only sums are kept; per-event detail is what observers are for
    (:class:`~repro.metrics.timeline.TimelineObserver` records
    per-executor intervals, ``SimulationSession.events()`` yields every
    event).
    """

    total_execution_ms: float = 0.0
    total_switching_ms: float = 0.0
    total_scheduling_ms: float = 0.0
    scheduling_decisions: int = 0
    expert_loads: int = 0
    expert_switches: int = 0
    loads_from_ssd: int = 0
    loads_from_cache: int = 0

    def record_scheduling(self, latency_ms: float) -> None:
        """Record one scheduling decision."""
        if latency_ms < 0:
            raise ValueError("latency_ms must be non-negative")
        self.total_scheduling_ms += latency_ms
        self.scheduling_decisions += 1

    def record_load(self, source_tier: str, latency_ms: float, evicted: bool) -> None:
        """Record one expert load (and whether it displaced residents)."""
        self.expert_loads += 1
        self.total_switching_ms += latency_ms
        if evicted:
            self.expert_switches += 1
        if source_tier == "ssd":
            self.loads_from_ssd += 1
        else:
            self.loads_from_cache += 1

    def record_execution(self, latency_ms: float) -> None:
        """Record one batch execution."""
        self.total_execution_ms += latency_ms


class MetricsObserver:
    """Feeds session events into a :class:`MetricsCollector`.

    Every session subscribes one, feeding ``simulation.metrics``, before
    any caller-supplied observer.  It implements the ``SimObserver``
    protocol structurally (only the three hooks it needs), so this
    module does not depend on the simulation package.
    """

    def __init__(self, collector: Optional[MetricsCollector] = None) -> None:
        self.collector = collector if collector is not None else MetricsCollector()

    def on_job_dispatch(self, event: "JobDispatch") -> None:
        # record_scheduling, inlined: this hook fires once per stage
        # job, and the extra call frame is measurable at stream scale.
        latency_ms = event.scheduling_latency_ms
        if latency_ms < 0:
            raise ValueError("latency_ms must be non-negative")
        collector = self.collector
        collector.total_scheduling_ms += latency_ms
        collector.scheduling_decisions += 1

    def on_batch_start(self, event: "BatchStart") -> None:
        self.collector.record_execution(event.latency_ms)

    def on_expert_load(self, event: "ExpertLoad") -> None:
        self.collector.record_load(event.source_tier, event.latency_ms, event.evicted)
