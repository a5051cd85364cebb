"""Per-executor timelines of simulation activity.

A :class:`TimelineObserver` attached to a
:class:`~repro.simulation.session.SimulationSession` records every
expert load and batch execution as a busy interval of its executor, live
(the timelines are readable mid-run).  It is the only timeline source:
the metrics collector keeps run totals, not events.  The resulting
:class:`ExecutorTimeline` objects are the breakdown used to debug why a
configuration under-performs (e.g. a CPU executor spending most of its
time loading experts from the SSD).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.session import BatchStart, ExpertLoad


@dataclass(frozen=True)
class TimelineInterval:
    """One busy interval of an executor."""

    start_ms: float
    end_ms: float
    kind: str            # "load" or "execute"
    expert_id: str
    detail: str = ""

    def __post_init__(self) -> None:
        if self.end_ms < self.start_ms:
            raise ValueError("interval must not end before it starts")
        if self.kind not in ("load", "execute"):
            raise ValueError(f"unknown interval kind '{self.kind}'")

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms


@dataclass(frozen=True)
class ExecutorTimeline:
    """Chronological busy intervals of one executor."""

    executor_name: str
    intervals: Tuple[TimelineInterval, ...]

    @property
    def load_time_ms(self) -> float:
        return sum(i.duration_ms for i in self.intervals if i.kind == "load")

    @property
    def execution_time_ms(self) -> float:
        return sum(i.duration_ms for i in self.intervals if i.kind == "execute")

    @property
    def busy_time_ms(self) -> float:
        return self.load_time_ms + self.execution_time_ms

    def busy_fraction(self, horizon_ms: float) -> float:
        """Share of a horizon the executor spent busy."""
        if horizon_ms <= 0:
            return 0.0
        return min(1.0, self.busy_time_ms / horizon_ms)

    def switching_share(self) -> float:
        """Fraction of busy time spent loading experts (Figure 1's metric)."""
        if self.busy_time_ms <= 0:
            return 0.0
        return self.load_time_ms / self.busy_time_ms


class TimelineObserver:
    """Builds per-executor timelines live from session events.

    Usable while the session is still running.  Implements the
    ``SimObserver`` protocol structurally.

    Preloads during system initialisation happen before any session
    exists, so they never appear in the intervals.
    """

    def __init__(self) -> None:
        self._intervals: Dict[str, List[TimelineInterval]] = {}

    def on_expert_load(self, event: "ExpertLoad") -> None:
        self._intervals.setdefault(event.executor_name, []).append(
            TimelineInterval(
                start_ms=event.time_ms,
                end_ms=event.time_ms + event.latency_ms,
                kind="load",
                expert_id=event.expert_id,
                detail=f"from {event.source_tier}",
            )
        )

    def on_batch_start(self, event: "BatchStart") -> None:
        self._intervals.setdefault(event.executor_name, []).append(
            TimelineInterval(
                start_ms=event.time_ms,
                end_ms=event.time_ms + event.latency_ms,
                kind="execute",
                expert_id=event.expert_id,
                detail=f"batch={event.batch_size}",
            )
        )

    def timelines(self) -> Dict[str, ExecutorTimeline]:
        """The timelines observed so far (callable mid-run)."""
        return {
            executor_name: ExecutorTimeline(
                executor_name=executor_name,
                intervals=tuple(
                    sorted(intervals, key=lambda interval: (interval.start_ms, interval.end_ms))
                ),
            )
            for executor_name, intervals in self._intervals.items()
        }


def utilisation_report(
    timelines: Mapping[str, ExecutorTimeline], makespan_ms: float
) -> List[Dict[str, object]]:
    """Flat per-executor utilisation rows for :func:`repro.metrics.report.format_table`."""
    rows: List[Dict[str, object]] = []
    for name in sorted(timelines):
        timeline = timelines[name]
        rows.append(
            {
                "executor": name,
                "busy_%": round(100 * timeline.busy_fraction(makespan_ms), 1),
                "switching_share_%": round(100 * timeline.switching_share(), 1),
                "load_time_s": round(timeline.load_time_ms / 1000, 1),
                "execution_time_s": round(timeline.execution_time_ms / 1000, 1),
                "intervals": len(timeline.intervals),
            }
        )
    return rows
