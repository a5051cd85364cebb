"""Metric collection and reporting.

A run is observed through one path: session observers.  Every
simulation session subscribes a :class:`MetricsObserver`, which sums
the quantities the paper reports into the deployment's
:class:`MetricsCollector` — throughput inputs (Figures 13, 15, 17,
18), expert switches (Figures 14, 16), the split of busy time between
expert switching and execution (Figure 1), and scheduling overhead
(Figure 19).  Per-executor timelines come from attaching a
:class:`TimelineObserver`; the report helpers render experiment
results as aligned text tables.
"""

from repro.metrics.collector import MetricsCollector, MetricsObserver
from repro.metrics.report import format_table, format_mapping
from repro.metrics.timeline import (
    ExecutorTimeline,
    TimelineInterval,
    TimelineObserver,
    utilisation_report,
)

__all__ = [
    "MetricsCollector",
    "MetricsObserver",
    "format_table",
    "format_mapping",
    "ExecutorTimeline",
    "TimelineInterval",
    "TimelineObserver",
    "utilisation_report",
]
