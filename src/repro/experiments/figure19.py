"""Figure 19: request-scheduling overhead analysis."""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.experiments.base import EvaluationContext, EvaluationSettings, ExperimentResult
from repro.sweeps import SweepCell, SweepGrid, SweepResults, ensure_results

#: The figure evaluates the online scheduler on the two production tasks.
_FIGURE19_TASKS: Tuple[str, ...] = ("A2", "B2")


def sweep_grid(settings: EvaluationSettings) -> SweepGrid:
    """CoServe Best per (device, task), regular and with free scheduling.

    The zero-latency cells carry a ``scheduling_latency_ms`` override —
    overrides are part of a cell's identity, so they never collide with
    the regular runs other figures share.
    """
    cells: List[SweepCell] = []
    for device_name in settings.devices:
        for task_name in _FIGURE19_TASKS:
            if task_name not in settings.task_names:
                continue
            cells.append(SweepCell.make("coserve-best", device_name, task_name))
            cells.append(
                SweepCell.make("coserve-best", device_name, task_name, scheduling_latency_ms=0.0)
            )
    return SweepGrid(tuple(cells))


def run_figure19(
    settings: Optional[EvaluationSettings] = None,
    context: Optional[EvaluationContext] = None,
    results: Optional[SweepResults] = None,
) -> ExperimentResult:
    """Regenerate Figure 19 (scheduling latency vs inference latency).

    "Pre-sched inference" reruns CoServe with the scheduling latency set
    to zero (the request sequence is unchanged), quantifying how much
    the online scheduler costs end to end.
    """
    context = context or EvaluationContext(settings)
    settings = context.settings
    results = ensure_results(sweep_grid(settings), results=results, context=context)
    rows = []
    for device_name in settings.devices:
        for task_name in _FIGURE19_TASKS:
            if task_name not in settings.task_names:
                continue
            regular = results.get("coserve-best", device_name, task_name)
            pre_scheduled = results.get(
                "coserve-best", device_name, task_name, scheduling_latency_ms=0.0
            )
            gap_percent = 0.0
            if pre_scheduled.throughput_rps > 0:
                gap_percent = 100 * abs(
                    regular.throughput_rps - pre_scheduled.throughput_rps
                ) / pre_scheduled.throughput_rps
            rows.append(
                {
                    "device": device_name.upper(),
                    "task": task_name,
                    "scheduling_ms": round(regular.average_scheduling_latency_ms, 2),
                    "inference_ms": round(regular.average_request_latency_ms, 2),
                    "pre_sched_inference_ms": round(pre_scheduled.average_request_latency_ms, 2),
                    "throughput_gap_%": round(gap_percent, 2),
                }
            )
    return ExperimentResult(
        name="Figure 19",
        description="Average latency of request scheduling, inference and pre-scheduled inference",
        rows=tuple(rows),
        columns=(
            "device",
            "task",
            "scheduling_ms",
            "inference_ms",
            "pre_sched_inference_ms",
            "throughput_gap_%",
        ),
        notes="Paper: scheduling latency (8.3 ms NUMA / 2.3 ms UMA) is well below inference "
        "latency (~35 ms), and removing it changes performance by less than 3 %.",
    )
