"""Figure 17: throughput under different numbers of executors."""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.experiments.base import (
    TUNING_MEASUREMENTS,
    EvaluationContext,
    EvaluationSettings,
    ExperimentResult,
)
from repro.serving.tuning import ExecutorSweepPoint

# The in-process replay stays bound here for perfbench's tracer, which
# wraps it by this module's name; the figure itself reads sample cells.
from repro.serving.tuning import sweep_executor_configurations  # noqa: F401
from repro.sweeps import SweepCell, SweepGrid, SweepResults, ensure_results

#: Executor-count candidates of the paper (xG+yC).
DEFAULT_CANDIDATES: Tuple[Tuple[int, int], ...] = (
    (1, 1),
    (2, 1),
    (3, 1),
    (4, 1),
    (5, 1),
    (4, 2),
)


def _cell(device_name: str, task_name: str, sample_size: int, gpu: int, cpu: int) -> SweepCell:
    """One executor mix replayed on the task's offline sample."""
    return SweepCell.make(
        "coserve", device_name, task_name,
        sample_requests=sample_size, gpu_executors=gpu, cpu_executors=cpu,
    )


def sweep_grid(
    settings: EvaluationSettings,
    candidates: Sequence[Tuple[int, int]] = DEFAULT_CANDIDATES,
    sample_size: int = 2000,
) -> SweepGrid:
    """One sample cell per device, measurement and executor mix."""
    return SweepGrid.union(
        *(
            SweepGrid.single(_cell(device_name, task_name, sample_size, gpu, cpu))
            for device_name in settings.devices
            for _, task_name in TUNING_MEASUREMENTS
            for gpu, cpu in candidates
        )
    )


def run_figure17(
    settings: Optional[EvaluationSettings] = None,
    context: Optional[EvaluationContext] = None,
    candidates: Sequence[Tuple[int, int]] = DEFAULT_CANDIDATES,
    sample_size: int = 2000,
    results: Optional[SweepResults] = None,
) -> ExperimentResult:
    """Regenerate Figure 17 (offline executor-count measurements).

    The paper runs these measurements on a portion of the data during
    the offline phase; ``sample_size`` controls the size of that sample.
    """
    context = context or EvaluationContext(settings)
    grid = sweep_grid(context.settings, candidates, sample_size)
    results = ensure_results(grid, results, context=context)
    rows = []
    for device_name in context.settings.devices:
        for measurement, task_name in TUNING_MEASUREMENTS:
            points = []
            for gpu, cpu in candidates:
                result = results[_cell(device_name, task_name, sample_size, gpu, cpu)]
                points.append(
                    ExecutorSweepPoint(gpu, cpu, result.throughput_rps, result.expert_switches)
                )
            best_label = max(points, key=lambda point: point.throughput_rps).label
            for point in points:
                rows.append(
                    {
                        "device": device_name.upper(),
                        "measurement": measurement,
                        "executors": point.label,
                        "throughput_img_per_s": round(point.throughput_rps, 2),
                        "is_best": point.label == best_label,
                    }
                )
    return ExperimentResult(
        name="Figure 17",
        description="Throughput under different numbers of executors (G=GPU, C=CPU)",
        rows=tuple(rows),
        columns=("device", "measurement", "executors", "throughput_img_per_s", "is_best"),
        notes="Paper: 3-4 GPU executors plus 1 CPU executor perform best; fewer executors "
        "under-utilise the device, more add overhead.",
    )
