"""Figure 18: throughput during the decay-window memory-allocation search."""

from __future__ import annotations

from itertools import islice
from typing import List, Optional

from repro.core.memory import DecayWindowSearch
from repro.experiments.base import (
    TUNING_MEASUREMENTS,
    EvaluationContext,
    EvaluationSettings,
    ExperimentResult,
)
from repro.serving.tuning import expert_count_limits

# The in-process replay stays bound here for perfbench's tracer, which
# wraps it by this module's name; the figure itself reads sample cells.
from repro.serving.tuning import run_memory_allocation_search  # noqa: F401
from repro.sweeps import SweepCell, SweepGrid, SweepResults, ensure_results


def _cell(device_name: str, task_name: str, sample_size: int, count: int) -> SweepCell:
    """CoServe with ``count`` GPU experts, replayed on the task's offline sample."""
    return SweepCell.make(
        "coserve", device_name, task_name, sample_requests=sample_size, gpu_expert_count=count
    )


def sweep_grid(
    settings: EvaluationSettings,
    device_name: str = "numa",
    sample_size: int = 1500,
    initial_window: int = 15,
) -> SweepGrid:
    """The windows every decay-window search of the figure measures.

    Those are the slide's first ``min_fit_points + 1`` counts under the
    memory limit.  Later windows, and a selected count the slide never
    measured, depend on measured throughputs: the figure runs them
    itself when its search gets there.
    """
    context = EvaluationContext(settings)
    device = context.device(device_name)
    search = DecayWindowSearch(initial_window=initial_window)
    cells: List[SweepCell] = []
    for _, task_name in TUNING_MEASUREMENTS:
        _, model = context.board_and_model(task_name)
        min_count, max_count = expert_count_limits(device, model)
        for _, count in islice(search.slide(max_count, min_count), search.min_fit_points + 1):
            cells.append(_cell(device_name, task_name, sample_size, count))
    return SweepGrid(tuple(cells))


def run_figure18(
    settings: Optional[EvaluationSettings] = None,
    context: Optional[EvaluationContext] = None,
    device_name: str = "numa",
    sample_size: int = 1500,
    initial_window: int = 15,
    error_margin: float = 0.05,
    results: Optional[SweepResults] = None,
) -> ExperimentResult:
    """Regenerate Figure 18 (decay-window search on the NUMA GPU)."""
    context = context or EvaluationContext(settings)
    results = results if results is not None else SweepResults()
    device = context.device(device_name)
    search = DecayWindowSearch(initial_window=initial_window, error_margin=error_margin, seed=7)
    rows = []
    notes = []
    for measurement, task_name in TUNING_MEASUREMENTS:
        _, model = context.board_and_model(task_name)

        def throughput(count: int, task_name: str = task_name) -> float:
            # A count outside the grid runs here, on the caller's context.
            cell = _cell(device_name, task_name, sample_size, count)
            ensure_results(SweepGrid.single(cell), results, context=context)
            return results[cell].throughput_rps

        min_count, max_count = expert_count_limits(device, model)
        result = search.search(throughput, max_expert_count=max_count, min_expert_count=min_count)
        for count, value in result.trace:
            rows.append(
                {
                    "measurement": measurement,
                    "experts_loaded": count,
                    "throughput_img_per_s": round(value, 2),
                    "point": "window",
                }
            )
        rows.append(
            {
                "measurement": measurement,
                "experts_loaded": result.selected_count,
                "throughput_img_per_s": round(result.selected_throughput, 2),
                "point": "selected",
            }
        )
        notes.append(
            f"{measurement}: selected window [{result.window_lower}, {result.window_upper}], "
            f"chose {result.selected_count} experts at {result.selected_throughput:.1f} img/s "
            f"(linear error {100 * result.linear_error:.1f}%)"
        )
    return ExperimentResult(
        name="Figure 18",
        description="Throughput measured at window boundaries during the sliding-window search",
        rows=tuple(rows),
        columns=("measurement", "experts_loaded", "throughput_img_per_s", "point"),
        notes="\n".join(notes)
        + "\nPaper: window [28, 39] choosing 35 experts (A) and [31, 42] choosing 34 (B); the "
        "throughput peak lies inside the selected window.",
    )
