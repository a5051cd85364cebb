"""Figure 15: throughput breakdown of CoServe's optimisations (ablation)."""

from __future__ import annotations

from typing import Optional

from repro.experiments.base import (
    ABLATION_SYSTEMS,
    EvaluationContext,
    EvaluationSettings,
    ExperimentResult,
)
from repro.sweeps import SweepGrid, SweepResults, ensure_results


def sweep_grid(settings: EvaluationSettings) -> SweepGrid:
    """Ablation cells — shared with Figure 16 via grid union."""
    return SweepGrid.product(ABLATION_SYSTEMS, settings.devices, settings.task_names)


def run_figure15(
    settings: Optional[EvaluationSettings] = None,
    context: Optional[EvaluationContext] = None,
    results: Optional[SweepResults] = None,
) -> ExperimentResult:
    """Regenerate Figure 15 (ablation throughput breakdown)."""
    context = context or EvaluationContext(settings)
    settings = context.settings
    results = ensure_results(sweep_grid(settings), results=results, context=context)
    rows = []
    for device_name in settings.devices:
        for task_name in settings.task_names:
            for system_name in ABLATION_SYSTEMS:
                result = results.get(system_name, device_name, task_name)
                rows.append(
                    {
                        "device": device_name.upper(),
                        "task": task_name,
                        "system": result.system_name,
                        "throughput_img_per_s": round(result.throughput_rps, 2),
                    }
                )
    return ExperimentResult(
        name="Figure 15",
        description="Throughput breakdown for each optimisation in CoServe",
        rows=tuple(rows),
        columns=("device", "task", "system", "throughput_img_per_s"),
        notes="CoServe None -> +expert management (EM) -> +request arranging (EM+RA) -> "
        "+request assigning (CoServe); each optimisation adds throughput (paper Figure 15).",
    )
