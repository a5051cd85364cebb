"""Figure 16: expert-switch breakdown of CoServe's optimisations (ablation)."""

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
    """Same ablation cells as Figure 15 — the union deduplicates them."""
    return SweepGrid.product(ABLATION_SYSTEMS, settings.devices, settings.task_names)


def run_figure16(
    settings: Optional[EvaluationSettings] = None,
    context: Optional[EvaluationContext] = None,
    results: Optional[SweepResults] = None,
) -> ExperimentResult:
    """Regenerate Figure 16 (ablation expert-switch breakdown)."""
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
                        "expert_switches": result.expert_switches,
                        "loads_from_ssd": result.loads_from_ssd,
                    }
                )
    return ExperimentResult(
        name="Figure 16",
        description="Number of expert switches for each optimisation in CoServe",
        rows=tuple(rows),
        columns=("device", "task", "system", "expert_switches", "loads_from_ssd"),
        notes="Each optimisation reduces the number of expert switches, proportionally to its "
        "throughput gain (paper Figure 16).",
    )
