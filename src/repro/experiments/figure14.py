"""Figure 14: number of expert switches for CoServe and the baselines."""

from __future__ import annotations

from typing import Optional

from repro.experiments.base import (
    COMPARISON_SYSTEMS,
    EvaluationContext,
    EvaluationSettings,
    ExperimentResult,
)
from repro.sweeps import SweepGrid, SweepResults, ensure_results


def sweep_grid(settings: EvaluationSettings) -> SweepGrid:
    """Same serving cells as Figure 13 — the union deduplicates them."""
    return SweepGrid.product(COMPARISON_SYSTEMS, settings.devices, settings.task_names)


def run_figure14(
    settings: Optional[EvaluationSettings] = None,
    context: Optional[EvaluationContext] = None,
    results: Optional[SweepResults] = None,
) -> ExperimentResult:
    """Regenerate Figure 14 (expert switch counts per system, task and device)."""
    context = context or EvaluationContext(settings)
    settings = context.settings
    results = ensure_results(sweep_grid(settings), results=results, context=context)
    rows = []
    for device_name in settings.devices:
        for task_name in settings.task_names:
            samba_switches = results.get("samba-coe", device_name, task_name).expert_switches
            for system_name in COMPARISON_SYSTEMS:
                result = results.get(system_name, device_name, task_name)
                reduction = ""
                if not system_name.startswith("samba") and samba_switches > 0:
                    reduction = round(100 * (1 - result.expert_switches / samba_switches), 1)
                rows.append(
                    {
                        "device": device_name.upper(),
                        "task": task_name,
                        "system": result.system_name,
                        "expert_switches": result.expert_switches,
                        "expert_loads": result.expert_loads,
                        "reduction_vs_samba_%": reduction,
                    }
                )
    return ExperimentResult(
        name="Figure 14",
        description="Number of expert switches for CoServe and baselines",
        rows=tuple(rows),
        columns=("device", "task", "system", "expert_switches", "expert_loads", "reduction_vs_samba_%"),
        notes="Paper: CoServe reduces expert switching by 78.5 %-93.9 % compared to Samba-CoE.",
    )
