"""Figure 13: throughput of CoServe and the Samba-CoE baselines."""

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
    """Serving cells this figure needs: every comparison system on every
    (device, task) pair of the settings."""
    return SweepGrid.product(COMPARISON_SYSTEMS, settings.devices, settings.task_names)


def run_figure13(
    settings: Optional[EvaluationSettings] = None,
    context: Optional[EvaluationContext] = None,
    results: Optional[SweepResults] = None,
) -> ExperimentResult:
    """Regenerate Figure 13 (throughput per system, task and device)."""
    context = context or EvaluationContext(settings)
    settings = context.settings
    results = ensure_results(sweep_grid(settings), results=results, context=context)
    rows = []
    for device_name in settings.devices:
        for task_name in settings.task_names:
            baseline_throughputs = {}
            task_rows = []
            for system_name in COMPARISON_SYSTEMS:
                result = results.get(system_name, device_name, task_name)
                baseline_throughputs[system_name] = result.throughput_rps
                task_rows.append(
                    {
                        "device": device_name.upper(),
                        "task": task_name,
                        "system": result.system_name,
                        "throughput_img_per_s": round(result.throughput_rps, 2),
                        "expert_switches": result.expert_switches,
                    }
                )
            best = baseline_throughputs["coserve-best"]
            for row, system_name in zip(task_rows, COMPARISON_SYSTEMS):
                if system_name.startswith("samba"):
                    row["coserve_best_speedup"] = round(best / max(row["throughput_img_per_s"], 1e-9), 1)
                else:
                    row["coserve_best_speedup"] = ""
            rows.extend(task_rows)
    return ExperimentResult(
        name="Figure 13",
        description="Throughput of CoServe and baselines",
        rows=tuple(rows),
        columns=(
            "device",
            "task",
            "system",
            "throughput_img_per_s",
            "expert_switches",
            "coserve_best_speedup",
        ),
        notes="Paper: CoServe achieves 4.5x-10.5x (NUMA) and 4.6x-12x (UMA) higher "
        "throughput than the Samba-CoE baselines.",
    )
