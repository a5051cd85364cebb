"""Offline configuration searches (§4.4, §5.3).

Before system initialisation CoServe runs two searches on a small
representative sample of the workload:

* :func:`run_memory_allocation_search` — the CDF decay-window search
  that selects how many experts to keep resident in GPU memory
  (Figure 18);
* :func:`sweep_executor_configurations` — throughput measurements for
  candidate executor counts (Figure 17).

Both simply replay the sample through fully configured CoServe systems,
which is exactly what the paper's offline phase does with its sample
dataset.  A replay reads only aggregates, so its simulation keeps no
request or stage records.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from repro.coe.model import CoEModel
from repro.coe.probability import UsageProfile
from repro.core.config import PerformanceMatrix
from repro.core.memory import DecayWindowResult, DecayWindowSearch
from repro.core.profiler import OfflineProfiler
from repro.hardware.device import Device
from repro.serving.coserve import CoServeSystem
from repro.serving.layout import DEFAULT_CPU_EXECUTORS, DEFAULT_GPU_EXECUTORS, usable_device_budget
from repro.simulation.engine import SimulationOptions
from repro.workload.generator import RequestStream


@dataclass(frozen=True)
class ExecutorSweepPoint:
    """Throughput measured for one executor configuration (Figure 17)."""

    gpu_executors: int
    cpu_executors: int
    throughput_rps: float
    expert_switches: int

    @property
    def label(self) -> str:
        return f"{self.gpu_executors}G+{self.cpu_executors}C"


@dataclass(frozen=True)
class TunedConfiguration:
    """Outcome of the offline configuration search."""

    gpu_executors: int
    cpu_executors: int
    gpu_expert_count: int
    throughput_rps: float


def _replay_options(options: Optional[SimulationOptions] = None) -> SimulationOptions:
    """``options`` (default: the engine's) with both kinds of record off."""
    return replace(
        options or SimulationOptions(), keep_request_records=False, keep_stage_records=False
    )


def measure_throughput(
    device: Device,
    model: CoEModel,
    usage_profile: UsageProfile,
    sample_stream: RequestStream,
    gpu_expert_count: int,
    gpu_executors: Optional[int] = None,
    cpu_executors: Optional[int] = None,
    performance_matrix: Optional[PerformanceMatrix] = None,
    **overrides,
) -> float:
    """Throughput of CoServe on the sample with a given expert count.

    An ``options`` override is honoured except for its record fields.
    """
    overrides["options"] = _replay_options(overrides.get("options"))
    system = CoServeSystem(
        device=device,
        model=model,
        usage_profile=usage_profile,
        gpu_executors=gpu_executors,
        cpu_executors=cpu_executors,
        gpu_expert_count=gpu_expert_count,
        performance_matrix=performance_matrix,
        label=f"CoServe tune ({gpu_expert_count} experts)",
        **overrides,
    )
    return system.serve(sample_stream).throughput_rps


def run_memory_allocation_search(
    device: Device,
    model: CoEModel,
    usage_profile: UsageProfile,
    sample_stream: RequestStream,
    gpu_executors: Optional[int] = None,
    cpu_executors: Optional[int] = None,
    search: Optional[DecayWindowSearch] = None,
    performance_matrix: Optional[PerformanceMatrix] = None,
) -> DecayWindowResult:
    """Run the decay-window memory-allocation search (§4.4, Figure 18)."""
    if performance_matrix is None:
        performance_matrix = OfflineProfiler(device, model).build_performance_matrix()
    search = search or DecayWindowSearch(initial_window=15, error_margin=0.05)

    # Bound the search for the executor mix the measured systems use:
    # CoServe's own defaults unless the caller fixes the counts.
    arch = device.architecture.value
    n_gpu = gpu_executors if gpu_executors is not None else DEFAULT_GPU_EXECUTORS[arch]
    n_cpu = cpu_executors if cpu_executors is not None else DEFAULT_CPU_EXECUTORS[arch]
    budget = usable_device_budget(device, n_cpu)
    # Leave one largest-expert's worth of activation memory per executor.
    max_expert_count = int(
        (budget.gpu_bytes - n_gpu * model.largest_expert_bytes) // model.mean_expert_bytes
    )
    max_expert_count = max(n_gpu, max_expert_count)

    def throughput_fn(count: int) -> float:
        return measure_throughput(
            device,
            model,
            usage_profile,
            sample_stream,
            gpu_expert_count=max(count, n_gpu),
            gpu_executors=gpu_executors,
            cpu_executors=cpu_executors,
            performance_matrix=performance_matrix,
        )

    return search.search(throughput_fn, max_expert_count=max_expert_count, min_expert_count=n_gpu)


def sweep_executor_configurations(
    device: Device,
    model: CoEModel,
    usage_profile: UsageProfile,
    sample_stream: RequestStream,
    candidates: Sequence[Tuple[int, int]],
    gpu_expert_count: Optional[int] = None,
    performance_matrix: Optional[PerformanceMatrix] = None,
) -> List[ExecutorSweepPoint]:
    """Measure throughput for candidate (GPU, CPU) executor counts (Figure 17)."""
    if performance_matrix is None:
        performance_matrix = OfflineProfiler(device, model).build_performance_matrix()
    points: List[ExecutorSweepPoint] = []
    for gpu_count, cpu_count in candidates:
        system = CoServeSystem(
            device=device,
            model=model,
            usage_profile=usage_profile,
            gpu_executors=gpu_count,
            cpu_executors=cpu_count,
            gpu_expert_count=gpu_expert_count,
            performance_matrix=performance_matrix,
            options=_replay_options(),
            label=f"CoServe {gpu_count}G+{cpu_count}C",
        )
        result = system.serve(sample_stream)
        points.append(
            ExecutorSweepPoint(
                gpu_executors=gpu_count,
                cpu_executors=cpu_count,
                throughput_rps=result.throughput_rps,
                expert_switches=result.expert_switches,
            )
        )
    return points


def tune_configuration(
    device: Device,
    model: CoEModel,
    usage_profile: UsageProfile,
    sample_stream: RequestStream,
    executor_candidates: Sequence[Tuple[int, int]] = ((1, 1), (2, 1), (3, 1), (4, 1)),
    performance_matrix: Optional[PerformanceMatrix] = None,
) -> TunedConfiguration:
    """Full offline tuning: executor counts first, then memory allocation."""
    if performance_matrix is None:
        performance_matrix = OfflineProfiler(device, model).build_performance_matrix()
    sweep = sweep_executor_configurations(
        device, model, usage_profile, sample_stream, executor_candidates,
        performance_matrix=performance_matrix,
    )
    best_point = max(sweep, key=lambda point: point.throughput_rps)
    allocation = run_memory_allocation_search(
        device,
        model,
        usage_profile,
        sample_stream,
        gpu_executors=best_point.gpu_executors,
        cpu_executors=best_point.cpu_executors,
        performance_matrix=performance_matrix,
    )
    return TunedConfiguration(
        gpu_executors=best_point.gpu_executors,
        cpu_executors=best_point.cpu_executors,
        gpu_expert_count=allocation.selected_count,
        throughput_rps=allocation.selected_throughput,
    )
