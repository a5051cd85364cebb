"""The CoServe serving system (§4) and its evaluation variants (§5).

``CoServeSystem`` wires together everything the paper describes:

* the offline profiler's performance matrix and pre-assessed usage
  probabilities (§4.5),
* memory allocation between expert loading and intermediate results
  (§4.4),
* executor creation and round-robin expert initialisation (§4.1),
* the dependency-aware request scheduler (§4.2), and
* the dependency-aware expert manager (§4.3).

Factory classmethods build the configurations evaluated in the paper:

* :meth:`CoServeSystem.best` — profiler-chosen memory allocation and
  executor counts ("CoServe Best"),
* :meth:`CoServeSystem.casual` — the intuitive configuration of §5.2
  ("CoServe Casual": 75 % of GPU memory for experts, 3 GPU + 1 CPU
  executors on NUMA, 2 GPU + 1 CPU on UMA),
* :meth:`CoServeSystem.ablation` — CoServe None / EM / EM+RA / full
  (§5.3).
"""

from __future__ import annotations

from typing import List, Optional

from repro.coe.model import CoEModel
from repro.coe.probability import UsageProfile
from repro.core.config import PerformanceMatrix
from repro.core.expert_manager import DependencyAwareEvictionPolicy
from repro.core.memory import (
    limited_compute_plan,
    split_capacity_by_expert_count,
    split_capacity_by_fraction,
)
from repro.core.scheduler import CoServeScheduler
from repro.hardware.device import Device
from repro.hardware.processor import ProcessorKind
from repro.policies.fifo import FIFOPolicy
from repro.serving.base import ServingSystem
from repro.serving.layout import (
    CPU_EXECUTOR_BUDGET_FRACTION,
    clamp_expert_pool,
    usable_device_budget,
)
from repro.simulation.engine import ServingSimulation, SimulationOptions
from repro.simulation.executor import ExecutorConfig

#: Default executor counts per device architecture (§5.2/§5.3).
DEFAULT_GPU_EXECUTORS = {"numa": 3, "uma": 2}
DEFAULT_CPU_EXECUTORS = {"numa": 1, "uma": 1}
#: Default number of experts kept resident in GPU memory for the
#: "Best" configuration.  The paper's decay-window search selects 35
#: (Task A) / 34 (Task B) on its NUMA GPU; on the calibrated simulation
#: substrate the same search peaks slightly higher, so the defaults
#: reflect what `repro.serving.tuning.run_memory_allocation_search`
#: finds here; Figure 18 (`repro.experiments.figure18`) replays it.
DEFAULT_GPU_EXPERT_COUNT = {"numa": 42, "uma": 40}
#: Modelled per-decision scheduling latency (Figure 19).
DEFAULT_SCHEDULING_LATENCY_MS = {"numa": 8.3, "uma": 2.3}


class CoServeSystem(ServingSystem):
    """CoServe: dependency-aware CoE serving with limited memory."""

    def __init__(
        self,
        device: Device,
        model: CoEModel,
        usage_profile: Optional[UsageProfile] = None,
        gpu_executors: Optional[int] = None,
        cpu_executors: Optional[int] = None,
        gpu_expert_count: Optional[int] = None,
        gpu_expert_fraction: Optional[float] = None,
        enable_expert_management: bool = True,
        enable_arranging: bool = True,
        enable_assigning: bool = True,
        enable_batching: bool = True,
        scheduling_latency_ms: Optional[float] = None,
        performance_matrix: Optional[PerformanceMatrix] = None,
        preload_host_cache: bool = True,
        options: Optional[SimulationOptions] = None,
        label: str = "CoServe",
    ) -> None:
        super().__init__(device, model, usage_profile, performance_matrix)
        arch = device.architecture.value
        self.gpu_executors = gpu_executors if gpu_executors is not None else DEFAULT_GPU_EXECUTORS[arch]
        self.cpu_executors = cpu_executors if cpu_executors is not None else DEFAULT_CPU_EXECUTORS[arch]
        if self.gpu_executors <= 0:
            raise ValueError("CoServe needs at least one GPU executor")
        if self.cpu_executors < 0:
            raise ValueError("cpu_executors must be non-negative")
        if gpu_expert_count is not None and gpu_expert_fraction is not None:
            raise ValueError("specify either gpu_expert_count or gpu_expert_fraction, not both")
        self.gpu_expert_count = gpu_expert_count
        self.gpu_expert_fraction = gpu_expert_fraction
        if gpu_expert_count is None and gpu_expert_fraction is None:
            self.gpu_expert_count = DEFAULT_GPU_EXPERT_COUNT[arch]
        self.enable_expert_management = enable_expert_management
        self.enable_arranging = enable_arranging
        self.enable_assigning = enable_assigning
        self.enable_batching = enable_batching
        self.scheduling_latency_ms = (
            scheduling_latency_ms
            if scheduling_latency_ms is not None
            else DEFAULT_SCHEDULING_LATENCY_MS[arch]
        )
        self.preload_host_cache_enabled = preload_host_cache
        self.options = options or SimulationOptions()
        self.name = label

    # ------------------------------------------------------------------
    # Factory configurations
    # ------------------------------------------------------------------
    @classmethod
    def best(
        cls,
        device: Device,
        model: CoEModel,
        usage_profile: Optional[UsageProfile] = None,
        **overrides,
    ) -> "CoServeSystem":
        """The profiler-tuned configuration ("CoServe Best")."""
        overrides.setdefault("label", "CoServe Best")
        return cls(device, model, usage_profile, **overrides)

    @classmethod
    def casual(
        cls,
        device: Device,
        model: CoEModel,
        usage_profile: Optional[UsageProfile] = None,
        **overrides,
    ) -> "CoServeSystem":
        """The casually chosen configuration of §5.2 ("CoServe Casual")."""
        overrides.setdefault("label", "CoServe Casual")
        overrides.setdefault("gpu_expert_fraction", 0.75)
        overrides.setdefault("gpu_executors", 3 if not device.is_uma else 2)
        overrides.setdefault("cpu_executors", 1)
        overrides["gpu_expert_count"] = None
        return cls(device, model, usage_profile, **overrides)

    @classmethod
    def ablation(
        cls,
        device: Device,
        model: CoEModel,
        level: str,
        usage_profile: Optional[UsageProfile] = None,
        **overrides,
    ) -> "CoServeSystem":
        """Build one of the §5.3 ablation variants.

        ``level`` is one of ``"none"`` (no optimisations), ``"em"``
        (expert management only), ``"em+ra"`` (plus request arranging)
        or ``"full"`` (plus request assigning, i.e. complete CoServe).
        """
        level = level.strip().lower()
        flags = {
            "none": (False, False, False),
            "em": (True, False, False),
            "em+ra": (True, True, False),
            "full": (True, True, True),
        }
        if level not in flags:
            raise ValueError(f"unknown ablation level '{level}'; expected one of {sorted(flags)}")
        expert_management, arranging, assigning = flags[level]
        labels = {
            "none": "CoServe None",
            "em": "CoServe EM",
            "em+ra": "CoServe EM+RA",
            "full": "CoServe",
        }
        overrides.setdefault("label", labels[level])
        return cls(
            device,
            model,
            usage_profile,
            enable_expert_management=expert_management,
            enable_arranging=arranging,
            enable_assigning=assigning,
            **overrides,
        )

    # ------------------------------------------------------------------
    # Simulation construction
    # ------------------------------------------------------------------
    def _gpu_executor_configs(self, matrix: PerformanceMatrix, gpu_budget: int) -> List[ExecutorConfig]:
        per_executor_total = gpu_budget // self.gpu_executors
        gpu_records = [
            matrix.record(architecture, ProcessorKind.GPU) for architecture in matrix.architectures
        ]
        min_activation = max(record.activation_bytes_per_sample for record in gpu_records)
        if self.gpu_expert_fraction is not None:
            plan = split_capacity_by_fraction(per_executor_total, self.gpu_expert_fraction)
            pool_bytes = plan.expert_pool_bytes
        else:
            total_pool = split_capacity_by_expert_count(
                gpu_budget, self.gpu_expert_count, self.model.mean_expert_bytes
            ).expert_pool_bytes
            pool_bytes = total_pool // self.gpu_executors
        pool_bytes, activation_bytes = clamp_expert_pool(
            pool_bytes, per_executor_total, self.model.largest_expert_bytes, min_activation
        )
        return [
            ExecutorConfig(
                name=f"gpu-{index}",
                processor_kind=ProcessorKind.GPU,
                expert_pool_bytes=pool_bytes,
                activation_budget_bytes=activation_bytes,
            )
            for index in range(self.gpu_executors)
        ]

    def _cpu_executor_configs(
        self, matrix: PerformanceMatrix, cpu_budget: int
    ) -> List[ExecutorConfig]:
        if self.cpu_executors == 0 or cpu_budget <= 0:
            return []
        cpu_records = [
            matrix.record(architecture, ProcessorKind.CPU) for architecture in matrix.architectures
        ]
        if self.device.is_uma:
            per_executor_budget = cpu_budget // self.cpu_executors
        else:
            per_executor_budget = int(cpu_budget * CPU_EXECUTOR_BUDGET_FRACTION) // self.cpu_executors
        configs = []
        for index in range(self.cpu_executors):
            plan = limited_compute_plan(cpu_records, per_executor_budget)
            pool_bytes, activation_bytes = clamp_expert_pool(
                plan.expert_pool_bytes,
                per_executor_budget,
                self.model.largest_expert_bytes,
                max(record.activation_bytes_per_sample for record in cpu_records),
            )
            configs.append(
                ExecutorConfig(
                    name=f"cpu-{index}",
                    processor_kind=ProcessorKind.CPU,
                    expert_pool_bytes=pool_bytes,
                    activation_budget_bytes=activation_bytes,
                )
            )
        return configs

    def build_simulation(self) -> ServingSimulation:
        matrix = self._matrix()
        budget = usable_device_budget(self.device, self.cpu_executors)
        gpu_configs = self._gpu_executor_configs(matrix, budget.gpu_bytes)
        cpu_configs = self._cpu_executor_configs(matrix, budget.cpu_bytes)
        executor_configs = gpu_configs + cpu_configs

        host_cache_bytes = 0
        if not self.device.is_uma:
            cpu_used = sum(config.total_bytes for config in cpu_configs)
            host_cache_bytes = max(0, budget.cpu_bytes - cpu_used)

        scheduler = CoServeScheduler(
            matrix=matrix,
            model=self.model,
            scheduling_latency_ms=self.scheduling_latency_ms,
            enable_assigning=self.enable_assigning,
            enable_arranging=self.enable_arranging,
            enable_batching=self.enable_batching,
        )
        if self.enable_expert_management:
            eviction = DependencyAwareEvictionPolicy(self.model, self.usage_profile)
        else:
            eviction = FIFOPolicy()

        simulation = ServingSimulation(
            device=self.device,
            model=self.model,
            executor_configs=executor_configs,
            scheduling_policy=scheduler,
            eviction_policy=eviction,
            host_cache_bytes=host_cache_bytes,
            options=self.options,
            system_name=self.name,
        )
        self._preload(
            simulation,
            executor_configs,
            host_cache_bytes if self.preload_host_cache_enabled else 0,
        )
        return simulation
