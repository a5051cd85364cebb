"""The Samba-CoE baselines (§2.2, §5.1).

Samba-CoE serves CoE requests first-come-first-served on a single
inference executor.  Frequently used experts are kept in fast memory
(HBM on the SN40L; GPU memory here); other experts are offloaded to
DDR — CPU memory on the NUMA device — and loaded on demand, falling
back to the SSD when they are not cached.  Expert replacement is LRU.

Three baseline variants are provided, matching the evaluation:

* **Samba-CoE** — FCFS scheduling, LRU replacement, one GPU executor.
* **Samba-CoE FIFO** — identical, with FIFO replacement.
* **Samba-CoE Parallel** — the executor count is matched to CoServe's
  configuration and requests are distributed round-robin; scheduling
  and replacement stay FCFS + LRU.
"""

from __future__ import annotations

from typing import List, Optional

from repro.coe.model import CoEModel
from repro.coe.probability import UsageProfile
from repro.core.config import PerformanceMatrix
from repro.hardware.device import Device
from repro.hardware.processor import ProcessorKind
from repro.policies.base import EvictionPolicy
from repro.policies.fifo import FIFOPolicy
from repro.policies.lru import LRUPolicy
from repro.scheduling.fcfs import FCFSScheduling
from repro.scheduling.round_robin import RoundRobinScheduling
from repro.serving.base import ServingSystem
from repro.serving.layout import (
    CPU_EXECUTOR_BUDGET_FRACTION,
    clamp_expert_pool,
    usable_device_budget,
)
from repro.simulation.engine import ServingSimulation, SimulationOptions
from repro.simulation.executor import ExecutorConfig


class SambaCoESystem(ServingSystem):
    """Samba-CoE and its FIFO / Parallel variants."""

    def __init__(
        self,
        device: Device,
        model: CoEModel,
        usage_profile: Optional[UsageProfile] = None,
        replacement: str = "lru",
        parallel: bool = False,
        gpu_executors: int = 1,
        cpu_executors: int = 0,
        performance_matrix: Optional[PerformanceMatrix] = None,
        options: Optional[SimulationOptions] = None,
        label: Optional[str] = None,
    ) -> None:
        super().__init__(device, model, usage_profile, performance_matrix)
        replacement = replacement.strip().lower()
        if replacement not in ("lru", "fifo"):
            raise ValueError(f"unknown replacement policy '{replacement}' (expected 'lru' or 'fifo')")
        if not parallel and (gpu_executors != 1 or cpu_executors != 0):
            raise ValueError("non-parallel Samba-CoE uses exactly one GPU executor")
        if parallel and gpu_executors < 1:
            raise ValueError("the Parallel variant needs at least one GPU executor")
        self.replacement = replacement
        self.parallel = parallel
        self.gpu_executors = gpu_executors
        self.cpu_executors = cpu_executors
        self.options = options or SimulationOptions()
        if label is None:
            if parallel:
                label = "Samba-CoE Parallel"
            elif replacement == "fifo":
                label = "Samba-CoE FIFO"
            else:
                label = "Samba-CoE"
        self.name = label

    # ------------------------------------------------------------------
    # Factory configurations
    # ------------------------------------------------------------------
    @classmethod
    def baseline(cls, device: Device, model: CoEModel, usage_profile=None, **overrides) -> "SambaCoESystem":
        """The plain Samba-CoE baseline (FCFS + LRU, one executor)."""
        return cls(device, model, usage_profile, replacement="lru", **overrides)

    @classmethod
    def fifo(cls, device: Device, model: CoEModel, usage_profile=None, **overrides) -> "SambaCoESystem":
        """Samba-CoE with FIFO replacement."""
        return cls(device, model, usage_profile, replacement="fifo", **overrides)

    @classmethod
    def parallel(
        cls,
        device: Device,
        model: CoEModel,
        usage_profile=None,
        gpu_executors: Optional[int] = None,
        cpu_executors: Optional[int] = None,
        **overrides,
    ) -> "SambaCoESystem":
        """Samba-CoE Parallel with the executor count matched to CoServe."""
        if gpu_executors is None:
            gpu_executors = 3 if not device.is_uma else 2
        if cpu_executors is None:
            cpu_executors = 1
        return cls(
            device,
            model,
            usage_profile,
            replacement="lru",
            parallel=True,
            gpu_executors=gpu_executors,
            cpu_executors=cpu_executors,
            **overrides,
        )

    # ------------------------------------------------------------------
    # Simulation construction
    # ------------------------------------------------------------------
    def _executor_configs(self, matrix: PerformanceMatrix) -> List[ExecutorConfig]:
        budget = usable_device_budget(self.device, self.cpu_executors)
        configs: List[ExecutorConfig] = []

        gpu_records = [
            matrix.record(architecture, ProcessorKind.GPU) for architecture in matrix.architectures
        ]
        gpu_activation = max(record.activation_bytes_per_sample for record in gpu_records)
        per_gpu_total = budget.gpu_bytes // self.gpu_executors
        pool_bytes, activation_bytes = clamp_expert_pool(
            per_gpu_total - gpu_activation,
            per_gpu_total,
            self.model.largest_expert_bytes,
            gpu_activation,
        )
        for index in range(self.gpu_executors):
            configs.append(
                ExecutorConfig(
                    name=f"gpu-{index}",
                    processor_kind=ProcessorKind.GPU,
                    expert_pool_bytes=pool_bytes,
                    activation_budget_bytes=activation_bytes,
                )
            )

        if self.cpu_executors > 0 and budget.cpu_bytes > 0:
            cpu_records = [
                matrix.record(architecture, ProcessorKind.CPU) for architecture in matrix.architectures
            ]
            cpu_activation = max(record.activation_bytes_per_sample for record in cpu_records)
            if self.device.is_uma:
                per_cpu_budget = budget.cpu_bytes // self.cpu_executors
            else:
                per_cpu_budget = int(budget.cpu_bytes * CPU_EXECUTOR_BUDGET_FRACTION) // self.cpu_executors
            cpu_pool, cpu_act = clamp_expert_pool(
                per_cpu_budget - cpu_activation,
                per_cpu_budget,
                self.model.largest_expert_bytes,
                cpu_activation,
            )
            for index in range(self.cpu_executors):
                configs.append(
                    ExecutorConfig(
                        name=f"cpu-{index}",
                        processor_kind=ProcessorKind.CPU,
                        expert_pool_bytes=cpu_pool,
                        activation_budget_bytes=cpu_act,
                    )
                )
        return configs

    def _host_cache_bytes(self, configs: List[ExecutorConfig]) -> int:
        if self.device.is_uma:
            return 0
        budget = usable_device_budget(self.device, self.cpu_executors)
        cpu_used = sum(
            config.total_bytes for config in configs if config.processor_kind is ProcessorKind.CPU
        )
        return max(0, budget.cpu_bytes - cpu_used)

    def _eviction_policy(self) -> EvictionPolicy:
        if self.replacement == "fifo":
            return FIFOPolicy()
        return LRUPolicy()

    def build_simulation(self) -> ServingSimulation:
        matrix = self._matrix()
        configs = self._executor_configs(matrix)
        host_cache_bytes = self._host_cache_bytes(configs)

        if len(configs) == 1:
            scheduler = FCFSScheduling()
        else:
            scheduler = RoundRobinScheduling()

        simulation = ServingSimulation(
            device=self.device,
            model=self.model,
            executor_configs=configs,
            scheduling_policy=scheduler,
            eviction_policy=self._eviction_policy(),
            host_cache_bytes=host_cache_bytes,
            options=self.options,
            system_name=self.name,
        )
        self._preload(simulation, configs, host_cache_bytes)
        return simulation
