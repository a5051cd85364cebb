"""The CoServe serving system (§4) and its evaluation variants (§5).

``CoServeSystem`` wires together everything the paper describes:

* the offline profiler's performance matrix and pre-assessed usage
  probabilities (§4.5),
* memory allocation between expert loading and intermediate results
  (§4.4): GPU executors ask for an expert-count or fraction pool, CPU
  executors for the limited-compute one, and
  :func:`~repro.serving.layout.deployment_layout` lays them out,
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

from typing import Optional, Sequence

from repro.coe.model import CoEModel
from repro.coe.probability import UsageProfile
from repro.core.config import ExpertPerformanceRecord, PerformanceMatrix
from repro.core.expert_manager import DependencyAwareEvictionPolicy
from repro.core.memory import split_capacity_by_expert_count, split_capacity_by_fraction
from repro.core.scheduler import CoServeScheduler
from repro.hardware.device import Device
from repro.policies.fifo import FIFOPolicy
from repro.serving.base import ServingSystem
from repro.serving.layout import DEFAULT_CPU_EXECUTORS, DEFAULT_GPU_EXECUTORS, limited_compute_pool
from repro.simulation.engine import ServingSimulation, SimulationOptions

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
        arch = device.architecture.value
        super().__init__(
            device, model, usage_profile, performance_matrix, options,
            DEFAULT_GPU_EXECUTORS[arch] if gpu_executors is None else gpu_executors,
            DEFAULT_CPU_EXECUTORS[arch] if cpu_executors is None else cpu_executors,
        )
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
    def _gpu_pool(self, total_bytes: int, records: Sequence[ExpertPerformanceRecord]) -> int:
        """A GPU executor's pool request (§4.4).

        Either ``gpu_expert_fraction`` of the executor, or its equal
        share of ``gpu_expert_count`` mean-sized experts held across the
        GPU executors' combined budget.
        """
        if self.gpu_expert_fraction is not None:
            return split_capacity_by_fraction(total_bytes, self.gpu_expert_fraction).expert_pool_bytes
        combined = split_capacity_by_expert_count(
            total_bytes * self.gpu_executors, self.gpu_expert_count, self.model.mean_expert_bytes
        )
        return combined.expert_pool_bytes // self.gpu_executors

    def build_simulation(self) -> ServingSimulation:
        scheduler = CoServeScheduler(
            matrix=self._matrix(),
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
        return self._deploy(
            scheduler,
            eviction,
            gpu_pool=self._gpu_pool,
            cpu_pool=limited_compute_pool,
            preload_host_cache=self.preload_host_cache_enabled,
        )
