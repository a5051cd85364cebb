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

Every executor asks for its whole budget as expert pool, keeping one
sample's activations; :func:`~repro.serving.layout.deployment_layout`
lays the executors and the NUMA host cache out exactly as it does
CoServe's, so the baselines differ from CoServe in policies and pool
splits alone.
"""

from __future__ import annotations

from typing import Optional

from repro.coe.model import CoEModel
from repro.coe.probability import UsageProfile
from repro.core.config import PerformanceMatrix
from repro.hardware.device import Device
from repro.policies.fifo import FIFOPolicy
from repro.policies.lru import LRUPolicy
from repro.scheduling.fcfs import FCFSScheduling
from repro.scheduling.round_robin import RoundRobinScheduling
from repro.serving.base import ServingSystem
from repro.serving.layout import DEFAULT_CPU_EXECUTORS, DEFAULT_GPU_EXECUTORS
from repro.simulation.engine import ServingSimulation, SimulationOptions


class SambaCoESystem(ServingSystem):
    """Samba-CoE and its FIFO / Parallel variants."""

    def __init__(
        self,
        device: Device,
        model: CoEModel,
        usage_profile: Optional[UsageProfile] = None,
        replacement: str = "lru",
        gpu_executors: int = 1,
        cpu_executors: int = 0,
        performance_matrix: Optional[PerformanceMatrix] = None,
        options: Optional[SimulationOptions] = None,
        label: Optional[str] = None,
    ) -> None:
        super().__init__(
            device, model, usage_profile, performance_matrix, options, gpu_executors, cpu_executors
        )
        replacement = replacement.strip().lower()
        if replacement not in ("lru", "fifo"):
            raise ValueError(f"unknown replacement policy '{replacement}' (expected 'lru' or 'fifo')")
        self.replacement = replacement
        if label is None:
            label = "Samba-CoE FIFO" if replacement == "fifo" else "Samba-CoE"
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
    def parallel(cls, device: Device, model: CoEModel, usage_profile=None, **overrides) -> "SambaCoESystem":
        """Samba-CoE Parallel with the executor count matched to CoServe."""
        arch = device.architecture.value
        overrides.setdefault("gpu_executors", DEFAULT_GPU_EXECUTORS[arch])
        overrides.setdefault("cpu_executors", DEFAULT_CPU_EXECUTORS[arch])
        overrides.setdefault("label", "Samba-CoE Parallel")
        return cls(device, model, usage_profile, replacement="lru", **overrides)

    def build_simulation(self) -> ServingSimulation:
        if self.gpu_executors + self.cpu_executors == 1:
            scheduler = FCFSScheduling()
        else:
            scheduler = RoundRobinScheduling()
        eviction = FIFOPolicy() if self.replacement == "fifo" else LRUPolicy()
        return self._deploy(scheduler, eviction)
