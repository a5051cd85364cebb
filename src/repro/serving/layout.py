"""How a serving system's memory is laid out across its executors.

Every system the paper compares, CoServe and the Samba-CoE baselines
alike, deploys through :func:`deployment_layout`.  It alone decides how
much of each memory region is usable for serving (the OS, GPU runtime
and framework keep some), how that budget is divided among executors, how
each executor's share is split between its expert pool and intermediate
results (§4.1, §4.4), and how much CPU memory remains for the host-side
expert cache on NUMA devices.  A system only chooses its executor
counts and the pool each executor asks for (a :data:`PoolRequest`), so
the comparison of §5.2 differs in policies and pool splits alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from repro.coe.model import CoEModel
from repro.core.config import ExpertPerformanceRecord, PerformanceMatrix
from repro.core.memory import limited_compute_plan
from repro.hardware.device import Device
from repro.hardware.memory import MemoryTier
from repro.hardware.processor import ProcessorKind
from repro.simulation.executor import ExecutorConfig

#: Fraction of the GPU memory usable for serving on a NUMA device.
NUMA_GPU_USABLE_FRACTION = 0.95
#: Fraction of the CPU memory usable for serving on a NUMA device.
NUMA_CPU_USABLE_FRACTION = 0.90
#: Fraction of the unified memory usable for serving on a UMA device
#: (macOS, the framework and the display pipeline keep the rest).
UMA_USABLE_FRACTION = 0.60
#: Share of the usable unified memory given to GPU executors when CPU
#: executors are also present on a UMA device.
UMA_GPU_SHARE = 0.75
#: Share of the CPU-side budget given to CPU executors on a NUMA
#: device; the remainder becomes the host-memory expert cache (the DDR
#: tier) that GPU executors demote evicted experts into.
CPU_EXECUTOR_BUDGET_FRACTION = 0.7
#: Executor counts of the paper's deployments per device architecture
#: (§5.2/§5.3): 3 GPU + 1 CPU on NUMA, 2 GPU + 1 CPU on UMA.  CoServe
#: uses them by default and Samba-CoE Parallel matches them.
DEFAULT_GPU_EXECUTORS = {"numa": 3, "uma": 2}
DEFAULT_CPU_EXECUTORS = {"numa": 1, "uma": 1}

#: An executor's expert-pool request: given the executor's total bytes
#: and its processor kind's performance records, the pool bytes it asks
#: for.  :func:`deployment_layout` clamps the answer with
#: :func:`clamp_expert_pool`.
PoolRequest = Callable[[int, Sequence[ExpertPerformanceRecord]], int]


@dataclass(frozen=True)
class DeviceBudget:
    """Usable serving memory, split by processor class."""

    gpu_bytes: int
    cpu_bytes: int

    def __post_init__(self) -> None:
        if self.gpu_bytes < 0 or self.cpu_bytes < 0:
            raise ValueError("budgets must be non-negative")


@dataclass(frozen=True)
class DeploymentLayout:
    """Where a deployment's memory goes: its executors and the host cache."""

    #: GPU executors first (``gpu-0``, ``gpu-1``, ...), then ``cpu-0``, ...
    executor_configs: Tuple[ExecutorConfig, ...]
    #: Bytes of the NUMA host-memory expert cache; 0 on UMA devices.
    host_cache_bytes: int


def usable_device_budget(device: Device, cpu_executors: int) -> DeviceBudget:
    """Compute the usable GPU-side and CPU-side serving budgets.

    On a UMA device the unified memory is split between the GPU-side
    and CPU-side budgets only when CPU executors exist; otherwise the
    whole usable budget is available to GPU executors.
    """
    if cpu_executors < 0:
        raise ValueError("cpu_executors must be non-negative")
    if device.is_uma:
        usable = int(device.region(MemoryTier.UNIFIED).capacity_bytes * UMA_USABLE_FRACTION)
        if cpu_executors > 0:
            gpu_bytes = int(usable * UMA_GPU_SHARE)
            return DeviceBudget(gpu_bytes=gpu_bytes, cpu_bytes=usable - gpu_bytes)
        return DeviceBudget(gpu_bytes=usable, cpu_bytes=0)
    gpu_bytes = int(device.region(MemoryTier.GPU).capacity_bytes * NUMA_GPU_USABLE_FRACTION)
    cpu_bytes = int(device.region(MemoryTier.CPU).capacity_bytes * NUMA_CPU_USABLE_FRACTION)
    return DeviceBudget(gpu_bytes=gpu_bytes, cpu_bytes=cpu_bytes)


def clamp_expert_pool(
    pool_bytes: int, executor_total_bytes: int, largest_expert_bytes: int, min_activation_bytes: int
) -> Tuple[int, int]:
    """Clamp an expert-pool size into a feasible (pool, activation) pair.

    The pool must hold at least the largest expert (otherwise some
    requests could never be served) and must leave enough activation
    memory for a batch of one.
    """
    if executor_total_bytes < largest_expert_bytes + min_activation_bytes:
        raise ValueError(
            "executor memory budget is too small to hold the largest expert plus a "
            f"single-request batch ({executor_total_bytes} bytes available, "
            f"{largest_expert_bytes + min_activation_bytes} required)"
        )
    pool = max(largest_expert_bytes, min(pool_bytes, executor_total_bytes - min_activation_bytes))
    return pool, executor_total_bytes - pool


def whole_budget(total_bytes: int, records: Sequence[ExpertPerformanceRecord]) -> int:
    """Ask for the executor's whole budget; the clamp leaves one sample's activations."""
    return total_bytes


def limited_compute_pool(total_bytes: int, records: Sequence[ExpertPerformanceRecord]) -> int:
    """Ask for the expert pool of §4.4's limited-compute split (:func:`limited_compute_plan`)."""
    return limited_compute_plan(records, total_bytes).expert_pool_bytes


def deployment_layout(
    device: Device,
    model: CoEModel,
    matrix: PerformanceMatrix,
    gpu_executors: int,
    cpu_executors: int,
    gpu_pool: PoolRequest = whole_budget,
    cpu_pool: PoolRequest = whole_budget,
) -> DeploymentLayout:
    """Lay ``gpu_executors`` (at least one) and ``cpu_executors`` out on ``device``.

    The GPU executors share the usable GPU-side budget equally, and the
    CPU executors the CPU-side one (on NUMA only
    :data:`CPU_EXECUTOR_BUDGET_FRACTION` of it: the rest is the host
    cache).  Each executor's share is split by its kind's pool request,
    clamped so the pool holds the largest expert and the remainder the
    largest one-sample activation of that kind.
    """
    budget = usable_device_budget(device, cpu_executors)
    cpu_bytes = budget.cpu_bytes
    if not device.is_uma:
        cpu_bytes = int(cpu_bytes * CPU_EXECUTOR_BUDGET_FRACTION)
    configs: List[ExecutorConfig] = []
    for kind, count, kind_bytes, request in (
        (ProcessorKind.GPU, gpu_executors, budget.gpu_bytes, gpu_pool),
        (ProcessorKind.CPU, cpu_executors, cpu_bytes, cpu_pool),
    ):
        if count == 0:
            continue
        records = [matrix.record(architecture, kind) for architecture in matrix.architectures]
        total = kind_bytes // count
        pool, activation = clamp_expert_pool(
            request(total, records),
            total,
            model.largest_expert_bytes,
            max(record.activation_bytes_per_sample for record in records),
        )
        configs.extend(
            ExecutorConfig(f"{kind.value}-{index}", kind, pool, activation) for index in range(count)
        )
    host_cache_bytes = 0
    if not device.is_uma:
        host_cache_bytes = budget.cpu_bytes - sum(
            config.total_bytes for config in configs if config.processor_kind is ProcessorKind.CPU
        )
    return DeploymentLayout(tuple(configs), host_cache_bytes)
