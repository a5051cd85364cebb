"""Shared memory-layout helpers for serving systems.

Both CoServe and the Samba-CoE baselines have to answer the same
questions before serving: how much of each memory region is usable for
serving (the OS, driver and framework keep some), how that budget is
divided among executors, and how much CPU memory remains for the
host-side expert cache on NUMA devices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.hardware.device import Device
from repro.hardware.memory import MemoryTier

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


@dataclass(frozen=True)
class DeviceBudget:
    """Usable serving memory, split by processor class."""

    gpu_bytes: int
    cpu_bytes: int

    def __post_init__(self) -> None:
        if self.gpu_bytes < 0 or self.cpu_bytes < 0:
            raise ValueError("budgets must be non-negative")


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
