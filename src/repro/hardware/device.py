"""Edge device model combining processors, memory, storage and interconnects.

A :class:`Device` corresponds to one row-set of Table 1: the NUMA
machine (RTX 3080Ti + Xeon Silver 4214R) or the UMA machine (Apple M2).
It answers the questions the serving systems and the simulator need:

* which memory region backs a given processor,
* how long it takes to move an expert's weights from a source tier to a
  processor (expert switching latency, §2.2/§3), and
* how long a batch takes to execute on a processor (delegated to the
  :class:`~repro.hardware.performance.DevicePerformanceModel`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.hardware.interconnect import Interconnect
from repro.hardware.memory import MemoryRegion, MemoryTier
from repro.hardware.performance import DevicePerformanceModel
from repro.hardware.processor import Processor, ProcessorKind
from repro.hardware.storage import StorageDevice


class DeviceArchitecture(str, enum.Enum):
    """Memory architecture of the device (Figure 1 terminology)."""

    NUMA = "numa"
    UMA = "uma"


TransferPath = Tuple[MemoryTier, MemoryTier]


@dataclass
class Device:
    """A heterogeneous CPU+GPU edge device.

    Parameters
    ----------
    name:
        Device name, e.g. ``"numa-rtx3080ti"``.
    architecture:
        Whether the device has separate (NUMA) or unified (UMA) memory.
    processors:
        The processors present on the device, keyed by kind.
    memory_regions:
        Memory regions keyed by tier.  A NUMA device has distinct GPU
        and CPU regions; a UMA device has a single UNIFIED region.
    storage:
        The SSD holding the full expert library.
    interconnects:
        Effective data paths between tiers, keyed by (source, target).
    performance:
        Calibrated execution/loading performance model.
    """

    name: str
    architecture: DeviceArchitecture
    processors: Dict[ProcessorKind, Processor]
    memory_regions: Dict[MemoryTier, MemoryRegion]
    storage: StorageDevice
    interconnects: Dict[TransferPath, Interconnect] = field(default_factory=dict)
    performance: Optional[DevicePerformanceModel] = None
    #: Multiplier applied to SSD read time when loading expert weights,
    #: modelling checkpoint deserialisation by the AI framework (a
    #: checkpoint load is considerably slower than a raw sequential read).
    ssd_load_factor: float = 1.0

    def __post_init__(self) -> None:
        if not self.processors:
            raise ValueError("a device needs at least one processor")
        for kind, processor in self.processors.items():
            if processor.kind is not kind:
                raise ValueError(
                    f"processor registered under {kind.value} has kind {processor.kind.value}"
                )
            if processor.memory_tier not in self.memory_regions:
                raise ValueError(
                    f"processor '{processor.name}' executes from tier "
                    f"'{processor.memory_tier.value}' which has no memory region"
                )

    # ------------------------------------------------------------------
    # Memory topology
    # ------------------------------------------------------------------
    @property
    def is_uma(self) -> bool:
        return self.architecture is DeviceArchitecture.UMA

    @property
    def processor_kinds(self) -> Tuple[ProcessorKind, ...]:
        return tuple(sorted(self.processors, key=lambda kind: kind.value))

    def processor(self, kind: ProcessorKind) -> Processor:
        try:
            return self.processors[kind]
        except KeyError:
            raise KeyError(f"device '{self.name}' has no {kind.value} processor") from None

    def memory_tier_for(self, kind: ProcessorKind) -> MemoryTier:
        """The memory tier a processor executes experts from."""
        return self.processor(kind).memory_tier

    def memory_for(self, kind: ProcessorKind) -> MemoryRegion:
        """The memory region a processor executes experts from."""
        return self.memory_regions[self.memory_tier_for(kind)]

    def region(self, tier: MemoryTier) -> MemoryRegion:
        try:
            return self.memory_regions[tier]
        except KeyError:
            raise KeyError(f"device '{self.name}' has no region for tier '{tier.value}'") from None

    def has_tier(self, tier: MemoryTier) -> bool:
        return tier in self.memory_regions

    def cache_tier_for(self, kind: ProcessorKind) -> Optional[MemoryTier]:
        """The intermediate cache tier for a processor, if any.

        On a NUMA device GPU executors can keep evicted experts in CPU
        memory (the Samba-CoE DDR cache); on a UMA device there is no
        intermediate tier between the unified memory and the SSD.
        """
        if self.is_uma:
            return None
        if kind is ProcessorKind.GPU and MemoryTier.CPU in self.memory_regions:
            return MemoryTier.CPU
        return None

    # ------------------------------------------------------------------
    # Expert movement
    # ------------------------------------------------------------------
    def transfer_latency_ms(self, num_bytes: int, source: MemoryTier, target: MemoryTier) -> float:
        """Raw time to move ``num_bytes`` from ``source`` to ``target`` tier.

        Reads from the SSD use the storage device's bandwidth; moves
        between volatile tiers use the registered interconnect.  Moving
        data within the same tier is free.
        """
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        if source is target:
            return 0.0
        if source is MemoryTier.SSD:
            latency = self.storage.read_latency_ms(num_bytes)
            # On a NUMA device an SSD read destined for GPU memory also
            # crosses the CPU-to-GPU interconnect (staging through host
            # memory), which is part of what makes SSD switching so slow.
            hop = (MemoryTier.CPU, target)
            if not self.is_uma and target is MemoryTier.GPU and hop in self.interconnects:
                latency += self.interconnects[hop].transfer_latency_ms(num_bytes)
            return latency
        if target is MemoryTier.SSD:
            return self.storage.write_latency_ms(num_bytes)
        key = (source, target)
        if key in self.interconnects:
            return self.interconnects[key].transfer_latency_ms(num_bytes)
        raise KeyError(
            f"device '{self.name}' has no interconnect from '{source.value}' to '{target.value}'"
        )

    def expert_load_latency_ms(
        self,
        weight_bytes: int,
        architecture: str,
        source: MemoryTier,
        target_processor: ProcessorKind,
    ) -> float:
        """Total expert switching latency onto a processor.

        This is the quantity Figure 1 calls "expert switching latency":
        the raw transfer from the source tier plus the framework's
        loading overhead (weight deserialisation / tensor
        reorganisation) on the target processor.
        """
        if self.performance is None:
            raise RuntimeError(f"device '{self.name}' has no performance model attached")
        target_tier = self.memory_tier_for(target_processor)
        transfer = self.transfer_latency_ms(weight_bytes, source, target_tier)
        if source is MemoryTier.SSD:
            transfer *= self.ssd_load_factor
        overhead = self.performance.load_overhead_ms(architecture, target_processor)
        if self.is_uma and source is target_tier:
            # Unified memory: the bytes do not move, but the framework
            # still reorganises them when an expert migrates between CPU
            # and GPU execution (§1, Figure 1 UMA CPU-to-GPU).
            reorg = self.interconnects.get((MemoryTier.UNIFIED, MemoryTier.UNIFIED))
            if reorg is not None:
                transfer = reorg.transfer_latency_ms(weight_bytes)
        return transfer + overhead

    def execution_latency_ms(
        self, architecture: str, processor: ProcessorKind, batch_size: int
    ) -> float:
        """Batch execution latency; convenience passthrough to the model."""
        if self.performance is None:
            raise RuntimeError(f"device '{self.name}' has no performance model attached")
        return self.performance.execution_latency_ms(architecture, processor, batch_size)

    def activation_bytes(
        self, architecture: str, processor: ProcessorKind, batch_size: int
    ) -> int:
        """Intermediate-result footprint; convenience passthrough."""
        if self.performance is None:
            raise RuntimeError(f"device '{self.name}' has no performance model attached")
        return self.performance.activation_bytes(architecture, processor, batch_size)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def describe(self) -> Mapping[str, str]:
        """A flat description of the device for reports (Table 1)."""
        rows = {
            "Device": self.name,
            "Architecture": self.architecture.value.upper(),
            "SSD": self.storage.name,
        }
        for kind in self.processor_kinds:
            processor = self.processor(kind)
            region = self.memory_for(kind)
            rows[kind.value.upper()] = processor.name
            rows[f"{kind.value.upper()} memory"] = f"{region.capacity_bytes / 10**9:.0f} GB"
        return rows
