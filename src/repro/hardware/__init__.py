"""Simulated hardware substrate.

The paper evaluates CoServe on two edge devices (Table 1):

* a NUMA machine with an NVIDIA RTX 3080Ti (12 GB GPU memory), an Intel
  Xeon Silver 4214R with 16 GB of CPU memory, and a SATA SSD with about
  530 MB/s of read bandwidth, and
* a UMA machine (Apple M2) with 24 GB of unified memory and an NVMe SSD
  with roughly 3 GB/s of read bandwidth.

This subpackage models those devices: processors, memory regions,
storage devices, interconnects, and a calibrated performance model that
provides execution latency, activation footprint and expert-loading
latency for each expert architecture.  The discrete-event simulator in
``repro.simulation`` consumes these models to advance virtual time.
"""

from repro.hardware.units import KB, MB, GB, bytes_to_mb, bytes_to_gb
from repro.hardware.memory import MemoryRegion, MemoryTier
from repro.hardware.storage import StorageDevice
from repro.hardware.interconnect import Interconnect
from repro.hardware.processor import Processor, ProcessorKind
from repro.hardware.performance import ExecutionProfile, DevicePerformanceModel
from repro.hardware.device import Device, DeviceArchitecture

__all__ = [
    "KB",
    "MB",
    "GB",
    "bytes_to_mb",
    "bytes_to_gb",
    "MemoryRegion",
    "MemoryTier",
    "StorageDevice",
    "Interconnect",
    "Processor",
    "ProcessorKind",
    "ExecutionProfile",
    "DevicePerformanceModel",
    "Device",
    "DeviceArchitecture",
]
