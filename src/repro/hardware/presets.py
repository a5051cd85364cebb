"""Device presets reproducing Table 1 of the paper.

Two devices are modelled:

* ``make_numa_device`` — the NUMA machine: NVIDIA RTX 3080Ti (12 GB GPU
  memory), Intel Xeon Silver 4214R (16 GB CPU memory), MICRON
  MTFDDAK480TDS SATA SSD (~530 MB/s sequential read).
* ``make_uma_device`` — the UMA machine: Apple M2 with 24 GB of unified
  memory and an APPLE AP0512Z NVMe SSD (~3000 MB/s sequential read).

Calibration
-----------
The per-architecture execution profiles (``K``/``B`` latency constants,
saturation batch sizes, activation footprints and loading overheads) are
calibrated so that the *shape* of the paper's motivation and evaluation
figures is reproduced:

* expert switching from SSD accounts for >90 % of single-request
  inference latency, and switching from CPU memory for 60–90 %
  (Figure 1);
* average latency falls with batch size and reaches its minimum around
  batch 6 on the UMA GPU and batch 5 on the UMA CPU (Figure 5);
* intermediate-result memory grows linearly with batch size, with one
  extra ResNet101 request on the NUMA GPU costing roughly as much
  memory as 1.5 resident experts (Figure 6, §3.3);
* batch execution latency is linear in the batch size until saturation
  (Figure 12).

Absolute values are estimates for the published hardware, not
measurements; the figure modules of :mod:`repro.experiments`
regenerate each calibrated effect, and ``docs/ARCHITECTURE.md`` maps
the layers.
"""

from __future__ import annotations

from typing import Dict

from repro.hardware.device import Device, DeviceArchitecture
from repro.hardware.interconnect import Interconnect
from repro.hardware.memory import MemoryRegion, MemoryTier
from repro.hardware.performance import DevicePerformanceModel, ExecutionProfile
from repro.hardware.processor import Processor, ProcessorKind
from repro.hardware.storage import StorageDevice
from repro.hardware.units import GB, MB

#: Names of the expert architectures used by the circuit-board CoE model.
RESNET101 = "resnet101"
YOLOV5M = "yolov5m"
YOLOV5L = "yolov5l"

#: Factor applied to raw SSD read time to account for weight-file
#: deserialisation by the AI framework (loading a checkpoint is far
#: slower than a raw sequential read).  The UMA factor is larger: the
#: paper measures >91 % switching share even with a ~3 GB/s SSD
#: (Figure 1), implying the framework dominates the raw read there.
SSD_DESERIALIZATION_FACTOR_NUMA = 2.5
SSD_DESERIALIZATION_FACTOR_UMA = 8.0


def _numa_profiles() -> Dict[tuple, ExecutionProfile]:
    """Execution profiles for the RTX 3080Ti + Xeon Silver 4214R machine."""
    gpu = ProcessorKind.GPU
    cpu = ProcessorKind.CPU
    return {
        (RESNET101, gpu): ExecutionProfile(
            k_ms=2.2, b_ms=8.0, saturation_batch=16, saturation_penalty_ms=0.5,
            activation_bytes_per_sample=267 * MB, load_overhead_ms=10.0,
        ),
        (YOLOV5M, gpu): ExecutionProfile(
            k_ms=3.0, b_ms=10.0, saturation_batch=16, saturation_penalty_ms=0.6,
            activation_bytes_per_sample=210 * MB, load_overhead_ms=8.0,
        ),
        (YOLOV5L, gpu): ExecutionProfile(
            k_ms=4.2, b_ms=12.0, saturation_batch=12, saturation_penalty_ms=0.8,
            activation_bytes_per_sample=310 * MB, load_overhead_ms=12.0,
        ),
        (RESNET101, cpu): ExecutionProfile(
            k_ms=38.0, b_ms=60.0, saturation_batch=4, saturation_penalty_ms=6.0,
            activation_bytes_per_sample=140 * MB, load_overhead_ms=6.0,
        ),
        (YOLOV5M, cpu): ExecutionProfile(
            k_ms=46.0, b_ms=70.0, saturation_batch=4, saturation_penalty_ms=7.0,
            activation_bytes_per_sample=120 * MB, load_overhead_ms=5.0,
        ),
        (YOLOV5L, cpu): ExecutionProfile(
            k_ms=66.0, b_ms=90.0, saturation_batch=3, saturation_penalty_ms=9.0,
            activation_bytes_per_sample=170 * MB, load_overhead_ms=7.0,
        ),
    }


def _uma_profiles() -> Dict[tuple, ExecutionProfile]:
    """Execution profiles for the Apple M2 machine."""
    gpu = ProcessorKind.GPU
    cpu = ProcessorKind.CPU
    return {
        (RESNET101, gpu): ExecutionProfile(
            k_ms=5.0, b_ms=15.0, saturation_batch=6, saturation_penalty_ms=2.0,
            activation_bytes_per_sample=190 * MB, load_overhead_ms=8.0,
        ),
        (YOLOV5M, gpu): ExecutionProfile(
            k_ms=6.0, b_ms=18.0, saturation_batch=6, saturation_penalty_ms=2.2,
            activation_bytes_per_sample=160 * MB, load_overhead_ms=7.0,
        ),
        (YOLOV5L, gpu): ExecutionProfile(
            k_ms=8.5, b_ms=22.0, saturation_batch=5, saturation_penalty_ms=2.8,
            activation_bytes_per_sample=230 * MB, load_overhead_ms=9.0,
        ),
        (RESNET101, cpu): ExecutionProfile(
            k_ms=30.0, b_ms=45.0, saturation_batch=5, saturation_penalty_ms=5.0,
            activation_bytes_per_sample=150 * MB, load_overhead_ms=5.0,
        ),
        (YOLOV5M, cpu): ExecutionProfile(
            k_ms=36.0, b_ms=55.0, saturation_batch=5, saturation_penalty_ms=6.0,
            activation_bytes_per_sample=130 * MB, load_overhead_ms=5.0,
        ),
        (YOLOV5L, cpu): ExecutionProfile(
            k_ms=52.0, b_ms=75.0, saturation_batch=4, saturation_penalty_ms=8.0,
            activation_bytes_per_sample=185 * MB, load_overhead_ms=6.0,
        ),
    }


def make_numa_device() -> Device:
    """Build the NUMA evaluation device (RTX 3080Ti + Xeon Silver 4214R)."""
    gpu = Processor(
        name="NVIDIA RTX 3080Ti", kind=ProcessorKind.GPU,
        memory_tier=MemoryTier.GPU, cores=80, peak_tflops=34.1,
    )
    cpu = Processor(
        name="Intel Xeon Silver 4214R", kind=ProcessorKind.CPU,
        memory_tier=MemoryTier.CPU, cores=12, peak_tflops=1.3,
    )
    regions = {
        MemoryTier.GPU: MemoryRegion(name="numa.gpu", tier=MemoryTier.GPU, capacity_bytes=12 * GB),
        MemoryTier.CPU: MemoryRegion(name="numa.cpu", tier=MemoryTier.CPU, capacity_bytes=16 * GB),
    }
    storage = StorageDevice.from_mb_per_second(
        name="MICRON MTFDDAK480TDS", read_mb_per_s=530.0, write_mb_per_s=480.0,
    )
    pcie = Interconnect.from_mb_per_second("pcie4-effective", 6000.0, per_transfer_overhead_ms=5.0)
    interconnects = {
        (MemoryTier.CPU, MemoryTier.GPU): pcie,
        (MemoryTier.GPU, MemoryTier.CPU): pcie,
    }
    return Device(
        name="numa-rtx3080ti",
        architecture=DeviceArchitecture.NUMA,
        processors={ProcessorKind.GPU: gpu, ProcessorKind.CPU: cpu},
        memory_regions=regions,
        storage=storage,
        interconnects=interconnects,
        performance=DevicePerformanceModel(_numa_profiles()),
        ssd_load_factor=SSD_DESERIALIZATION_FACTOR_NUMA,
    )


def make_uma_device() -> Device:
    """Build the UMA evaluation device (Apple M2, 24 GB unified memory)."""
    gpu = Processor(
        name="Apple M2 GPU", kind=ProcessorKind.GPU,
        memory_tier=MemoryTier.UNIFIED, cores=10, peak_tflops=3.6,
    )
    cpu = Processor(
        name="Apple M2 CPU", kind=ProcessorKind.CPU,
        memory_tier=MemoryTier.UNIFIED, cores=8, peak_tflops=0.9,
    )
    regions = {
        MemoryTier.UNIFIED: MemoryRegion(
            name="uma.unified", tier=MemoryTier.UNIFIED, capacity_bytes=24 * GB
        ),
    }
    storage = StorageDevice.from_mb_per_second(
        name="APPLE SSD AP0512Z", read_mb_per_s=3000.0, write_mb_per_s=2500.0,
    )
    # Unified memory: no physical copy, but the framework reorganises
    # tensors when an expert migrates between CPU and GPU execution.
    reorg = Interconnect.from_mb_per_second("uma-reorganisation", 3000.0, per_transfer_overhead_ms=5.0)
    interconnects = {
        (MemoryTier.UNIFIED, MemoryTier.UNIFIED): reorg,
    }
    return Device(
        name="uma-apple-m2",
        architecture=DeviceArchitecture.UMA,
        processors={ProcessorKind.GPU: gpu, ProcessorKind.CPU: cpu},
        memory_regions=regions,
        storage=storage,
        interconnects=interconnects,
        performance=DevicePerformanceModel(_uma_profiles()),
        ssd_load_factor=SSD_DESERIALIZATION_FACTOR_UMA,
    )


def make_device(architecture: str) -> Device:
    """Build a preset device by architecture name (``"numa"`` or ``"uma"``)."""
    normalized = architecture.strip().lower()
    if normalized == DeviceArchitecture.NUMA.value:
        return make_numa_device()
    if normalized == DeviceArchitecture.UMA.value:
        return make_uma_device()
    raise ValueError(f"unknown device architecture '{architecture}' (expected 'numa' or 'uma')")
