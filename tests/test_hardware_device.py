"""Tests for the device model and its presets."""

import pytest

from repro.hardware.device import DeviceArchitecture
from repro.hardware.memory import MemoryTier
from repro.hardware.presets import RESNET101, YOLOV5L, YOLOV5M, make_device, make_numa_device, make_uma_device
from repro.hardware.processor import ProcessorKind
from repro.hardware.units import GB, MB


class TestPresets:
    def test_table1_capacities(self, numa_device, uma_device):
        assert numa_device.region(MemoryTier.GPU).capacity_bytes == 12 * GB
        assert numa_device.region(MemoryTier.CPU).capacity_bytes == 16 * GB
        assert uma_device.region(MemoryTier.UNIFIED).capacity_bytes == 24 * GB

    def test_architectures(self, numa_device, uma_device):
        assert numa_device.architecture is DeviceArchitecture.NUMA
        assert uma_device.architecture is DeviceArchitecture.UMA
        assert not numa_device.is_uma
        assert uma_device.is_uma

    def test_make_device_by_name(self):
        assert make_device("numa").architecture is DeviceArchitecture.NUMA
        assert make_device("UMA").architecture is DeviceArchitecture.UMA
        with pytest.raises(ValueError):
            make_device("tpu-pod")

    def test_both_processors_present(self, numa_device, uma_device):
        for device in (numa_device, uma_device):
            assert set(device.processor_kinds) == {ProcessorKind.GPU, ProcessorKind.CPU}

    def test_memory_tier_for_processors(self, numa_device, uma_device):
        assert numa_device.memory_tier_for(ProcessorKind.GPU) is MemoryTier.GPU
        assert numa_device.memory_tier_for(ProcessorKind.CPU) is MemoryTier.CPU
        assert uma_device.memory_tier_for(ProcessorKind.GPU) is MemoryTier.UNIFIED
        assert uma_device.memory_tier_for(ProcessorKind.CPU) is MemoryTier.UNIFIED

    def test_cache_tier(self, numa_device, uma_device):
        assert numa_device.cache_tier_for(ProcessorKind.GPU) is MemoryTier.CPU
        assert numa_device.cache_tier_for(ProcessorKind.CPU) is None
        assert uma_device.cache_tier_for(ProcessorKind.GPU) is None

    def test_describe_contains_table1_entries(self, numa_device):
        description = numa_device.describe()
        assert description["Architecture"] == "NUMA"
        assert "3080Ti" in description["GPU"]
        assert description["GPU memory"] == "12 GB"


class TestTransferLatencies:
    def test_same_tier_transfer_is_free(self, numa_device):
        assert numa_device.transfer_latency_ms(100 * MB, MemoryTier.GPU, MemoryTier.GPU) == 0.0

    def test_ssd_read_slower_than_pcie(self, numa_device):
        ssd = numa_device.transfer_latency_ms(178 * MB, MemoryTier.SSD, MemoryTier.GPU)
        pcie = numa_device.transfer_latency_ms(178 * MB, MemoryTier.CPU, MemoryTier.GPU)
        assert ssd > pcie

    def test_uma_ssd_faster_than_numa_ssd(self, numa_device, uma_device):
        numa = numa_device.transfer_latency_ms(178 * MB, MemoryTier.SSD, MemoryTier.GPU)
        uma = uma_device.transfer_latency_ms(178 * MB, MemoryTier.SSD, MemoryTier.UNIFIED)
        assert uma < numa

    def test_missing_interconnect_raises(self, uma_device):
        with pytest.raises(KeyError):
            uma_device.transfer_latency_ms(1 * MB, MemoryTier.CPU, MemoryTier.GPU)


class TestExpertLoadLatency:
    """Figure 1: switching latency dominates inference latency."""

    WEIGHTS = {RESNET101: 178 * MB, YOLOV5M: 85 * MB, YOLOV5L: 186 * MB}

    @pytest.mark.parametrize("arch", [RESNET101, YOLOV5M, YOLOV5L])
    def test_ssd_switching_share_exceeds_90_percent_numa(self, numa_device, arch):
        execution = numa_device.execution_latency_ms(arch, ProcessorKind.GPU, 1)
        switching = numa_device.expert_load_latency_ms(
            self.WEIGHTS[arch], arch, MemoryTier.SSD, ProcessorKind.GPU
        )
        assert switching / (switching + execution) > 0.90

    @pytest.mark.parametrize("arch", [RESNET101, YOLOV5M, YOLOV5L])
    def test_cpu_to_gpu_switching_share_exceeds_60_percent(self, numa_device, uma_device, arch):
        for device, source in ((numa_device, MemoryTier.CPU), (uma_device, MemoryTier.UNIFIED)):
            execution = device.execution_latency_ms(arch, ProcessorKind.GPU, 1)
            switching = device.expert_load_latency_ms(
                self.WEIGHTS[arch], arch, source, ProcessorKind.GPU
            )
            assert switching / (switching + execution) > 0.60

    def test_ssd_deserialisation_factor_applies_only_to_ssd(self, numa_device):
        raw = numa_device.transfer_latency_ms(178 * MB, MemoryTier.SSD, MemoryTier.GPU)
        loaded = numa_device.expert_load_latency_ms(
            178 * MB, RESNET101, MemoryTier.SSD, ProcessorKind.GPU
        )
        assert loaded > raw  # deserialisation factor plus framework overhead
