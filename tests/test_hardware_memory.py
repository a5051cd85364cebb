"""Tests for memory regions and tiers."""

import dataclasses

import pytest

from repro.hardware.memory import MemoryRegion, MemoryTier


class TestMemoryTier:
    def test_tier_values_are_stable(self):
        assert MemoryTier.GPU.value == "gpu"
        assert MemoryTier.UNIFIED.value == "unified"


class TestMemoryRegion:
    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            MemoryRegion(name="bad", tier=MemoryTier.CPU, capacity_bytes=-1)
        assert MemoryRegion(name="none", tier=MemoryTier.CPU, capacity_bytes=0).capacity_bytes == 0

    def test_region_is_an_immutable_record(self):
        region = MemoryRegion(name="test.gpu", tier=MemoryTier.GPU, capacity_bytes=1000)
        assert [field.name for field in dataclasses.fields(region)] == [
            "name",
            "tier",
            "capacity_bytes",
        ]
        with pytest.raises(dataclasses.FrozenInstanceError):
            region.capacity_bytes = 0
