"""Tests for expert architectures, instances and the registry."""

import pytest

from repro.experts.architecture import BYTES_PER_PARAMETER, ExpertArchitecture, ExpertTask
from repro.experts.expert import Expert, ExpertRole
from repro.experts.registry import (
    RESNET101,
    YOLOV5L,
    YOLOV5M,
    ArchitectureRegistry,
    default_registry,
)
from repro.hardware.units import MB


class TestExpertArchitecture:
    def test_from_parameters_uses_fp32(self):
        arch = ExpertArchitecture.from_parameters("tiny", ExpertTask.CLASSIFICATION, 1000)
        assert arch.weight_bytes == 1000 * BYTES_PER_PARAMETER

    def test_name_must_be_lowercase(self):
        with pytest.raises(ValueError):
            ExpertArchitecture("ResNet101", ExpertTask.CLASSIFICATION, 10, 40)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ExpertArchitecture("x", ExpertTask.CLASSIFICATION, 0, 40)
        with pytest.raises(ValueError):
            ExpertArchitecture("x", ExpertTask.CLASSIFICATION, 10, 0)
        with pytest.raises(ValueError):
            ExpertArchitecture("", ExpertTask.CLASSIFICATION, 10, 40)

    def test_standard_architectures_have_expected_scale(self):
        # The circuit-board application: ~178 MB, ~85 MB and ~186 MB experts.
        assert 170 * MB < RESNET101.weight_bytes < 185 * MB
        assert 80 * MB < YOLOV5M.weight_bytes < 90 * MB
        assert 180 * MB < YOLOV5L.weight_bytes < 190 * MB

    def test_standard_tasks(self):
        assert RESNET101.task is ExpertTask.CLASSIFICATION
        assert YOLOV5M.task is ExpertTask.DETECTION
        assert YOLOV5L.task is ExpertTask.DETECTION


class TestRegistry:
    def test_default_registry_contains_three(self):
        registry = default_registry()
        assert len(registry) == 3
        assert registry.names() == ["resnet101", "yolov5l", "yolov5m"]

    def test_lookup_is_case_insensitive(self):
        registry = default_registry()
        assert registry.get("ResNet101") is RESNET101

    def test_unknown_architecture_raises(self):
        with pytest.raises(KeyError):
            default_registry().get("vgg16")

    def test_duplicate_registration_rejected(self):
        registry = default_registry()
        with pytest.raises(ValueError):
            registry.register(RESNET101)

    def test_contains_and_iteration(self):
        registry = default_registry()
        assert "yolov5m" in registry
        assert "nonexistent" not in registry
        assert set(arch.name for arch in registry) == {"resnet101", "yolov5m", "yolov5l"}

    def test_custom_registration(self):
        registry = ArchitectureRegistry()
        custom = ExpertArchitecture.from_parameters("flan-t5-xl", ExpertTask.CLASSIFICATION, 3_000_000_000)
        registry.register(custom)
        assert registry.get("flan-t5-xl").weight_bytes == 12_000_000_000


class TestExpert:
    def test_expert_properties(self):
        expert = Expert("cls/a", RESNET101, ExpertRole.PRELIMINARY, description="component a")
        assert expert.weight_bytes == RESNET101.weight_bytes
        assert expert.architecture_name == "resnet101"
        assert expert.role is ExpertRole.PRELIMINARY
        assert str(expert) == "cls/a"

    def test_subsequent_role(self):
        expert = Expert("det/0", YOLOV5M, ExpertRole.SUBSEQUENT)
        assert expert.role is ExpertRole.SUBSEQUENT

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            Expert("", RESNET101, ExpertRole.PRELIMINARY)

    def test_experts_share_architecture_identity(self):
        a = Expert("cls/a", RESNET101, ExpertRole.PRELIMINARY)
        b = Expert("cls/b", RESNET101, ExpertRole.PRELIMINARY)
        assert a.architecture is b.architecture
        assert a != b
