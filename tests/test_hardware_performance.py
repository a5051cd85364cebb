"""Tests for the calibrated device performance model."""

import pytest

from repro.hardware.performance import DevicePerformanceModel, ExecutionProfile
from repro.hardware.processor import ProcessorKind
from repro.hardware.units import MB


@pytest.fixture
def profile():
    return ExecutionProfile(
        k_ms=2.0,
        b_ms=8.0,
        saturation_batch=8,
        saturation_penalty_ms=0.5,
        activation_bytes_per_sample=100 * MB,
        load_overhead_ms=10.0,
    )


class TestExecutionProfile:
    def test_linear_latency_before_saturation(self, profile):
        assert profile.execution_latency_ms(1) == pytest.approx(10.0)
        assert profile.execution_latency_ms(4) == pytest.approx(16.0)
        assert profile.execution_latency_ms(8) == pytest.approx(24.0)

    def test_penalty_beyond_saturation(self, profile):
        linear = 2.0 * 10 + 8.0
        assert profile.execution_latency_ms(10) == pytest.approx(linear + 0.5 * 4)

    def test_average_latency_decreases_then_increases(self, profile):
        averages = [profile.average_latency_ms(batch) for batch in range(1, 25)]
        minimum_index = averages.index(min(averages))
        assert 0 < minimum_index < len(averages) - 1
        assert averages[0] > averages[minimum_index]
        assert averages[-1] > averages[minimum_index]

    def test_activation_bytes_scale_linearly(self, profile):
        assert profile.activation_bytes(3) == 300 * MB

    def test_invalid_batch_rejected(self, profile):
        with pytest.raises(ValueError):
            profile.execution_latency_ms(0)
        with pytest.raises(ValueError):
            profile.activation_bytes(-1)

    def test_invalid_profile_parameters_rejected(self):
        with pytest.raises(ValueError):
            ExecutionProfile(0.0, 1.0, 4, 0.0, 0, 0.0)
        with pytest.raises(ValueError):
            ExecutionProfile(1.0, 1.0, 0, 0.0, 0, 0.0)
        with pytest.raises(ValueError):
            ExecutionProfile(1.0, 1.0, 4, -1.0, 0, 0.0)


class TestDevicePerformanceModel:
    def test_lookup_and_queries(self, profile):
        model = DevicePerformanceModel({("resnet101", ProcessorKind.GPU): profile})
        assert model.architectures == ("resnet101",)
        assert model.execution_latency_ms("resnet101", ProcessorKind.GPU, 2) == pytest.approx(12.0)
        assert model.activation_bytes("resnet101", ProcessorKind.GPU, 2) == 200 * MB
        assert model.load_overhead_ms("resnet101", ProcessorKind.GPU) == pytest.approx(10.0)

    def test_missing_profile_raises(self, profile):
        model = DevicePerformanceModel({("resnet101", ProcessorKind.GPU): profile})
        with pytest.raises(KeyError):
            model.profile("yolov5m", ProcessorKind.GPU)

    def test_empty_model_rejected(self):
        with pytest.raises(ValueError):
            DevicePerformanceModel({})
