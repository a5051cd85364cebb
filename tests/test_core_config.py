"""Tests for the expert performance matrix (§4.5)."""

import pytest

from repro.core.config import ExpertPerformanceRecord, PerformanceMatrix
from repro.hardware.processor import ProcessorKind
from repro.hardware.units import MB


def make_record(arch="resnet101", processor=ProcessorKind.GPU, k=2.0, b=8.0, weight=178 * MB):
    return ExpertPerformanceRecord(
        architecture=arch,
        processor=processor,
        k_ms=k,
        b_ms=b,
        max_batch_size=8,
        activation_bytes_per_sample=100 * MB,
        weight_bytes=weight,
        load_latency_ms={"ssd": 900.0, "cpu": 45.0},
        memory_score=2.1,
    )


class TestExpertPerformanceRecord:
    def test_load_latency_lookup(self):
        record = make_record()
        assert record.load_latency_from("ssd") == 900.0
        assert record.load_latency_from("cpu") == 45.0
        with pytest.raises(KeyError):
            record.load_latency_from("unified")

    def test_invalid_record_rejected(self):
        with pytest.raises(ValueError):
            make_record(k=0.0)
        with pytest.raises(ValueError):
            make_record(weight=0)


class TestPerformanceMatrix:
    @pytest.fixture
    def matrix(self):
        return PerformanceMatrix(
            {
                ("resnet101", ProcessorKind.GPU): make_record(),
                ("resnet101", ProcessorKind.CPU): make_record(processor=ProcessorKind.CPU, k=38.0),
                ("yolov5m", ProcessorKind.GPU): make_record(arch="yolov5m", weight=85 * MB),
            }
        )

    def test_lookup(self, matrix):
        assert matrix.record("resnet101", ProcessorKind.CPU).k_ms == 38.0
        assert matrix.record("yolov5m", ProcessorKind.GPU).architecture == "yolov5m"
        with pytest.raises(KeyError):
            matrix.record("yolov5m", ProcessorKind.CPU)
        with pytest.raises(KeyError):
            matrix.record("yolov5l", ProcessorKind.GPU)

    def test_architecture_and_processor_listing(self, matrix):
        assert matrix.architectures == ("resnet101", "yolov5m")
        for processor in (ProcessorKind.GPU, ProcessorKind.CPU):
            assert matrix.record("resnet101", processor).processor is processor

    def test_memory_score_and_max_batch(self, matrix):
        record = matrix.record("resnet101", ProcessorKind.GPU)
        assert record.memory_score == pytest.approx(2.1)
        assert record.max_batch_size == 8
        with pytest.raises(KeyError):
            matrix.record("vgg", ProcessorKind.GPU)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            PerformanceMatrix({})

