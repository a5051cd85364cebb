"""Tests for the offline profiler (§4.5)."""

import pytest

from repro.core.profiler import OfflineProfiler
from repro.hardware.memory import MemoryTier
from repro.hardware.processor import ProcessorKind


@pytest.fixture(scope="module")
def profiler(numa_device, small_model):
    return OfflineProfiler(numa_device, small_model)


class TestMicrobenchmarks:
    def test_sweep_shapes(self, profiler):
        sweep = profiler.sweep("resnet101", ProcessorKind.GPU, batch_sizes=range(1, 17))
        assert len(sweep.batch_sizes) == 16
        assert len(sweep.execution_latency_ms) == 16
        assert len(sweep.memory_footprint_bytes) == 16

    def test_latency_monotonically_increases_with_batch(self, profiler):
        sweep = profiler.sweep("resnet101", ProcessorKind.GPU)
        latencies = sweep.execution_latency_ms
        assert all(b > a for a, b in zip(latencies, latencies[1:]))

    def test_memory_footprint_increases_with_batch(self, profiler):
        sweep = profiler.sweep("resnet101", ProcessorKind.GPU)
        footprints = sweep.memory_footprint_bytes
        assert all(b > a for a, b in zip(footprints, footprints[1:]))
        # Footprint includes the expert weights even at batch 1.
        weight = profiler.model.expert(profiler.model.experts_of_architecture("resnet101")[0]).weight_bytes
        assert footprints[0] > weight

    def test_best_batch_size_detects_average_latency_minimum(self, profiler):
        sweep = profiler.sweep("resnet101", ProcessorKind.GPU)
        best = sweep.best_batch_size()
        averages = list(sweep.average_latency_ms)
        assert averages[best - 1] <= min(averages) * 1.03

    def test_cpu_max_batch_smaller_than_gpu(self, profiler):
        gpu = profiler.sweep("resnet101", ProcessorKind.GPU).best_batch_size()
        cpu = profiler.sweep("resnet101", ProcessorKind.CPU).best_batch_size()
        assert cpu < gpu

    def test_unknown_architecture_rejected(self, profiler):
        with pytest.raises(KeyError):
            profiler.sweep("vgg16", ProcessorKind.GPU)

    def test_invalid_batches_rejected(self, profiler):
        with pytest.raises(ValueError):
            profiler.sweep("resnet101", ProcessorKind.GPU, batch_sizes=[0, 1])

    def test_loading_latency_covers_ssd_and_cache(self, profiler):
        latencies = profiler.measure_loading_latency("resnet101", ProcessorKind.GPU)
        assert MemoryTier.SSD.value in latencies
        assert MemoryTier.CPU.value in latencies
        assert latencies[MemoryTier.SSD.value] > latencies[MemoryTier.CPU.value]


class TestPerformanceMatrixConstruction:
    def test_matrix_covers_all_architectures_and_processors(self, profiler, small_model):
        matrix = profiler.build_performance_matrix()
        for architecture in small_model.architectures:
            for processor in (ProcessorKind.GPU, ProcessorKind.CPU):
                assert matrix.record(architecture, processor).processor is processor

    def test_fitted_k_and_b_recover_linear_law(self, profiler, numa_device):
        """The fit must recover the calibrated K and B closely."""
        matrix = profiler.build_performance_matrix()
        record = matrix.record("resnet101", ProcessorKind.GPU)
        profile = numa_device.performance.profile("resnet101", ProcessorKind.GPU)
        assert record.k_ms == pytest.approx(profile.k_ms, rel=0.15)
        assert record.b_ms == pytest.approx(profile.b_ms, rel=0.35)

    def test_memory_scores_normalised_to_smallest(self, profiler):
        matrix = profiler.build_performance_matrix()
        scores = {
            architecture: matrix.record(architecture, ProcessorKind.GPU).memory_score
            for architecture in matrix.architectures
        }
        assert min(scores.values()) == pytest.approx(1.0)
        assert scores["resnet101"] > scores["yolov5m"]

    def test_same_architecture_profiled_once_per_processor(self, profiler, small_model):
        """Experts share their architecture's record (§4.5)."""
        matrix = profiler.build_performance_matrix()
        resnet_experts = small_model.experts_of_architecture("resnet101")
        assert len(resnet_experts) > 1
        record = matrix.record("resnet101", ProcessorKind.GPU)
        assert record.weight_bytes == small_model.expert(resnet_experts[0]).weight_bytes


class TestUsageEstimation:
    def test_from_category_weights(self, profiler, small_board):
        profile = profiler.estimate_usage_profile(category_weights=small_board.quantity_weights())
        assert len(profile) == len(profiler.model)

    def test_from_observed_pipelines(self, profiler, small_stream):
        pipelines = [request.realized_pipeline for request in small_stream]
        profile = profiler.estimate_usage_profile(observed_pipelines=pipelines)
        assert max(profile.probabilities.values()) > 0

    def test_requires_some_information(self, profiler):
        with pytest.raises(ValueError):
            profiler.estimate_usage_profile()
