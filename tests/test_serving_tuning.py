"""Tests for the offline configuration searches (Figures 17 and 18)."""

import pytest

from repro.core.memory import DecayWindowSearch
from repro.serving import coserve
from repro.serving.coserve import CoServeSystem
from repro.serving.tuning import (
    measure_throughput,
    run_memory_allocation_search,
    sweep_executor_configurations,
    tune_configuration,
)
from repro.simulation.engine import SimulationOptions
from repro.workload.generator import generate_request_stream


@pytest.fixture(scope="module")
def sample_stream(small_board, small_model):
    return generate_request_stream(small_board, small_model, num_requests=150, seed=9, name="sample")


class TestMeasureThroughput:
    def test_returns_positive_throughput(self, numa_device, small_model, small_usage, sample_stream, numa_matrix):
        throughput = measure_throughput(
            numa_device, small_model, small_usage, sample_stream,
            gpu_expert_count=10, performance_matrix=numa_matrix,
        )
        assert throughput > 0

    def test_options_override_is_honoured(self, numa_device, small_model, small_usage, sample_stream, numa_matrix):
        private = SimulationOptions(share_pool_per_processor=False)
        setup = dict(gpu_expert_count=10, performance_matrix=numa_matrix)
        replay = measure_throughput(
            numa_device, small_model, small_usage, sample_stream, options=private, **setup
        )
        served = CoServeSystem(numa_device, small_model, small_usage, options=private, **setup)
        assert replay == served.serve(sample_stream).throughput_rps
        shared = measure_throughput(numa_device, small_model, small_usage, sample_stream, **setup)
        assert replay != shared, "private pools must change this replay"


class TestExecutorSweep:
    def test_sweep_reports_each_candidate(self, numa_device, small_model, small_usage, sample_stream, numa_matrix):
        candidates = [(1, 1), (2, 1), (3, 1)]
        points = sweep_executor_configurations(
            numa_device, small_model, small_usage, sample_stream, candidates,
            performance_matrix=numa_matrix,
        )
        assert [(p.gpu_executors, p.cpu_executors) for p in points] == candidates
        assert all(point.throughput_rps > 0 for point in points)
        assert points[0].label == "1G+1C"


class _RecordingSearch:
    """Stands in for DecayWindowSearch and records the count bounds it gets."""

    def search(self, throughput_fn, max_expert_count, min_expert_count=1):
        self.bounds = (min_expert_count, max_expert_count)


class TestMemoryAllocationSearch:
    def test_search_bounds_follow_coserve_executor_defaults(
        self, uma_device, small_model, small_usage, sample_stream, uma_matrix, monkeypatch
    ):
        def bounds():
            search = _RecordingSearch()
            run_memory_allocation_search(
                uma_device, small_model, small_usage, sample_stream,
                search=search, performance_matrix=uma_matrix,
            )
            return search.bounds

        low, high = bounds()
        assert low == coserve.DEFAULT_GPU_EXECUTORS["uma"]
        monkeypatch.setitem(coserve.DEFAULT_GPU_EXECUTORS, "uma", low + 1)
        assert bounds()[0] == low + 1
        # Without CPU executors the whole unified budget goes to the GPU side.
        monkeypatch.setitem(coserve.DEFAULT_CPU_EXECUTORS, "uma", 0)
        assert bounds()[1] > high

    def test_search_returns_feasible_selection(self, numa_device, small_model, small_usage, sample_stream, numa_matrix):
        result = run_memory_allocation_search(
            numa_device, small_model, small_usage, sample_stream,
            search=DecayWindowSearch(initial_window=10, error_margin=0.05, seed=0),
            performance_matrix=numa_matrix,
        )
        assert result.selected_count >= 3
        assert result.selected_throughput > 0
        assert len(result.trace) >= 2

    def test_tune_configuration_combines_both_searches(self, numa_device, small_model, small_usage, sample_stream, numa_matrix):
        tuned = tune_configuration(
            numa_device, small_model, small_usage, sample_stream,
            executor_candidates=[(1, 1), (2, 1)],
            performance_matrix=numa_matrix,
        )
        assert tuned.gpu_executors in (1, 2)
        assert tuned.cpu_executors == 1
        assert tuned.gpu_expert_count > 0
