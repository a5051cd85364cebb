"""Integration tests for the discrete-event serving engine."""

import pytest

from repro.hardware.processor import ProcessorKind
from repro.policies.fifo import FIFOPolicy
from repro.policies.lru import LRUPolicy
from repro.scheduling.fcfs import FCFSScheduling
from repro.scheduling.round_robin import RoundRobinScheduling
from repro.simulation.engine import ServingSimulation, SimulationError, SimulationOptions
from repro.simulation.executor import ExecutorConfig
from repro.hardware.units import GB, MB


def gpu_config(name="gpu-0", pool_gb=4, activation_gb=1):
    return ExecutorConfig(name, ProcessorKind.GPU, int(pool_gb * GB), int(activation_gb * GB))


def cpu_config(name="cpu-0", pool_gb=4, activation_gb=1):
    return ExecutorConfig(name, ProcessorKind.CPU, int(pool_gb * GB), int(activation_gb * GB))


def make_simulation(device, model, configs=None, scheduler=None, eviction=None, **kwargs):
    return ServingSimulation(
        device=device,
        model=model,
        executor_configs=configs if configs is not None else [gpu_config()],
        scheduling_policy=scheduler or FCFSScheduling(),
        eviction_policy=eviction or LRUPolicy(),
        **kwargs,
    )


class TestConstructionValidation:
    def test_duplicate_executor_names_rejected(self, numa_device, small_model):
        with pytest.raises(ValueError):
            make_simulation(numa_device, small_model, [gpu_config("x"), gpu_config("x")])

    def test_no_executors_rejected(self, numa_device, small_model):
        with pytest.raises(ValueError):
            make_simulation(numa_device, small_model, [])

    def test_memory_budget_exceeding_device_rejected(self, numa_device, small_model):
        with pytest.raises(SimulationError):
            make_simulation(numa_device, small_model, [gpu_config(pool_gb=11, activation_gb=4)])

    def test_pool_smaller_than_largest_expert_rejected(self, numa_device, small_model):
        tiny = ExecutorConfig("gpu-0", ProcessorKind.GPU, 50 * MB, 1 * GB)
        with pytest.raises(SimulationError):
            make_simulation(numa_device, small_model, [tiny])

    def test_host_cache_counted_against_cpu_budget(self, numa_device, small_model):
        with pytest.raises(SimulationError):
            make_simulation(
                numa_device,
                small_model,
                [gpu_config(), cpu_config(pool_gb=10, activation_gb=1)],
                host_cache_bytes=10 * GB,
            )

    def test_uma_device_never_gets_host_cache(self, uma_device, small_model):
        simulation = make_simulation(
            uma_device, small_model, [gpu_config()], host_cache_bytes=4 * GB
        )
        assert simulation.host_cache is None

    def test_shared_pool_per_processor(self, numa_device, small_model):
        simulation = make_simulation(
            numa_device, small_model, [gpu_config("gpu-0", 3, 1), gpu_config("gpu-1", 3, 1)]
        )
        executors = simulation.executors
        assert executors[0].pool is executors[1].pool
        assert executors[0].pool.capacity_bytes == 6 * GB

    def test_private_pools_when_sharing_disabled(self, numa_device, small_model):
        simulation = make_simulation(
            numa_device,
            small_model,
            [gpu_config("gpu-0", 3, 1), gpu_config("gpu-1", 3, 1)],
            options=SimulationOptions(share_pool_per_processor=False),
        )
        executors = simulation.executors
        assert executors[0].pool is not executors[1].pool

    def test_options_are_keyword_only(self):
        """A removed field must not silently shift positional arguments."""
        with pytest.raises(TypeError):
            SimulationOptions(False)


class TestPreload:
    def test_preload_fills_pool_in_priority_order(self, numa_device, small_model, small_usage):
        simulation = make_simulation(numa_device, small_model)
        ordered = small_usage.sorted_expert_ids()[:5]
        simulation.preload({"gpu-0": ordered})
        pool = simulation.executor("gpu-0").pool
        for expert_id in ordered:
            assert pool.contains(expert_id)

    def test_preload_skips_experts_that_do_not_fit(self, numa_device, small_model, small_usage):
        config = ExecutorConfig("gpu-0", ProcessorKind.GPU, 400 * MB, 1 * GB)
        simulation = make_simulation(numa_device, small_model, [config])
        simulation.preload({"gpu-0": list(small_usage.sorted_expert_ids())})
        pool = simulation.executor("gpu-0").pool
        assert pool.used_bytes <= 400 * MB
        assert pool.resident_count >= 1

    def test_preload_does_not_count_as_switch(self, numa_device, small_model, small_usage):
        simulation = make_simulation(numa_device, small_model)
        simulation.preload({"gpu-0": small_usage.sorted_expert_ids()[:5]})
        assert simulation.metrics.expert_loads == 0
        assert simulation.metrics.expert_switches == 0

    def test_preload_host_cache(self, numa_device, small_model, small_usage):
        simulation = make_simulation(numa_device, small_model, host_cache_bytes=2 * GB)
        experts = list(small_usage.sorted_expert_ids()[:8])
        simulation.preload_host_cache(experts)
        assert simulation.host_cache.resident_count > 0

    def test_unknown_executor_in_plan_raises(self, numa_device, small_model):
        simulation = make_simulation(numa_device, small_model)
        with pytest.raises(KeyError):
            simulation.preload({"ghost": ["cls/x"]})


class TestServing:
    def test_all_requests_complete(self, numa_device, small_model, small_stream):
        simulation = make_simulation(numa_device, small_model)
        result = simulation.run(small_stream)
        assert result.num_requests == len(small_stream)
        assert all(request.is_completed for request in result.requests)
        assert result.makespan_ms > 0
        assert result.throughput_rps > 0

    def test_every_stage_executed_exactly_once(self, numa_device, small_model, small_stream):
        simulation = make_simulation(numa_device, small_model)
        result = simulation.run(small_stream)
        total_stages = sum(len(request.records) for request in result.requests)
        assert total_stages == small_stream.total_stage_count

    def test_stages_execute_in_pipeline_order(self, numa_device, small_model, small_stream):
        result = make_simulation(numa_device, small_model).run(small_stream)
        for request in result.requests:
            expected = list(request.pipeline)
            assert [record.expert_id for record in request.records] == expected
            for earlier, later in zip(request.records, request.records[1:]):
                assert later.enqueue_ms >= earlier.end_ms

    def test_completion_never_before_arrival(self, numa_device, small_model, small_stream):
        result = make_simulation(numa_device, small_model).run(small_stream)
        for request in result.requests:
            assert request.completed_ms >= request.arrival_ms

    def test_deterministic_across_runs(self, numa_device, small_model, small_stream):
        result_a = make_simulation(numa_device, small_model).run(small_stream)
        result_b = make_simulation(numa_device, small_model).run(small_stream)
        assert result_a.makespan_ms == result_b.makespan_ms
        assert result_a.expert_switches == result_b.expert_switches

    def test_switch_counted_only_when_eviction_needed(self, numa_device, small_model, small_stream):
        simulation = make_simulation(numa_device, small_model)
        result = simulation.run(small_stream)
        assert result.expert_switches <= result.expert_loads

    def test_loads_by_source_sum_to_total(self, numa_device, small_model, small_stream):
        result = make_simulation(numa_device, small_model, host_cache_bytes=4 * GB).run(small_stream)
        assert result.loads_from_ssd + result.loads_from_cache == result.expert_loads

    def test_host_cache_reduces_ssd_loads(self, numa_device, small_model, small_stream):
        without_cache = make_simulation(numa_device, small_model).run(small_stream)
        with_cache = make_simulation(numa_device, small_model, host_cache_bytes=10 * GB).run(small_stream)
        assert with_cache.loads_from_ssd <= without_cache.loads_from_ssd
        assert with_cache.makespan_ms <= without_cache.makespan_ms

    def test_preloading_hot_experts_improves_throughput(
        self, numa_device, small_model, small_stream, small_usage
    ):
        cold = make_simulation(numa_device, small_model).run(small_stream)
        warm_simulation = make_simulation(numa_device, small_model)
        warm_simulation.preload({"gpu-0": small_usage.sorted_expert_ids()})
        warm = warm_simulation.run(small_stream)
        assert warm.expert_loads <= cold.expert_loads
        assert warm.throughput_rps >= cold.throughput_rps

    def test_round_robin_across_two_executors_uses_both(self, numa_device, small_model, small_stream):
        simulation = make_simulation(
            numa_device,
            small_model,
            [gpu_config("gpu-0", 3, 1), gpu_config("gpu-1", 3, 1)],
            scheduler=RoundRobinScheduling(),
        )
        result = simulation.run(small_stream)
        stages = {summary.name: summary.stages_executed for summary in result.executors}
        assert stages["gpu-0"] > 0 and stages["gpu-1"] > 0

    def test_cpu_executor_slower_than_gpu(self, numa_device, small_model, small_stream):
        gpu_result = make_simulation(numa_device, small_model, [gpu_config()]).run(small_stream)
        cpu_result = make_simulation(numa_device, small_model, [cpu_config()]).run(small_stream)
        assert cpu_result.total_execution_ms > gpu_result.total_execution_ms

    def test_larger_batches_reduce_execution_time(self, numa_device, small_model, small_stream):
        unbatched = make_simulation(
            numa_device, small_model, scheduler=FCFSScheduling(batch_size=1)
        ).run(small_stream)
        batched = make_simulation(
            numa_device, small_model, scheduler=FCFSScheduling(batch_size=8)
        ).run(small_stream)
        assert batched.total_execution_ms < unbatched.total_execution_ms

    def test_executor_summaries_consistent_with_totals(self, numa_device, small_model, small_stream):
        result = make_simulation(numa_device, small_model).run(small_stream)
        assert sum(summary.expert_loads for summary in result.executors) == result.expert_loads
        assert sum(summary.stages_executed for summary in result.executors) == sum(
            len(request.records) for request in result.requests
        )

    def test_fifo_and_lru_can_differ(self, numa_device, small_model, small_stream):
        lru = make_simulation(numa_device, small_model, eviction=LRUPolicy()).run(small_stream)
        fifo = make_simulation(numa_device, small_model, eviction=FIFOPolicy()).run(small_stream)
        # Both must serve everything; counts may legitimately differ.
        assert lru.num_requests == fifo.num_requests == len(small_stream)

    def test_keep_request_records_can_be_disabled(self, numa_device, small_model, small_stream):
        simulation = make_simulation(
            numa_device, small_model, options=SimulationOptions(keep_request_records=False)
        )
        result = simulation.run(small_stream)
        assert result.requests == ()
        # Per-request records are gone, but the totals-based latency metric survives.
        assert result.average_request_latency_ms > 0.0
