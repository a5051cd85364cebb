"""Tests for the engine hot-path data structures (run-structured queues,
source-tier lookups over the pools, O(E) assigning) and for result equivalence
between the optimised engine and the pre-optimisation reference
implementation kept in :mod:`repro.simulation.reference`."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware.memory import MemoryTier
from repro.hardware.processor import ProcessorKind
from repro.hardware.units import GB
from repro.policies import EvictionPolicy, LRUPolicy
from repro.scheduling.round_robin import RoundRobinScheduling
from repro.serving import SYSTEM_NAMES, CoServeSystem, build_system
from repro.simulation.engine import ServingSimulation, SimulationOptions
from repro.simulation.executor import ExecutorConfig
from repro.simulation.queueing import RequestQueue
from repro.simulation.reference import (
    ReferenceRequestQueue,
    _reference_locate_source_tier,
    preredesign_run,
    referencify,
)
from repro.simulation.request import SimRequest, StageJob
from repro.workload.generator import RequestSpec, generate_request_stream


def make_job(request_id=0, expert="e0", latency=0.0):
    spec = RequestSpec(request_id, 0.0, "cat", (expert,))
    job = StageJob(request=SimRequest(spec), stage_index=0, expert_id=expert, enqueue_ms=0.0)
    job.predicted_latency_ms = latency
    return job


def expert_order(queue):
    return [job.expert_id for job in queue]


# ----------------------------------------------------------------------
# Run-structured queue semantics
# ----------------------------------------------------------------------
class TestRunStructuredQueue:
    def test_append_merges_adjacent_same_expert_runs(self):
        queue = RequestQueue("q")
        for expert in ["a", "a", "b", "b", "a"]:
            queue.append(make_job(expert=expert))
        assert queue.run_count == 3
        assert expert_order(queue) == ["a", "a", "b", "b", "a"]

    def test_insert_grouped_joins_last_same_expert_run(self):
        queue = RequestQueue("q")
        for expert in ["a", "b", "a", "c"]:
            queue.append(make_job(expert=expert))
        queue.insert_grouped(make_job(expert="a"))
        # joins the *last* "a" run, not the head one
        assert expert_order(queue) == ["a", "b", "a", "a", "c"]
        queue.insert_grouped(make_job(expert="d"))
        assert expert_order(queue)[-1] == "d"

    def test_interleaved_grouped_inserts_match_reference_queue(self):
        rng = random.Random(42)
        fast = RequestQueue("fast")
        slow = ReferenceRequestQueue("slow")
        for step in range(400):
            action = rng.random()
            if action < 0.55 or len(fast) == 0:
                expert = f"e{rng.randrange(8)}"
                job = make_job(step, expert, latency=rng.uniform(0.0, 10.0))
                fast.insert_grouped(job)
                index = slow.index_after_last(expert)
                slow.insert(len(slow) if index is None else index, job)
            elif action < 0.75:
                expert = f"e{rng.randrange(8)}"
                job = make_job(step, expert, latency=rng.uniform(0.0, 10.0))
                fast.append(job)
                slow.append(job)
            else:
                max_count = rng.randrange(1, 5)
                popped_fast = fast.pop_head_run(max_count)
                popped_slow = slow.pop_head_run(max_count)
                assert [j.request_id for j in popped_fast] == [j.request_id for j in popped_slow]
            assert expert_order(fast) == expert_order(slow)
            assert fast.pending_latency_ms == slow.pending_latency_ms
            assert fast.head_expert_id() == slow.head_expert_id()
            for expert in {f"e{i}" for i in range(8)}:
                assert fast.contains_expert(expert) == slow.contains_expert(expert)
                assert fast.index_after_last(expert) == slow.index_after_last(expert)

    def test_pop_head_run_at_batch_size_boundary_keeps_run(self):
        queue = RequestQueue("q")
        for request_id in range(5):
            queue.append(make_job(request_id, "a"))
        queue.append(make_job(5, "b"))
        popped = queue.pop_head_run(2)
        assert len(popped) == 2
        assert queue.head_expert_id() == "a"
        assert queue.run_count == 2
        popped = queue.pop_head_run(10)
        assert [job.expert_id for job in popped] == ["a", "a", "a"]
        assert queue.head_expert_id() == "b"

    def test_last_run_tracking_survives_head_pop(self):
        queue = RequestQueue("q")
        for expert in ["a", "b", "a"]:
            queue.append(make_job(expert=expert))
        queue.pop_head_run(5)  # pops the head "a" run only
        # the remaining tail "a" run must still be the grouping target
        queue.insert_grouped(make_job(expert="a"))
        assert expert_order(queue) == ["b", "a", "a"]
        queue.pop_head_run(5)  # pops "b"
        queue.pop_head_run(5)  # pops both "a"s
        assert queue.is_empty
        # after the last "a" run is consumed, new "a" jobs start fresh
        queue.append(make_job(expert="b"))
        queue.insert_grouped(make_job(expert="a"))
        assert expert_order(queue) == ["b", "a"]

    def test_generic_insert_splits_and_rebuilds_runs(self):
        queue = RequestQueue("q")
        for request_id in range(4):
            queue.append(make_job(request_id, "a"))
        queue.insert(2, make_job(9, "x"))
        assert expert_order(queue) == ["a", "a", "x", "a", "a"]
        assert queue.run_count == 3
        assert queue.index_after_last("a") == 5
        assert queue.index_after_last("x") == 3
        # the head run is now only the first two "a" jobs
        assert [job.expert_id for job in queue.pop_head_run(10)] == ["a", "a"]
        with pytest.raises(IndexError):
            queue.insert(99, make_job())

    def test_pending_latency_clamped_and_exact_per_job(self):
        queue = RequestQueue("q")
        latencies = [0.1, 0.2, 0.3]
        for index, latency in enumerate(latencies):
            queue.append(make_job(index, "a", latency=latency))
        queue.append(make_job(3, "b", latency=0.4))
        queue.pop_head_run(10)
        assert queue.pending_latency_ms == pytest.approx(0.4)
        queue.pop_head_run(10)
        # whatever float drift accumulated, the empty queue never goes negative
        assert queue.pending_latency_ms >= 0.0

    def test_clear_resets_run_state(self):
        queue = RequestQueue("q")
        queue.append(make_job(0, "a", latency=5.0))
        queue.clear()
        assert queue.is_empty
        assert queue.run_count == 0
        assert queue.pending_latency_ms == 0.0
        queue.insert_grouped(make_job(1, "a"))
        assert expert_order(queue) == ["a"]


# ----------------------------------------------------------------------
# Residency: the pools own it
# ----------------------------------------------------------------------
SHARED_AND_PRIVATE = pytest.mark.parametrize("shared", [True, False], ids=["shared", "private"])


class _CountingPolicy(EvictionPolicy):
    """Counts the pool notifications it hears, per (hook, pool name)."""

    def __init__(self) -> None:
        self.notified = Counter()

    def on_pool_load(self, pool, expert_id) -> None:
        self.notified["load", pool.name] += 1

    def on_pool_evict(self, pool, expert_id) -> None:
        self.notified["evict", pool.name] += 1

    def victim_order(self, context):
        return list(context.evictable())


class _PoolChanges:
    """Session observer counting loads and evictions, per (kind, pool name)."""

    def __init__(self, simulation) -> None:
        self.changes = Counter()
        self._pool_names = {executor.name: executor.pool.name for executor in simulation.executors}

    def on_expert_load(self, event) -> None:
        self.changes["load", self._pool_names[event.executor_name]] += 1

    def on_expert_evict(self, event) -> None:
        self.changes["evict", event.pool_name] += 1


def _three_executor_simulation(device, model, policy, shared):
    """Two GPU executors and one CPU executor, each with room for three experts."""
    pool_bytes = 3 * model.largest_expert_bytes
    configs = [
        ExecutorConfig("gpu-0", ProcessorKind.GPU, pool_bytes, 1 * GB),
        ExecutorConfig("cpu-0", ProcessorKind.CPU, pool_bytes, 1 * GB),
        ExecutorConfig("gpu-1", ProcessorKind.GPU, pool_bytes, 1 * GB),
    ]
    return ServingSimulation(
        device,
        model,
        configs,
        RoundRobinScheduling(),
        policy,
        options=SimulationOptions(share_pool_per_processor=shared),
    )


def _distinct_pools(simulation):
    return list({id(executor.pool): executor.pool for executor in simulation.executors}.values())


class TestPoolResidency:
    @SHARED_AND_PRIVATE
    def test_lookup_matches_executor_scan_under_randomised_churn(
        self, numa_device, small_model, shared
    ):
        """The engine's source tier (no host cache here) against the
        reference all-executor scan, after every random load, eviction
        and clear."""
        rng = random.Random(7)
        simulation = _three_executor_simulation(numa_device, small_model, LRUPolicy(), shared)
        pools = _distinct_pools(simulation)
        experts = sorted(small_model.experts)[:12]
        for _ in range(600):
            action = rng.randrange(3)
            pool = rng.choice(pools)
            expert = rng.choice(experts)
            size = small_model.expert(expert).weight_bytes
            if action == 0 and not pool.contains(expert) and pool.can_fit(size):
                pool.load(expert, size)
            elif action == 1 and pool.contains(expert):
                pool.evict(expert)
            elif action == 2 and rng.random() < 0.05:
                pool.clear()
            probe = rng.choice(experts)
            for executor in simulation.executors:
                assert simulation._locate_source_tier(executor, probe) is (
                    _reference_locate_source_tier(simulation, executor, probe)
                )

    def test_preference_order_is_first_executor_order(self, numa_device, small_model):
        simulation = _three_executor_simulation(numa_device, small_model, LRUPolicy(), False)
        gpu_0, cpu_0, gpu_1 = (simulation.executor(name).pool for name in ("gpu-0", "cpu-0", "gpu-1"))
        expert = sorted(small_model.experts)[0]
        size = small_model.expert(expert).weight_bytes
        gpu_1.load(expert, size)
        cpu_0.load(expert, size)
        assert simulation.other_pool_tier(gpu_0, expert) is MemoryTier.CPU
        assert simulation.other_pool_tier(cpu_0, expert) is MemoryTier.GPU
        cpu_0.evict(expert)
        assert simulation.other_pool_tier(gpu_0, expert) is MemoryTier.GPU
        assert simulation.other_pool_tier(gpu_1, expert) is None

    @SHARED_AND_PRIVATE
    def test_lookup_matches_executor_scan_after_run(
        self, numa_device, small_model, pressure_stream, pressure_usage, numa_matrix, shared
    ):
        system = build_system(
            "coserve",
            numa_device,
            small_model,
            pressure_usage,
            performance_matrix=numa_matrix,
            options=SimulationOptions(share_pool_per_processor=shared),
        )
        simulation = system.build_simulation()
        simulation.run(pressure_stream)
        # Without the host cache both sides answer from the pools alone.
        simulation.host_cache = None
        for expert_id in small_model.experts:
            for executor in simulation.executors:
                assert simulation._locate_source_tier(executor, expert_id) is (
                    _reference_locate_source_tier(simulation, executor, expert_id)
                )

    @SHARED_AND_PRIVATE
    def test_policy_hears_each_pool_change_once(
        self, numa_device, small_model, pressure_stream, shared
    ):
        """One notification per pool load (preloads included) and per
        eviction, whether executors share pools or not."""
        policy = _CountingPolicy()
        simulation = _three_executor_simulation(numa_device, small_model, policy, shared)
        experts = sorted(small_model.experts)
        simulation.preload({"gpu-0": experts[:2], "cpu-0": experts[2:4], "gpu-1": experts[4:6]})
        expected = Counter(
            {("load", pool.name): len(pool) for pool in _distinct_pools(simulation)}
        )
        changes = _PoolChanges(simulation)

        simulation.run(pressure_stream, observers=[changes])

        expected.update(changes.changes)
        assert sum(count for (hook, _), count in expected.items() if hook == "evict") > 0
        assert policy.notified == expected


# ----------------------------------------------------------------------
# Old-vs-new engine equivalence
# ----------------------------------------------------------------------
def _random_streams(board, model):
    streams = []
    for seed, interval in ((11, 1.0), (23, 4.0)):
        streams.append(
            generate_request_stream(
                board,
                model,
                num_requests=220,
                arrival_interval_ms=interval,
                seed=seed,
                name=f"equiv-{seed}",
                order="shuffled",
            )
        )
    return streams


class TestEngineEquivalence:
    @pytest.mark.parametrize("system_name", sorted(SYSTEM_NAMES))
    def test_results_bit_identical_on_randomized_streams(
        self, system_name, numa_device, small_board, small_model, pressure_usage, numa_matrix
    ):
        for stream in _random_streams(small_board, small_model):
            fast_system = build_system(
                system_name, numa_device, small_model, pressure_usage, performance_matrix=numa_matrix
            )
            slow_system = build_system(
                system_name, numa_device, small_model, pressure_usage, performance_matrix=numa_matrix
            )
            fast_result = fast_system.build_simulation().run(stream)
            slow_result = referencify(slow_system.build_simulation()).run(stream)
            assert fast_result == slow_result

    @pytest.mark.parametrize("system_name", ["coserve", "samba-coe", "samba-coe-parallel"])
    def test_results_bit_identical_on_uma(
        self, system_name, uma_device, small_model, pressure_stream, pressure_usage, uma_matrix
    ):
        fast_system = build_system(
            system_name, uma_device, small_model, pressure_usage, performance_matrix=uma_matrix
        )
        slow_system = build_system(
            system_name, uma_device, small_model, pressure_usage, performance_matrix=uma_matrix
        )
        fast_result = fast_system.build_simulation().run(pressure_stream)
        slow_result = referencify(slow_system.build_simulation()).run(pressure_stream)
        assert fast_result == slow_result

    @pytest.mark.parametrize("system_name", sorted(SYSTEM_NAMES))
    def test_session_path_matches_preredesign_loop(
        self, system_name, numa_device, small_board, small_model, pressure_usage, numa_matrix
    ):
        """The session/observer redesign changed no simulated result.

        ``preredesign_run`` is the preserved monolithic loop with metric
        collection inlined (the engine as it stood before observers);
        the session path behind ``run()`` must match it bit for bit,
        including the metrics collector it leaves behind.
        """
        for stream in _random_streams(small_board, small_model):
            session_system = build_system(
                system_name, numa_device, small_model, pressure_usage, performance_matrix=numa_matrix
            )
            preredesign_system = build_system(
                system_name, numa_device, small_model, pressure_usage, performance_matrix=numa_matrix
            )
            session_simulation = session_system.build_simulation()
            preredesign_simulation = preredesign_system.build_simulation()
            session_result = session_simulation.run(stream)
            preredesign_result = preredesign_run(preredesign_simulation, stream)
            assert session_result == preredesign_result
            assert session_simulation.metrics == preredesign_simulation.metrics


@settings(max_examples=60, deadline=None)
@given(
    device_name=st.sampled_from(["numa", "uma"]),
    gpu_executors=st.integers(1, 5),
    cpu_executors=st.integers(0, 2),
    gpu_expert_count=st.integers(2, 6),
    expert_management=st.booleans(),
    arranging=st.booleans(),
    assigning=st.booleans(),
    num_requests=st.integers(100, 300),
    seed=st.integers(0, 2**16),
    interval=st.sampled_from([0.25, 1.0, 4.0]),
)
def test_coserve_matches_reference_under_residency_churn(
    numa_device,
    uma_device,
    numa_matrix,
    uma_matrix,
    small_board,
    small_model,
    pressure_usage,
    device_name,
    gpu_executors,
    cpu_executors,
    gpu_expert_count,
    expert_management,
    arranging,
    assigning,
    num_requests,
    seed,
    interval,
):
    """CoServe deployments whose pools and host cache churn: a few GPU
    experts, shuffled streams, any executor mix and any combination of
    the ablation toggles (None / EM / EM+RA / full among them).  The
    reference engine prices every decision from scratch, so a price
    kept past a residency change shows as a different result."""
    device, matrix = {"numa": (numa_device, numa_matrix), "uma": (uma_device, uma_matrix)}[device_name]
    stream = generate_request_stream(
        small_board,
        small_model,
        num_requests=num_requests,
        arrival_interval_ms=interval,
        seed=seed,
        order="shuffled",
    )

    def build_simulation():
        return CoServeSystem(
            device,
            small_model,
            pressure_usage,
            enable_expert_management=expert_management,
            enable_arranging=arranging,
            enable_assigning=assigning,
            gpu_executors=gpu_executors,
            cpu_executors=cpu_executors,
            gpu_expert_count=gpu_expert_count,
            performance_matrix=matrix,
        ).build_simulation()

    assert build_simulation().run(stream) == referencify(build_simulation()).run(stream)
