"""Tests for the engine hot-path data structures (run-structured queues,
the global residency index, O(E) assigning) and for result equivalence
between the optimised engine and the pre-optimisation reference
implementation kept in :mod:`repro.simulation.reference`."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware.memory import MemoryTier
from repro.serving import SYSTEM_NAMES, CoServeSystem, build_system
from repro.simulation.model_pool import ModelPool
from repro.simulation.queueing import RequestQueue
from repro.simulation.reference import ReferenceRequestQueue, preredesign_run, referencify
from repro.simulation.request import SimRequest, StageJob
from repro.simulation.residency import ResidencyIndex
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
# Residency index
# ----------------------------------------------------------------------
class TestResidencyIndex:
    def _naive_best_tier(self, pools_with_meta, expert_id, exclude_pool):
        for pool, (_, tier) in sorted(pools_with_meta.items(), key=lambda item: item[1][0]):
            if pool is exclude_pool:
                continue
            if pool.contains(expert_id):
                return tier
        return None

    def test_consistent_under_randomised_churn(self):
        rng = random.Random(7)
        index = ResidencyIndex()
        pools = {
            ModelPool("gpu-pool", 1000): (0, MemoryTier.GPU),
            ModelPool("cpu-pool", 800): (3, MemoryTier.CPU),
        }
        for pool, (rank, tier) in pools.items():
            index.register_pool(pool, tier, rank)
        experts = [f"e{i}" for i in range(12)]

        for _ in range(600):
            action = rng.randrange(3)
            pool = rng.choice(list(pools))
            expert = rng.choice(experts)
            if action == 0 and not pool.contains(expert) and pool.can_fit(100):
                pool.load(expert, 100)
            elif action == 1 and pool.contains(expert):
                pool.evict(expert)
            elif action == 2 and rng.random() < 0.05:
                pool.clear()
            index.check_consistency()
            probe = rng.choice(experts)
            exclude = rng.choice(list(pools) + [None])
            assert index.best_source_tier(probe, exclude_pool=exclude) == self._naive_best_tier(
                pools, probe, exclude
            )

    def test_preference_order_matches_executor_ranks(self):
        index = ResidencyIndex()
        gpu_pool = ModelPool("gpu-pool", 1000)
        cpu_pool = ModelPool("cpu-pool", 1000)
        index.register_pool(gpu_pool, MemoryTier.GPU, 0)
        index.register_pool(cpu_pool, MemoryTier.CPU, 3)
        gpu_pool.load("e", 10)
        cpu_pool.load("e", 10)
        assert index.best_source_tier("e") is MemoryTier.GPU
        assert index.best_source_tier("e", exclude_pool=gpu_pool) is MemoryTier.CPU
        gpu_pool.evict("e")
        assert index.best_source_tier("e") is MemoryTier.CPU
        cpu_pool.evict("e")
        assert index.best_source_tier("e") is None

    def test_registration_seeds_existing_residents(self):
        pool = ModelPool("p", 100)
        pool.load("early", 10)
        index = ResidencyIndex()
        index.register_pool(pool, MemoryTier.GPU, 0)
        assert index.best_source_tier("early") is MemoryTier.GPU
        index.check_consistency()

    def test_engine_residency_consistent_after_run(
        self, numa_device, small_model, pressure_stream, pressure_usage, numa_matrix
    ):
        system = build_system(
            "coserve", numa_device, small_model, pressure_usage, performance_matrix=numa_matrix
        )
        simulation = system.build_simulation()
        simulation.run(pressure_stream)
        simulation.residency.check_consistency()
        # the index agrees with a ground-truth pool scan for every expert
        for expert_id in small_model.experts:
            for executor in simulation.executors:
                expected = None
                for other in simulation.executors:
                    if other.pool is executor.pool:
                        continue
                    if other.pool.contains(expert_id):
                        expected = simulation.device.memory_tier_for(other.kind)
                        break
                assert (
                    simulation.residency.best_source_tier(expert_id, exclude_pool=executor.pool)
                    == expected
                )


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
