"""Tests for the simulator building blocks: pools, caches, queues, resources."""

import pytest

from repro.hardware.processor import ProcessorKind
from repro.simulation.executor import Executor, ExecutorConfig
from repro.simulation.host_cache import HostCache
from repro.simulation.model_pool import ModelPool
from repro.simulation.queueing import RequestQueue
from repro.simulation.request import SimRequest, StageJob, StageRecord
from repro.simulation.resources import SerialResource
from repro.workload.generator import RequestSpec


def make_job(request_id=0, expert="e0", stage=0, enqueue=0.0, pipeline=None):
    pipeline = pipeline or (expert,)
    spec = RequestSpec(request_id, max(0.0, enqueue), "cat", tuple(pipeline))
    request = SimRequest(spec)
    return StageJob(request=request, stage_index=stage, expert_id=expert, enqueue_ms=enqueue)


class TestModelPool:
    def test_load_and_evict(self):
        pool = ModelPool("p", 1000)
        pool.load("a", 400)
        pool.load("b", 500)
        assert pool.used_bytes == 900
        assert pool.contains("a")
        assert pool.evict("a") == 400
        assert not pool.contains("a")
        assert pool.free_bytes == 500

    def test_overflow_raises(self):
        pool = ModelPool("p", 100)
        with pytest.raises(MemoryError):
            pool.load("a", 200)

    def test_duplicate_load_rejected(self):
        pool = ModelPool("p", 100)
        pool.load("a", 50)
        with pytest.raises(ValueError):
            pool.load("a", 10)

    def test_evicting_missing_expert_raises(self):
        with pytest.raises(KeyError):
            ModelPool("p", 100).evict("ghost")

    def test_resident_ids_sorted(self):
        pool = ModelPool("p", 100)
        pool.load("b", 10)
        pool.load("a", 10)
        assert pool.resident_expert_ids() == ("a", "b")

    def test_clear(self):
        pool = ModelPool("p", 100)
        pool.load("a", 10)
        pool.clear()
        assert pool.resident_count == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ModelPool("p", -1)


class TestHostCache:
    def test_put_and_lookup(self):
        cache = HostCache(1000)
        assert cache.put("a", 400)
        assert cache.lookup("a")
        assert not cache.lookup("b")

    def test_lru_eviction_order(self):
        cache = HostCache(1000)
        cache.put("a", 400)
        cache.put("b", 400)
        cache.lookup("a")          # refresh "a"
        cache.put("c", 400)        # evicts "b" (LRU)
        assert cache.contains("a")
        assert not cache.contains("b")
        assert cache.contains("c")

    def test_oversized_item_not_cached(self):
        cache = HostCache(100)
        assert not cache.put("big", 200)
        assert cache.resident_count == 0

    def test_put_existing_refreshes_without_duplication(self):
        cache = HostCache(1000)
        assert cache.put("a", 400)
        cache.put("b", 400)
        assert not cache.put("a", 400)  # already held: no new copy
        assert cache.used_bytes == 800
        cache.put("c", 400)  # evicts "b": putting "a" again refreshed it
        assert cache.contains("a")
        assert not cache.contains("b")

    def test_remove(self):
        cache = HostCache(1000)
        cache.put("a", 100)
        assert cache.remove("a") == 100
        assert cache.remove("a") is None

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            HostCache(-1)

    def test_clear_notifies_each_removal_with_the_cache_current(self):
        seen = []

        class Listener:
            def on_host_cache_put(self, cache, expert_id):
                pass

            def on_host_cache_remove(self, cache, expert_id):
                seen.append((expert_id, cache.used_bytes, cache.resident_count))

        cache = HostCache(100)
        cache.add_listener(Listener())
        for expert_id, size in (("a", 30), ("b", 20), ("c", 50)):
            cache.put(expert_id, size)
        cache.clear()
        assert seen == [("a", 70, 2), ("b", 50, 1), ("c", 0, 0)]


class TestSerialResource:
    def test_acquisitions_serialise(self):
        resource = SerialResource("ssd")
        start1, end1 = resource.acquire(0.0, 100.0)
        start2, end2 = resource.acquire(10.0, 50.0)
        assert (start1, end1) == (0.0, 100.0)
        assert start2 == 100.0 and end2 == 150.0

    def test_idle_gap_not_accumulated(self):
        resource = SerialResource("ssd")
        resource.acquire(0.0, 10.0)
        start, end = resource.acquire(100.0, 10.0)
        assert start == 100.0 and end == 110.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            SerialResource("x").acquire(0.0, -1.0)


class TestRequestQueue:
    def test_append_and_counts(self):
        queue = RequestQueue("q")
        queue.append(make_job(0, "a"))
        queue.append(make_job(1, "b"))
        queue.append(make_job(2, "a"))
        assert len(queue) == 3
        assert queue.contains_expert("a")
        assert not queue.contains_expert("c")
        assert queue.head_expert_id() == "a"

    def test_index_after_last(self):
        queue = RequestQueue("q")
        queue.append(make_job(0, "a"))
        queue.append(make_job(1, "b"))
        queue.append(make_job(2, "a"))
        assert queue.index_after_last("a") == 3
        assert queue.index_after_last("b") == 2
        assert queue.index_after_last("missing") is None

    def test_insert_groups_jobs(self):
        queue = RequestQueue("q")
        queue.append(make_job(0, "a"))
        queue.append(make_job(1, "b"))
        new_job = make_job(2, "a")
        index = queue.index_after_last("a")
        queue.insert(index, new_job)
        assert [job.expert_id for job in queue.jobs] == ["a", "a", "b"]

    def test_pop_head_run_stops_at_different_expert(self):
        queue = RequestQueue("q")
        for request_id, expert in enumerate(["a", "a", "a", "b"]):
            queue.append(make_job(request_id, expert))
        run = queue.pop_head_run(max_count=10)
        assert [job.expert_id for job in run] == ["a", "a", "a"]
        assert queue.head_expert_id() == "b"

    def test_pop_head_run_respects_max_count(self):
        queue = RequestQueue("q")
        for request_id in range(5):
            queue.append(make_job(request_id, "a"))
        run = queue.pop_head_run(max_count=2)
        assert len(run) == 2
        assert len(queue) == 3

    def test_pop_from_empty_queue(self):
        assert RequestQueue("q").pop_head_run(4) == []

    def test_pop_invalid_max_count(self):
        with pytest.raises(ValueError):
            RequestQueue("q").pop_head_run(0)

    def test_pending_latency_bookkeeping(self):
        queue = RequestQueue("q")
        job_a = make_job(0, "a")
        job_a.predicted_latency_ms = 100.0
        job_b = make_job(1, "b")
        job_b.predicted_latency_ms = 50.0
        queue.append(job_a)
        queue.append(job_b)
        assert queue.pending_latency_ms == pytest.approx(150.0)
        queue.pop_head_run(1)
        assert queue.pending_latency_ms == pytest.approx(50.0)

    def test_insert_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            RequestQueue("q").insert(5, make_job())

    def test_clear(self):
        queue = RequestQueue("q")
        queue.append(make_job(0, "a"))
        queue.clear()
        assert queue.is_empty
        assert queue.pending_latency_ms == 0.0


class TestSimRequestLifecycle:
    def test_stage_progression(self):
        spec = RequestSpec(3, 12.0, "cat", ("cls", "det"))
        request = SimRequest(spec)
        assert request.current_expert_id() == "cls"
        assert request.has_remaining_stages()
        request.record_stage(StageRecord(0, "cls", "gpu-0", 12.0, 20.0, 30.0, batch_size=2))
        assert request.current_expert_id() == "det"
        assert not request.is_completed
        request.record_stage(StageRecord(1, "det", "gpu-1", 30.0, 40.0, 55.0, batch_size=1))
        assert request.is_completed
        assert request.completed_ms == 55.0
        assert request.end_to_end_latency_ms == pytest.approx(43.0)
        assert request.total_service_ms == pytest.approx(10.0 + 15.0)

    def test_out_of_order_stage_rejected(self):
        request = SimRequest(RequestSpec(0, 0.0, "cat", ("cls", "det")))
        with pytest.raises(ValueError):
            request.record_stage(StageRecord(1, "det", "gpu-0", 0.0, 0.0, 1.0, batch_size=1))

    def test_no_remaining_stage_raises(self):
        request = SimRequest(RequestSpec(0, 0.0, "cat", ("cls",)))
        request.record_stage(StageRecord(0, "cls", "gpu-0", 0.0, 0.0, 1.0, batch_size=1))
        with pytest.raises(RuntimeError):
            request.current_expert_id()

    def test_stage_record_derived_metrics(self):
        record = StageRecord(0, "cls", "gpu-0", enqueue_ms=10.0, start_ms=25.0, end_ms=40.0, batch_size=4)
        assert record.service_ms == pytest.approx(15.0)


class TestExecutor:
    def test_private_pool_from_config(self):
        config = ExecutorConfig("gpu-0", ProcessorKind.GPU, 1000, 500)
        executor = Executor(config)
        assert executor.pool.capacity_bytes == 1000
        assert executor.activation_budget_bytes == 500
        assert executor.kind is ProcessorKind.GPU
        assert executor.idle

    def test_shared_pool_injection(self):
        shared = ModelPool("pool-gpu", 5000)
        a = Executor(ExecutorConfig("gpu-0", ProcessorKind.GPU, 2500, 100), pool=shared)
        b = Executor(ExecutorConfig("gpu-1", ProcessorKind.GPU, 2500, 100), pool=shared)
        assert a.pool is b.pool

    def test_estimated_finish_time(self):
        executor = Executor(ExecutorConfig("gpu-0", ProcessorKind.GPU, 1000, 100))
        executor.busy_until_ms = 50.0
        job = make_job(0, "a")
        job.predicted_latency_ms = 30.0
        executor.queue.append(job)
        assert executor.estimated_finish_ms(now_ms=0.0) == pytest.approx(80.0)
        assert executor.estimated_finish_ms(now_ms=100.0) == pytest.approx(130.0)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ExecutorConfig("", ProcessorKind.GPU, 100, 100)
        with pytest.raises(ValueError):
            ExecutorConfig("gpu-0", ProcessorKind.GPU, -1, 100)
        with pytest.raises(ValueError):
            ExecutorConfig("gpu-0", ProcessorKind.GPU, 100, -1)
