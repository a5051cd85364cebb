"""Tests for dependency-aware request scheduling (§4.2)."""

import random

import pytest

from repro.core.profiler import OfflineProfiler
from repro.core.scheduler import BatchSplitter, CoServeScheduler, LatencyPredictor
from repro.hardware.processor import ProcessorKind
from repro.hardware.units import GB, MB
from repro.serving.coserve import CoServeSystem
from repro.simulation.executor import Executor, ExecutorConfig
from repro.simulation.request import SimRequest, StageJob
from repro.workload.generator import RequestSpec, generate_request_stream


@pytest.fixture(scope="module")
def matrix(numa_device, small_model):
    return OfflineProfiler(numa_device, small_model).build_performance_matrix()


def make_executor(name="gpu-0", kind=ProcessorKind.GPU, pool_gb=3.0, act_gb=2.0):
    return Executor(ExecutorConfig(name, kind, int(pool_gb * GB), int(act_gb * GB)))


#: Executor layouts: a private pool each, GPU executors sharing one pool
#: (the engine's default), and a shared GPU pool plus a CPU executor.
LAYOUTS = ("private", "shared", "mixed")


def make_executors(layout, gpu_count):
    if layout == "private":
        return [make_executor(f"gpu-{index}") for index in range(gpu_count)]
    first = make_executor("gpu-0")
    executors = [first] + [
        Executor(ExecutorConfig(f"gpu-{index}", ProcessorKind.GPU, 3 * GB, 2 * GB), pool=first.pool)
        for index in range(1, gpu_count)
    ]
    if layout == "mixed":
        executors.append(make_executor("cpu-0", ProcessorKind.CPU))
    return executors


def make_job(model, expert_id, request_id=0):
    spec = RequestSpec(request_id, 0.0, "cat", (expert_id,))
    return StageJob(request=SimRequest(spec), stage_index=0, expert_id=expert_id, enqueue_ms=0.0)


@pytest.fixture
def expert_ids(small_model):
    resnet = small_model.experts_of_architecture("resnet101")
    yolo = small_model.experts_of_architecture("yolov5m")
    return list(resnet), list(yolo)


class TestLatencyPredictor:
    def test_new_expert_group_costs_k_plus_b_plus_switch(self, matrix, small_model, expert_ids):
        resnet, _ = expert_ids
        predictor = LatencyPredictor(matrix, small_model)
        executor = make_executor()
        record = matrix.record("resnet101", ProcessorKind.GPU)
        predicted = predictor.additional_latency_ms(executor, make_job(small_model, resnet[0]), 0.0)
        expected = record.k_ms + record.b_ms + record.load_latency_from("ssd")
        assert predicted == pytest.approx(expected)

    def test_resident_expert_has_no_switching_cost(self, matrix, small_model, expert_ids):
        resnet, _ = expert_ids
        predictor = LatencyPredictor(matrix, small_model)
        executor = make_executor()
        executor.pool.load(resnet[0], small_model.expert(resnet[0]).weight_bytes)
        record = matrix.record("resnet101", ProcessorKind.GPU)
        predicted = predictor.additional_latency_ms(executor, make_job(small_model, resnet[0]), 0.0)
        assert predicted == pytest.approx(record.k_ms + record.b_ms)

    def test_joining_existing_group_costs_only_k(self, matrix, small_model, expert_ids):
        resnet, _ = expert_ids
        predictor = LatencyPredictor(matrix, small_model)
        executor = make_executor()
        executor.queue.append(make_job(small_model, resnet[0], request_id=1))
        record = matrix.record("resnet101", ProcessorKind.GPU)
        predicted = predictor.additional_latency_ms(executor, make_job(small_model, resnet[0], 2), 0.0)
        assert predicted == pytest.approx(record.k_ms)

    def test_cpu_predictions_use_cpu_record(self, matrix, small_model, expert_ids):
        resnet, _ = expert_ids
        predictor = LatencyPredictor(matrix, small_model)
        gpu_prediction = predictor.additional_latency_ms(make_executor(), make_job(small_model, resnet[0]), 0.0)
        cpu_prediction = predictor.additional_latency_ms(
            make_executor("cpu-0", ProcessorKind.CPU), make_job(small_model, resnet[0]), 0.0
        )
        assert cpu_prediction != gpu_prediction


class TestBatchSplitter:
    def test_limited_by_profiled_max_batch(self, matrix, small_model, expert_ids):
        resnet, _ = expert_ids
        splitter = BatchSplitter(matrix, small_model)
        executor = make_executor(act_gb=100.0)  # effectively unlimited memory
        record = matrix.record("resnet101", ProcessorKind.GPU)
        assert splitter.max_batch_size(executor, resnet[0]) == record.max_batch_size

    def test_limited_by_activation_memory(self, matrix, small_model, expert_ids):
        resnet, _ = expert_ids
        splitter = BatchSplitter(matrix, small_model)
        record = matrix.record("resnet101", ProcessorKind.GPU)
        executor = make_executor(act_gb=(3 * record.activation_bytes_per_sample) / GB)
        assert splitter.max_batch_size(executor, resnet[0]) == 3

    def test_batch_size_never_below_one(self, matrix, small_model, expert_ids):
        resnet, _ = expert_ids
        splitter = BatchSplitter(matrix, small_model)
        executor = make_executor(act_gb=0.0)
        assert splitter.max_batch_size(executor, resnet[0]) == 1


class TestCoServeScheduler:
    def test_assigns_to_executor_with_resident_expert(self, matrix, small_model, expert_ids):
        resnet, _ = expert_ids
        scheduler = CoServeScheduler(matrix, small_model)
        executor_a = make_executor("gpu-0")
        executor_b = make_executor("gpu-1")
        executor_b.pool.load(resnet[0], small_model.expert(resnet[0]).weight_bytes)
        job = make_job(small_model, resnet[0])
        selected = scheduler.select_executor(job, [executor_a, executor_b], 0.0)
        assert selected is executor_b

    def test_assignment_minimises_total_inference_time(self, matrix, small_model, expert_ids):
        """Figure 8: the request goes to the queue that keeps the maximum
        queue finish time smallest."""
        resnet, _ = expert_ids
        scheduler = CoServeScheduler(matrix, small_model)
        busy = make_executor("gpu-0")
        busy.busy_until_ms = 60_000.0
        idle = make_executor("gpu-1")
        job = make_job(small_model, resnet[0])
        assert scheduler.select_executor(job, [busy, idle], 0.0) is idle

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_assignment_follows_the_total_inference_time_definition(
        self, matrix, small_model, expert_ids, layout, seed
    ):
        """Figure 8 by brute force: minimise ``max(max_{j≠i} finish_j,
        finish_i + additional_i)``, then the additional latency, then the
        executor name — over random queues, residency and tied finishes."""
        resnet, _ = expert_ids
        rng = random.Random(seed)
        scheduler = CoServeScheduler(matrix, small_model)
        predictor = LatencyPredictor(matrix, small_model)
        weight = small_model.expert(resnet[0]).weight_bytes
        for trial in range(100):
            executors = make_executors(layout, rng.randint(2, 4))
            for executor in executors:
                executor.busy_until_ms = rng.choice([0.0, 40.0, rng.uniform(0.0, 400.0)])
                for index in range(rng.randint(0, 2)):
                    queued = make_job(small_model, rng.choice(resnet[:3]), request_id=index)
                    queued.predicted_latency_ms = rng.choice([10.0, 25.0])
                    executor.queue.append(queued)
                if rng.random() < 0.3 and not executor.pool.contains(resnet[0]):
                    executor.pool.load(resnet[0], weight)
            now = rng.choice([0.0, 20.0])
            job = make_job(small_model, resnet[0], request_id=99)
            finishes = [executor.estimated_finish_ms(now) for executor in executors]
            additionals = [predictor.additional_latency_ms(e, job, now) for e in executors]

            def key(i):
                others = max(f for j, f in enumerate(finishes) if j != i)
                total = max(others, finishes[i] + additionals[i])
                return (total, additionals[i], executors[i].name)

            expected = executors[min(range(len(executors)), key=key)]
            assert scheduler.select_executor(job, executors, now) is expected, trial

    @pytest.mark.parametrize("seed", range(4))
    def test_attached_assignment_matches_figure_8_brute_force(
        self, numa_device, numa_matrix, small_model, small_usage, seed
    ):
        """Request assigning on an attached simulation (three GPU executors
        sharing a pool, one CPU executor, the host cache) against Figure 8
        worked out from the performance records: random residency across
        the two pools and the host cache, random queues, tied finishes."""
        simulation = CoServeSystem(
            device=numa_device,
            model=small_model,
            usage_profile=small_usage,
            gpu_executors=3,
            cpu_executors=1,
            performance_matrix=numa_matrix,
        ).build_simulation()
        scheduler = simulation.scheduling_policy
        scheduler.attach(simulation)
        executors = simulation.executors
        pools = list({id(e.pool): e.pool for e in executors}.values())
        cache = simulation.host_cache
        assert len(pools) == 2 and cache is not None
        candidates = sorted(small_model.experts)[::24][:6]
        rng = random.Random(seed)
        reached = set()

        def brute_force_additional(executor, expert_id):
            record = numa_matrix.record(small_model.expert(expert_id).architecture_name, executor.kind)
            if any(queued.expert_id == expert_id for queued in executor.queue):
                reached.add("queued")
                return record.k_ms
            if expert_id in executor.pool.resident_expert_ids():
                reached.add("resident")
                return record.k_ms + record.b_ms
            source, tier = "ssd", "ssd"
            if expert_id in cache.resident_expert_ids():
                source, tier = "host cache", "cpu"
            else:
                for other in executors:  # the first other pool holding it
                    if other.pool is not executor.pool and expert_id in other.pool.resident_expert_ids():
                        tier = numa_device.memory_tier_for(other.kind).value
                        source = f"{tier} pool"
                        break
            reached.add(f"{executor.kind.value} from {source}")
            # A tier without a profiled loading latency falls back to the SSD's.
            switching = record.load_latency_ms.get(tier, record.load_latency_ms["ssd"])
            return record.k_ms + record.b_ms + switching

        for trial in range(150):
            for pool in pools:
                pool.clear()
            cache.clear()
            for expert_id in candidates:
                weight = small_model.expert(expert_id).weight_bytes
                for pool in pools:
                    if rng.random() < 0.3:
                        pool.load(expert_id, weight)
                if rng.random() < 0.3:
                    cache.put(expert_id, weight)
            now = rng.choice([0.0, 20.0])
            for executor in executors:
                executor.queue.clear()
                executor.busy_until_ms = rng.choice([0.0, 40.0, now, rng.uniform(0.0, 400.0)])
                for index in range(rng.randint(0, 2)):
                    queued = make_job(small_model, rng.choice(candidates), request_id=index)
                    queued.predicted_latency_ms = rng.choice([10.0, 25.0, 40.0])
                    executor.queue.append(queued)
            job = make_job(small_model, rng.choice(candidates), request_id=99)
            finishes = [
                max(now, e.busy_until_ms) + sum(q.predicted_latency_ms for q in e.queue)
                for e in executors
            ]
            additionals = [brute_force_additional(e, job.expert_id) for e in executors]

            def key(i):
                others = max(f for j, f in enumerate(finishes) if j != i)
                total = max(others, finishes[i] + additionals[i])
                return (total, additionals[i], executors[i].name)

            keys = sorted(key(i) for i in range(len(executors)))
            if keys[0][0] == keys[1][0]:
                reached.add("tied total")
            best = min(range(len(executors)), key=key)
            chosen = scheduler.select_executor(job, executors, now)
            assert chosen is executors[best], trial
            assert scheduler.predicted_additional_latency_ms(chosen, job, now) == additionals[best]
            for executor, additional in zip(executors, additionals):
                assert scheduler.predicted_additional_latency_ms(executor, job, now) == additional
        assert reached == {
            "queued",
            "resident",
            "tied total",
            "gpu from ssd",
            "gpu from host cache",
            "gpu from cpu pool",
            "cpu from ssd",
            "cpu from host cache",
            "cpu from gpu pool",
        }

    def test_unattached_decisions_follow_pool_residency(self, matrix, small_model, expert_ids):
        """One scheduler, one executor list, no simulation: loading and
        evicting the job's expert between decisions re-prices it."""
        resnet, _ = expert_ids
        scheduler = CoServeScheduler(matrix, small_model)
        executors = [make_executor("gpu-0"), make_executor("gpu-1")]
        record = matrix.record("resnet101", ProcessorKind.GPU)
        weight = small_model.expert(resnet[0]).weight_bytes
        from_ssd = record.k_ms + record.b_ms + record.load_latency_from("ssd")
        resident = record.k_ms + record.b_ms
        steps = [
            (None, "gpu-0", {"gpu-0": from_ssd, "gpu-1": from_ssd}),
            (("load", 1), "gpu-1", {"gpu-0": from_ssd, "gpu-1": resident}),
            (("load", 0), "gpu-0", {"gpu-0": resident, "gpu-1": resident}),
            (("evict", 0), "gpu-1", {"gpu-0": from_ssd, "gpu-1": resident}),
            (("evict", 1), "gpu-0", {"gpu-0": from_ssd, "gpu-1": from_ssd}),
        ]
        for request_id, (change, chosen, prices) in enumerate(steps):
            if change is not None:
                action, index = change
                if action == "load":
                    executors[index].pool.load(resnet[0], weight)
                else:
                    executors[index].pool.evict(resnet[0])
            job = make_job(small_model, resnet[0], request_id)
            selected = scheduler.select_executor(job, executors, 0.0)
            assert selected.name == chosen, change
            # The chosen executor's price first comes from the decision
            # itself; every later ask is priced from scratch.
            for executor in [selected] + executors:
                predicted = scheduler.predicted_additional_latency_ms(executor, job, 0.0)
                assert predicted == prices[executor.name], (change, executor.name)

    def test_prices_made_before_attach_are_dropped(
        self, numa_device, numa_matrix, small_model, small_usage
    ):
        """Preloads fill the pools and the host cache before ``attach``:
        a price worked out unattached (every load from the SSD) must not
        survive it."""
        simulation = CoServeSystem(
            device=numa_device,
            model=small_model,
            usage_profile=small_usage,
            gpu_executors=2,
            cpu_executors=0,
            gpu_expert_count=4,
            performance_matrix=numa_matrix,
        ).build_simulation()
        scheduler = simulation.scheduling_policy
        pool = simulation.executors[0].pool
        cached = [e for e in simulation.host_cache.resident_expert_ids() if not pool.contains(e)]
        assert cached
        executors = simulation.executors

        def decide(request_id):
            job = make_job(small_model, cached[0], request_id)
            chosen = scheduler.select_executor(job, executors, 0.0)
            return scheduler.predicted_additional_latency_ms(chosen, job, 0.0)

        unattached = decide(0)
        scheduler.attach(simulation)
        record = numa_matrix.record(small_model.expert(cached[0]).architecture_name, ProcessorKind.GPU)
        assert unattached == record.k_ms + record.b_ms + record.load_latency_from("ssd")
        assert decide(1) == record.k_ms + record.b_ms + record.load_latency_from("cpu")

    def test_equal_executor_sequences_share_one_view(
        self, numa_device, numa_matrix, small_board, small_model, small_usage
    ):
        """``simulation.executors`` is a new tuple on every call: deciding
        over it chooses exactly as over the session's list, without
        rebuilding the view or listening to a pool twice."""
        stream = generate_request_stream(
            small_board,
            small_model,
            num_requests=300,
            arrival_interval_ms=2.0,
            seed=9,
            order="shuffled",
        )

        def build():
            return CoServeSystem(
                device=numa_device,
                model=small_model,
                usage_profile=small_usage,
                gpu_executors=3,
                cpu_executors=1,
                gpu_expert_count=6,
                performance_matrix=numa_matrix,
            ).build_simulation()

        simulation = build()
        scheduler = simulation.scheduling_policy
        select = scheduler.select_executor
        views = []

        def select_over_fresh_tuples(job, executors, now_ms):
            chosen = select(job, simulation.executors, now_ms)
            views.append(scheduler._view)
            return chosen

        scheduler.select_executor = select_over_fresh_tuples
        assert simulation.run(stream) == build().run(stream)
        assert views and all(view is views[0] for view in views)
        for source in [e.pool for e in simulation.executors] + [simulation.host_cache]:
            assert source._listeners.count(scheduler._rows) == 1

    def test_round_robin_when_assigning_disabled(self, matrix, small_model, expert_ids):
        resnet, _ = expert_ids
        scheduler = CoServeScheduler(matrix, small_model, enable_assigning=False)
        executors = [make_executor("gpu-0"), make_executor("gpu-1")]
        selected = [
            scheduler.select_executor(make_job(small_model, resnet[i], i), executors, 0.0).name
            for i in range(4)
        ]
        assert selected == ["gpu-0", "gpu-1", "gpu-0", "gpu-1"]

    def test_arranging_groups_same_expert_jobs(self, matrix, small_model, expert_ids):
        """Figure 9: an incoming request is placed right after the last
        queued request that uses the same expert."""
        resnet, _ = expert_ids
        scheduler = CoServeScheduler(matrix, small_model)
        executor = make_executor()
        executor.queue.append(make_job(small_model, resnet[0], 0))
        executor.queue.append(make_job(small_model, resnet[1], 1))
        job = make_job(small_model, resnet[0], 2)
        assert scheduler.insertion_index(executor, job, 0.0) == 1

    def test_append_when_arranging_disabled(self, matrix, small_model, expert_ids):
        resnet, _ = expert_ids
        scheduler = CoServeScheduler(matrix, small_model, enable_arranging=False)
        executor = make_executor()
        executor.queue.append(make_job(small_model, resnet[0], 0))
        executor.queue.append(make_job(small_model, resnet[1], 1))
        job = make_job(small_model, resnet[0], 2)
        assert scheduler.insertion_index(executor, job, 0.0) == 2

    def test_append_when_expert_not_queued(self, matrix, small_model, expert_ids):
        resnet, _ = expert_ids
        scheduler = CoServeScheduler(matrix, small_model)
        executor = make_executor()
        executor.queue.append(make_job(small_model, resnet[0], 0))
        job = make_job(small_model, resnet[1], 1)
        assert scheduler.insertion_index(executor, job, 0.0) == 1

    def test_batching_disabled_gives_batch_one(self, matrix, small_model, expert_ids):
        resnet, _ = expert_ids
        scheduler = CoServeScheduler(matrix, small_model, enable_batching=False)
        assert scheduler.max_batch_size(make_executor(), resnet[0]) == 1

    def test_scheduling_latency_constant(self, matrix, small_model, expert_ids):
        resnet, _ = expert_ids
        scheduler = CoServeScheduler(matrix, small_model, scheduling_latency_ms=8.3)
        assert scheduler.scheduling_latency_ms(make_job(small_model, resnet[0]), 0.0) == 8.3

    def test_negative_scheduling_latency_rejected(self, matrix, small_model):
        with pytest.raises(ValueError):
            CoServeScheduler(matrix, small_model, scheduling_latency_ms=-1.0)
