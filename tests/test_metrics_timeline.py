"""Tests for per-executor timelines recorded by the timeline observer."""

import pytest

from repro.metrics.timeline import (
    ExecutorTimeline,
    TimelineInterval,
    TimelineObserver,
    utilisation_report,
)
from repro.policies.lru import LRUPolicy
from repro.scheduling.fcfs import FCFSScheduling
from repro.simulation import BatchStart, ExpertLoad
from repro.simulation.engine import ServingSimulation
from repro.simulation.executor import ExecutorConfig
from repro.hardware.processor import ProcessorKind
from repro.hardware.units import GB


class TestTimelineInterval:
    def test_duration(self):
        interval = TimelineInterval(10.0, 25.0, "load", "e0")
        assert interval.duration_ms == 15.0

    def test_invalid_intervals_rejected(self):
        with pytest.raises(ValueError):
            TimelineInterval(10.0, 5.0, "load", "e0")
        with pytest.raises(ValueError):
            TimelineInterval(0.0, 5.0, "idle", "e0")


class TestExecutorTimeline:
    @pytest.fixture
    def timeline(self):
        return ExecutorTimeline(
            executor_name="gpu-0",
            intervals=(
                TimelineInterval(0.0, 900.0, "load", "e0", "from ssd"),
                TimelineInterval(900.0, 920.0, "execute", "e0", "batch=4"),
                TimelineInterval(920.0, 965.0, "load", "e1", "from cpu"),
                TimelineInterval(965.0, 1000.0, "execute", "e1", "batch=8"),
            ),
        )

    def test_time_accounting(self, timeline):
        assert timeline.load_time_ms == pytest.approx(945.0)
        assert timeline.execution_time_ms == pytest.approx(55.0)
        assert timeline.busy_time_ms == pytest.approx(1000.0)

    def test_busy_fraction_and_switching_share(self, timeline):
        assert timeline.busy_fraction(2000.0) == pytest.approx(0.5)
        assert timeline.busy_fraction(0.0) == 0.0
        assert timeline.switching_share() == pytest.approx(0.945)


class TestTimelineObserver:
    def test_intervals_sorted_by_start_time(self):
        observer = TimelineObserver()
        observer.on_batch_start(
            BatchStart(
                time_ms=50.0,
                executor_name="gpu-0",
                expert_id="e1",
                batch_size=1,
                latency_ms=10.0,
                end_ms=60.0,
                switch_wait_ms=0.0,
            )
        )
        observer.on_expert_load(
            ExpertLoad(
                time_ms=0.0,
                executor_name="gpu-0",
                expert_id="e1",
                source_tier="ssd",
                latency_ms=40.0,
                evicted=False,
            )
        )
        timelines = observer.timelines()
        starts = [interval.start_ms for interval in timelines["gpu-0"].intervals]
        assert starts == sorted(starts)
        assert [interval.kind for interval in timelines["gpu-0"].intervals] == ["load", "execute"]

    def test_from_real_simulation_run(self, numa_device, small_model, small_stream):
        simulation = ServingSimulation(
            device=numa_device,
            model=small_model,
            executor_configs=[ExecutorConfig("gpu-0", ProcessorKind.GPU, 4 * GB, 1 * GB)],
            scheduling_policy=FCFSScheduling(batch_size=4),
            eviction_policy=LRUPolicy(),
        )
        observer = TimelineObserver()
        result = simulation.run(small_stream, observers=[observer])
        timelines = observer.timelines()
        assert "gpu-0" in timelines
        timeline = timelines["gpu-0"]
        # Execution time recorded in the timeline matches the aggregate metric.
        assert timeline.execution_time_ms == pytest.approx(result.total_execution_ms, rel=1e-6)
        report = utilisation_report(timelines, result.makespan_ms)
        assert report[0]["executor"] == "gpu-0"
        assert 0 < report[0]["busy_%"] <= 100.0

    def test_initial_loads_excluded(self, numa_device, small_model, small_stream, small_usage):
        """Initialisation preloads happen before any session exists, so a
        run whose working set is fully preloaded records no load interval."""
        simulation = ServingSimulation(
            device=numa_device,
            model=small_model,
            executor_configs=[ExecutorConfig("gpu-0", ProcessorKind.GPU, 10 * GB, 1 * GB)],
            scheduling_policy=FCFSScheduling(batch_size=4),
            eviction_policy=LRUPolicy(),
        )
        working_set = [e for e, p in small_usage.probabilities.items() if p > 0]
        simulation.preload({"gpu-0": working_set})
        assert simulation.executor("gpu-0").pool.resident_count == len(working_set)
        observer = TimelineObserver()
        result = simulation.run(small_stream, observers=[observer])
        kinds = [interval.kind for interval in observer.timelines()["gpu-0"].intervals]
        assert result.expert_loads == 0
        assert "load" not in kinds
        (summary,) = [summary for summary in result.executors if summary.name == "gpu-0"]
        assert kinds.count("execute") == summary.batches_executed > 0
