"""Tests for metric collection and report formatting."""

import pytest

from repro.metrics.collector import MetricsCollector, MetricsObserver
from repro.metrics.report import format_mapping, format_table
from repro.simulation import BatchStart, ExpertLoad, JobDispatch
from repro.simulation.results import SimulationResult


class TestMetricsCollector:
    def test_scheduling_accumulation(self):
        metrics = MetricsCollector()
        metrics.record_scheduling(8.0)
        metrics.record_scheduling(4.0)
        assert metrics.scheduling_decisions == 2
        assert metrics.total_scheduling_ms == 12.0

    def test_negative_scheduling_latency_rejected(self):
        with pytest.raises(ValueError):
            MetricsCollector().record_scheduling(-1.0)

    def test_load_classification(self):
        metrics = MetricsCollector()
        metrics.record_load("ssd", 900.0, evicted=True)
        metrics.record_load("cpu", 45.0, evicted=False)
        assert metrics.expert_loads == 2
        assert metrics.expert_switches == 1
        assert metrics.loads_from_ssd == 1
        assert metrics.loads_from_cache == 1
        assert metrics.total_switching_ms == 945.0

    def test_execution_accumulation(self):
        metrics = MetricsCollector()
        metrics.record_execution(20.0)
        metrics.record_execution(12.0)
        assert metrics.total_execution_ms == 32.0


class TestMetricsObserver:
    def test_hooks_feed_the_collector(self):
        collector = MetricsCollector()
        observer = MetricsObserver(collector)
        observer.on_job_dispatch(
            JobDispatch(time_ms=0.0, job=None, executor_name="gpu-0", scheduling_latency_ms=3.0)
        )
        observer.on_expert_load(
            ExpertLoad(
                time_ms=0.0,
                executor_name="gpu-0",
                expert_id="e0",
                source_tier="ssd",
                latency_ms=900.0,
                evicted=True,
            )
        )
        observer.on_batch_start(
            BatchStart(
                time_ms=900.0,
                executor_name="gpu-0",
                expert_id="e0",
                batch_size=4,
                latency_ms=20.0,
                end_ms=920.0,
                switch_wait_ms=0.0,
            )
        )
        assert collector == MetricsCollector(
            total_execution_ms=20.0,
            total_switching_ms=900.0,
            total_scheduling_ms=3.0,
            scheduling_decisions=1,
            expert_loads=1,
            expert_switches=1,
            loads_from_ssd=1,
        )

    def test_negative_dispatch_latency_rejected(self):
        """The dispatch hook inlines ``record_scheduling`` and keeps its check."""
        observer = MetricsObserver()
        with pytest.raises(ValueError):
            observer.on_job_dispatch(
                JobDispatch(time_ms=0.0, job=None, executor_name="gpu-0", scheduling_latency_ms=-1.0)
            )
        assert observer.collector == MetricsCollector()


class TestResultAggregates:
    """Run aggregates derived on the result, not kept by the collector."""

    @staticmethod
    def _result(execution_ms, switching_ms, scheduling_ms=0.0, decisions=0):
        return SimulationResult(
            system_name="s",
            device_name="numa",
            workload_name="w",
            num_requests=1,
            makespan_ms=100.0,
            total_execution_ms=execution_ms,
            total_switching_ms=switching_ms,
            total_scheduling_ms=scheduling_ms,
            expert_loads=0,
            expert_switches=0,
            loads_from_ssd=0,
            loads_from_cache=0,
            executors=(),
            scheduling_decisions=decisions,
        )

    def test_switching_share(self):
        assert self._result(0.0, 0.0).switching_share == 0.0
        assert self._result(10.0, 90.0).switching_share == pytest.approx(0.9)

    def test_average_scheduling_latency(self):
        assert self._result(0.0, 0.0).average_scheduling_latency_ms == 0.0
        assert self._result(0.0, 0.0, 12.0, 2).average_scheduling_latency_ms == 6.0


class TestReportFormatting:
    def test_format_table_aligns_columns(self):
        rows = [
            {"system": "CoServe", "throughput": 26.3},
            {"system": "Samba-CoE", "throughput": 3.5},
        ]
        text = format_table(rows)
        lines = text.splitlines()
        assert "system" in lines[0] and "throughput" in lines[0]
        assert len(lines) == 4
        assert "CoServe" in lines[2]

    def test_format_table_with_explicit_columns(self):
        rows = [{"a": 1, "b": 2}]
        text = format_table(rows, columns=["b"])
        assert "a" not in text.splitlines()[0]

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_format_table_missing_cell(self):
        text = format_table([{"a": 1}, {"a": 2, "b": 3}], columns=["a", "b"])
        assert text  # must not raise

    def test_format_mapping(self):
        text = format_mapping({"Device": "numa", "GPU": "RTX 3080Ti"}, title="Table 1")
        assert text.startswith("Table 1")
        assert "RTX 3080Ti" in text
