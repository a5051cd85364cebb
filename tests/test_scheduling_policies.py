"""Tests for the baseline scheduling policies (FCFS, round-robin)."""

import pytest

from repro.hardware.processor import ProcessorKind
from repro.hardware.units import GB
from repro.scheduling.fcfs import FCFSScheduling
from repro.scheduling.round_robin import RoundRobinScheduling
from repro.simulation.executor import Executor, ExecutorConfig
from repro.simulation.request import SimRequest, StageJob
from repro.workload.generator import RequestSpec


def make_executor(name, kind=ProcessorKind.GPU):
    return Executor(ExecutorConfig(name, kind, 1 * GB, 1 * GB))


def make_job(request_id=0):
    spec = RequestSpec(request_id, 0.0, "cat", ("e0",))
    return StageJob(SimRequest(spec), 0, "e0", 0.0)


class TestFCFS:
    def test_always_selects_first_executor(self):
        policy = FCFSScheduling()
        executors = [make_executor("gpu-0"), make_executor("gpu-1")]
        for request_id in range(5):
            assert policy.select_executor(make_job(request_id), executors, 0.0).name == "gpu-0"

    def test_appends_at_tail(self):
        policy = FCFSScheduling()
        executor = make_executor("gpu-0")
        executor.queue.append(make_job(0))
        assert policy.insertion_index(executor, make_job(1), 0.0) == 1

    def test_default_batch_size_is_one(self):
        assert FCFSScheduling().max_batch_size(make_executor("gpu-0"), "e0") == 1
        assert FCFSScheduling(batch_size=4).max_batch_size(make_executor("gpu-0"), "e0") == 4

    def test_no_scheduling_latency_by_default(self):
        assert FCFSScheduling().scheduling_latency_ms(make_job(), 0.0) == 0.0

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ValueError):
            FCFSScheduling(batch_size=0)


class TestRoundRobin:
    def test_cycles_through_executors(self):
        policy = RoundRobinScheduling()
        executors = [make_executor("gpu-0"), make_executor("gpu-1"), make_executor("cpu-0", ProcessorKind.CPU)]
        names = [policy.select_executor(make_job(i), executors, 0.0).name for i in range(6)]
        assert names == ["gpu-0", "gpu-1", "cpu-0", "gpu-0", "gpu-1", "cpu-0"]

    def test_no_batching(self):
        assert RoundRobinScheduling().max_batch_size(make_executor("gpu-0"), "e0") == 1
