"""First-come-first-served scheduling onto a single executor.

This is Samba-CoE's request handling (§2.2, §3.1): requests are
processed strictly in arrival order, one at a time, with no batching
and no reordering.
"""

from __future__ import annotations

from typing import Sequence

from repro.simulation.executor import Executor
from repro.simulation.interfaces import SchedulingPolicy
from repro.simulation.request import StageJob


class FCFSScheduling(SchedulingPolicy):
    """Send every request to the (single) primary executor, in order."""

    def __init__(self, batch_size: int = 1) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self._batch_size = batch_size

    def select_executor(
        self, job: StageJob, executors: Sequence[Executor], now_ms: float
    ) -> Executor:
        return executors[0]

    def max_batch_size(self, executor: Executor, expert_id: str) -> int:
        return self._batch_size
