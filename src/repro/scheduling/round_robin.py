"""Round-robin scheduling across executors.

Used by the Samba-CoE Parallel baseline (§5.1): incoming requests are
distributed among the inference executors in a round-robin manner, with
no expert-aware reordering and no batching.
"""

from __future__ import annotations

from typing import Sequence

from repro.simulation.executor import Executor
from repro.simulation.interfaces import SchedulingPolicy
from repro.simulation.request import StageJob


class RoundRobinScheduling(SchedulingPolicy):
    """Distribute requests across executors in arrival order, one each."""

    def __init__(self) -> None:
        self._cursor = 0

    def select_executor(
        self, job: StageJob, executors: Sequence[Executor], now_ms: float
    ) -> Executor:
        executor = executors[self._cursor % len(executors)]
        self._cursor += 1
        return executor
