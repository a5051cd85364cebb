"""Policy interfaces the simulation engine is parameterised by.

The engine knows how to advance virtual time; *what* to run where is
decided by a :class:`SchedulingPolicy` (request assigning, arranging
and batch splitting) together with an
:class:`~repro.policies.base.EvictionPolicy` (expert replacement).
Policies steer the engine's decisions; passive instrumentation attaches
through the :class:`~repro.simulation.session.SimObserver` hook surface
(re-exported here), which completes the engine's plugin interface.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Sequence

from repro.simulation.executor import Executor
from repro.simulation.request import StageJob
from repro.simulation.session import SimObserver  # noqa: F401  (re-export)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.engine import ServingSimulation


class SchedulingPolicy(abc.ABC):
    """Decides executor assignment, queue position and batch size.

    A policy serves one run: every serving system builds a fresh policy
    per simulation.
    """

    def attach(self, simulation: "ServingSimulation") -> None:
        """Called once before a run with the simulation being driven.

        Policies that need global state (executor list, CoE model,
        performance matrix, host cache) grab it here.
        """

    @abc.abstractmethod
    def select_executor(
        self, job: StageJob, executors: Sequence[Executor], now_ms: float
    ) -> Executor:
        """Choose the executor whose queue the job joins (request assigning)."""

    def insertion_index(self, executor: Executor, job: StageJob, now_ms: float) -> int:
        """Queue position for the job (request arranging); default: tail."""
        return len(executor.queue)

    def enqueue(self, executor: Executor, job: StageJob, now_ms: float) -> None:
        """Place the job in the executor's queue (request arranging).

        The engine calls this instead of pairing :meth:`insertion_index`
        with an index-based insert, so policies can use the queue's O(1)
        operations (``append`` / ``insert_grouped``) directly.  The
        default honours a custom :meth:`insertion_index` override while
        turning the common tail case into a constant-time append.
        """
        index = self.insertion_index(executor, job, now_ms)
        if index >= len(executor.queue):
            executor.queue.append(job)
        else:
            executor.queue.insert(index, job)

    def max_batch_size(self, executor: Executor, expert_id: str) -> int:
        """Upper bound on the batch the executor may run for this expert
        (request splitting); default: no batching."""
        return 1

    def predicted_additional_latency_ms(
        self, executor: Executor, job: StageJob, now_ms: float
    ) -> float:
        """Predicted additional inference latency of adding the job to the
        executor's queue (§4.2); used for queue finish-time bookkeeping."""
        return 0.0

    def scheduling_latency_ms(self, job: StageJob, now_ms: float) -> float:
        """CPU time the scheduling decision itself costs (Figure 19)."""
        return 0.0
