"""Dependency-aware request scheduling (§4.2).

The scheduler performs four steps for every incoming stage job:

1. **Prediction of additional inference latency** — execution latency is
   predicted from the linear law ``K·n + B`` (a request joining an
   existing same-expert group only costs ``K``); expert switching
   latency is zero when the expert is resident or already demanded by a
   queued request, otherwise the profiled loading latency from the
   expert's current tier.
2. **Request assigning** — the job goes to the executor queue that
   minimises the *total* inference time (the maximum finish time over
   all queues, Figure 8); ties are broken by the smallest additional
   latency for the new job.
3. **Request arranging** — within the chosen queue, the job is placed
   right behind the last queued job that uses the same expert, so all
   same-expert requests are processed together and the expert is loaded
   at most once (Figure 9).
4. **Request splitting** — the batch splitter bounds the executable
   batch by the profiler's maximum batch size and by the batch the
   executor's activation memory can hold.

The assigning and arranging steps can be disabled individually, which
is exactly how the ablation variants CoServe None / EM / EM+RA are
built (§5.3).

Once per decision, request assigning makes one pass over the executors,
reading each queue's finish time and queued experts as attribute and
dict lookups; once per pool, it prices a new group (``K + B`` plus
switching); once per scheduler, it resolves each (expert, processor)
record and each (executor, expert) batch cap.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.coe.model import CoEModel
from repro.core.config import ExpertPerformanceRecord, PerformanceMatrix
from repro.hardware.memory import MemoryTier
from repro.hardware.processor import ProcessorKind
from repro.simulation.executor import Executor
from repro.simulation.interfaces import SchedulingPolicy
from repro.simulation.request import StageJob

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.engine import ServingSimulation

_SSD = MemoryTier.SSD.value
_CPU = MemoryTier.CPU.value


class LatencyPredictor:
    """Predicts the additional inference latency of scheduling decisions."""

    def __init__(self, matrix: PerformanceMatrix, model: CoEModel) -> None:
        self._matrix = matrix
        self._model = model
        self._records: Dict[Tuple[str, ProcessorKind], ExpertPerformanceRecord] = {}
        self._simulation: Optional["ServingSimulation"] = None

    def attach(self, simulation: "ServingSimulation") -> None:
        self._simulation = simulation

    def record(self, expert_id: str, kind: ProcessorKind) -> ExpertPerformanceRecord:
        """The expert's performance record on a processor kind, memoised."""
        key = (expert_id, kind)
        record = self._records.get(key)
        if record is None:
            architecture = self._model.expert(expert_id).architecture_name
            record = self._records[key] = self._matrix.record(architecture, kind)
        return record

    def _expert_location_tier(self, executor: Executor, expert_id: str) -> str:
        """Tier the expert would be loaded from if it is not resident.

        Resolved through the engine's global residency index (an O(1)
        lookup) rather than scanning every executor's pool.
        """
        simulation = self._simulation
        if simulation is None:
            return _SSD
        if simulation.host_cache is not None and simulation.host_cache.contains(expert_id):
            return _CPU
        tier = simulation.residency.best_source_tier(expert_id, exclude_pool=executor.pool)
        return tier.value if tier is not None else _SSD

    def new_group_ms(
        self, executor: Executor, record: ExpertPerformanceRecord, expert_id: str
    ) -> float:
        """Price of a job starting a new ``expert_id`` group on ``executor``.

        ``K + B``, plus the switching latency from the expert's current
        tier when the pool lacks it: executors sharing a pool share it.
        """
        price = record.k_ms + record.b_ms
        if not executor.pool.contains(expert_id):
            switching = record.load_latency_ms.get(self._expert_location_tier(executor, expert_id))
            if switching is None:
                switching = record.load_latency_from(_SSD)
            price += switching
        return price

    def additional_latency_ms(self, executor: Executor, job: StageJob, now_ms: float) -> float:
        """Predicted additional latency of appending ``job`` to ``executor``.

        A job joining a queued same-expert group only costs ``K`` and can
        never trigger a load; any other job costs :meth:`new_group_ms`.
        """
        expert_id = job.expert_id
        record = self.record(expert_id, executor.kind)
        if executor.queue.contains_expert(expert_id):
            return record.k_ms
        return self.new_group_ms(executor, record, expert_id)


class BatchSplitter:
    """Computes the current maximum executable batch size (§4.2).

    The cap depends only on the executor's activation budget and the
    expert's record, so it is worked out once per (executor, expert).
    """

    def __init__(self, matrix: PerformanceMatrix, model: CoEModel) -> None:
        self._matrix = matrix
        self._model = model
        self._caps: Dict[Tuple[Executor, str], int] = {}

    def max_batch_size(self, executor: Executor, expert_id: str) -> int:
        """Smaller of the profiled maximum and the memory-feasible batch."""
        key = (executor, expert_id)
        cap = self._caps.get(key)
        if cap is None:
            architecture = self._model.expert(expert_id).architecture_name
            record = self._matrix.record(architecture, executor.kind)
            if record.activation_bytes_per_sample <= 0:
                memory_limit = record.max_batch_size
            else:
                memory_limit = executor.activation_budget_bytes // record.activation_bytes_per_sample
            cap = self._caps[key] = max(1, min(record.max_batch_size, int(memory_limit)))
        return cap


class CoServeScheduler(SchedulingPolicy):
    """The dependency-aware inference request scheduler.

    Parameters
    ----------
    matrix:
        Profiled performance matrix (provides K, B, max batch sizes and
        loading latencies).
    model:
        The CoE model being served.
    scheduling_latency_ms:
        Modelled CPU cost of one scheduling decision (Figure 19).
    enable_assigning:
        Use dependency-aware request assigning; when disabled, requests
        are distributed round-robin (the CoServe None / EM / EM+RA
        ablations).
    enable_arranging:
        Use request arranging (grouping same-expert requests); when
        disabled, jobs are appended in arrival order.
    enable_batching:
        Use the batch splitter; when disabled every batch has size 1.
    """

    name = "coserve"

    def __init__(
        self,
        matrix: PerformanceMatrix,
        model: CoEModel,
        scheduling_latency_ms: float = 0.0,
        enable_assigning: bool = True,
        enable_arranging: bool = True,
        enable_batching: bool = True,
    ) -> None:
        if scheduling_latency_ms < 0:
            raise ValueError("scheduling_latency_ms must be non-negative")
        self._predictor = LatencyPredictor(matrix, model)
        self._splitter = BatchSplitter(matrix, model)
        self._scheduling_latency_ms = scheduling_latency_ms
        self.enable_assigning = enable_assigning
        self.enable_arranging = enable_arranging
        self.enable_batching = enable_batching
        self._round_robin_cursor = 0
        #: (job, executor, value) of the additional latency computed
        #: while assigning, so the engine's follow-up
        #: ``predicted_additional_latency_ms`` call for the chosen
        #: executor does not recompute it.  Holds the objects
        #: themselves: identity comparison then cannot be fooled by a
        #: freed job's id being recycled.
        self._last_prediction: Optional[Tuple[StageJob, Executor, float]] = None

    # ------------------------------------------------------------------
    # SchedulingPolicy interface
    # ------------------------------------------------------------------
    def attach(self, simulation: "ServingSimulation") -> None:
        self._predictor.attach(simulation)
        self._last_prediction = None

    def reset(self) -> None:
        self._round_robin_cursor = 0
        self._last_prediction = None

    def scheduling_latency_ms(self, job: StageJob, now_ms: float) -> float:
        return self._scheduling_latency_ms

    def predicted_additional_latency_ms(
        self, executor: Executor, job: StageJob, now_ms: float
    ) -> float:
        memo = self._last_prediction
        if memo is not None:
            self._last_prediction = None
            if memo[0] is job and memo[1] is executor:
                return memo[2]
        return self._predictor.additional_latency_ms(executor, job, now_ms)

    def select_executor(
        self, job: StageJob, executors: Sequence[Executor], now_ms: float
    ) -> Executor:
        if not self.enable_assigning:
            executor = executors[self._round_robin_cursor % len(executors)]
            self._round_robin_cursor += 1
            return executor
        return self._assign_by_total_inference_time(job, executors, now_ms)

    def insertion_index(self, executor: Executor, job: StageJob, now_ms: float) -> int:
        if not self.enable_arranging:
            return len(executor.queue)
        grouped_index = executor.queue.index_after_last(job.expert_id)
        if grouped_index is None:
            return len(executor.queue)
        return grouped_index

    def enqueue(self, executor: Executor, job: StageJob, now_ms: float) -> None:
        if self.enable_arranging:
            executor.queue.insert_grouped(job)
        else:
            executor.queue.append(job)

    def max_batch_size(self, executor: Executor, expert_id: str) -> int:
        if not self.enable_batching:
            return 1
        return self._splitter.max_batch_size(executor, expert_id)

    # ------------------------------------------------------------------
    # Request assigning (Figure 8)
    # ------------------------------------------------------------------
    def _assign_by_total_inference_time(
        self, job: StageJob, executors: Sequence[Executor], now_ms: float
    ) -> Executor:
        """Pick the queue minimising the total inference time, in one pass.

        The candidate total for executor *i* is
        ``max(max_{j≠i} finish_j, finish_i + additional_i)``.  Additional
        latencies are non-negative, so this equals
        ``max(busiest, finish_i + additional_i)`` with ``busiest`` the
        largest finish of all: the busiest queue only grows when it is
        the one chosen.  Ties go to the smaller additional latency, then
        to the executor name.  A finish is the sum
        :meth:`Executor.estimated_finish_ms` computes, in the same order.
        """
        predictor = self._predictor
        if len(executors) == 1:
            executor = executors[0]
            additional = predictor.additional_latency_ms(executor, job, now_ms)
            self._last_prediction = (job, executor, additional)
            return executor
        expert_id = job.expert_id
        finishes: List[float] = []
        additionals: List[float] = []
        pool = kind = record = new_group = None
        for executor in executors:
            if executor.pool is not pool or executor.kind is not kind:
                pool = executor.pool
                kind = executor.kind
                record = predictor.record(expert_id, kind)
                new_group = None
            busy = executor.busy_until_ms
            queue = executor.queue
            finishes.append((busy if busy > now_ms else now_ms) + queue.pending_latency_ms)
            if expert_id in queue.queued_experts:
                additionals.append(record.k_ms)
            else:
                if new_group is None:
                    new_group = predictor.new_group_ms(executor, record, expert_id)
                additionals.append(new_group)

        busiest = max(finishes)
        best_executor = executors[0]
        best_additional = additionals[0]
        best_total = max(busiest, finishes[0] + best_additional)
        for executor, finish, additional in zip(executors, finishes, additionals):
            total = finish + additional
            if total < busiest:
                total = busiest
            if total < best_total or (
                total == best_total
                and (
                    additional < best_additional
                    or (additional == best_additional and executor.name < best_executor.name)
                )
            ):
                best_executor = executor
                best_total = total
                best_additional = additional
        self._last_prediction = (job, best_executor, best_additional)
        return best_executor
