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

Request assigning reads two things that events keep current instead
of rebuilding them per decision:

* an **executor view** — the decision's executors in ascending name
  order, built once per executor sequence, so the name tie-break is
  the scan order;
* a **price row** per expert — ``(K, new-group price)`` for each
  executor of the view, worked out on first use with one record lookup
  and one :meth:`LatencyPredictor.new_group_ms` per pool and processor
  kind.  A new group's price (``K + B``, plus switching from the
  expert's current tier when the pool lacks it) only changes when the
  expert enters or leaves a model pool or the host cache, so the row
  is dropped on exactly those notifications (the pool and host-cache
  listener protocol the eviction policies also use), and all rows are
  dropped at ``attach``.

A decision is then one pass over the view for the queue finish times
and their running maximum, and one for the totals, reading queued
experts as dict lookups.  Once per scheduler, each (expert, processor)
record and each (executor, expert) batch cap is resolved.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.coe.model import CoEModel
from repro.core.config import ExpertPerformanceRecord, PerformanceMatrix
from repro.hardware.memory import MemoryTier
from repro.hardware.processor import ProcessorKind
from repro.simulation.executor import Executor
from repro.simulation.interfaces import SchedulingPolicy
from repro.simulation.request import StageJob

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.engine import ServingSimulation
    from repro.simulation.host_cache import HostCache
    from repro.simulation.model_pool import ModelPool

_SSD = MemoryTier.SSD.value
_CPU = MemoryTier.CPU.value
_INF = float("inf")
_BY_NAME = attrgetter("name")


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

        The host cache, then the first other pool holding the expert
        (:meth:`~repro.simulation.engine.ServingSimulation.other_pool_tier`),
        then the SSD.
        """
        simulation = self._simulation
        if simulation is None:
            return _SSD
        if simulation.host_cache is not None and simulation.host_cache.contains(expert_id):
            return _CPU
        tier = simulation.other_pool_tier(executor.pool, expert_id)
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


#: ``(K, new-group price)`` of one executor of the view.
_Price = Tuple[float, float]


class _PriceRows(dict):
    """Expert -> price row over the executor view, one entry per executor.

    A row is worked out on first use and kept.  It only depends on which
    pools and host cache hold its expert, so it is dropped when the
    expert is loaded into or evicted from a watched pool, or put into or
    removed from a watched host cache.
    """

    def __init__(self, compute: Callable[[str], Tuple[_Price, ...]]) -> None:
        super().__init__()
        self._compute = compute
        #: id -> watched pool or host cache, each listened to once.
        self._watched: Dict[int, object] = {}

    def __missing__(self, expert_id: str) -> Tuple[_Price, ...]:
        row = self[expert_id] = self._compute(expert_id)
        return row

    def watch(self, source: "Union[ModelPool, HostCache]") -> None:
        """Listen to a model pool or host cache, once."""
        if id(source) not in self._watched:
            self._watched[id(source)] = source
            source.add_listener(self)

    def _drop(self, source: object, expert_id: str) -> None:
        self.pop(expert_id, None)

    on_pool_load = on_pool_evict = on_host_cache_put = on_host_cache_remove = _drop


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
        #: The executor sequence of the last decision as passed, and the
        #: same executors in ascending name order.
        self._executors: Sequence[Executor] = ()
        self._view: Tuple[Executor, ...] = ()
        self._rows = _PriceRows(self._price_row)

    # ------------------------------------------------------------------
    # SchedulingPolicy interface
    # ------------------------------------------------------------------
    def attach(self, simulation: "ServingSimulation") -> None:
        self._predictor.attach(simulation)
        self._last_prediction = None
        # Prices read the simulation's residency from now on: rows made
        # before (preloads happen before attach) are stale.
        rows = self._rows
        rows.clear()
        for executor in simulation.executors:
            rows.watch(executor.pool)
        if simulation.host_cache is not None:
            rows.watch(simulation.host_cache)

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
    def _use_executors(self, executors: Sequence[Executor]) -> None:
        """Make ``executors`` the decision's executors.

        An equal sequence (the same executors in the same order, such as
        a fresh ``simulation.executors`` tuple) keeps the view and the
        rows; any other drops the rows and watches the new pools.
        """
        if tuple(executors) != tuple(self._executors):
            self._view = tuple(sorted(executors, key=_BY_NAME))
            rows = self._rows
            rows.clear()
            for executor in executors:
                rows.watch(executor.pool)
        self._executors = executors

    def _price_row(self, expert_id: str) -> Tuple[_Price, ...]:
        """``(K, new-group price)`` for each executor of the view.

        One record lookup and one :meth:`LatencyPredictor.new_group_ms`
        per pool and processor kind: executors sharing both share the
        price.
        """
        predictor = self._predictor
        prices: Dict[Tuple["ModelPool", ProcessorKind], _Price] = {}
        row: List[_Price] = []
        for executor in self._view:
            group = (executor.pool, executor.kind)
            price = prices.get(group)
            if price is None:
                record = predictor.record(expert_id, executor.kind)
                price = prices[group] = (
                    record.k_ms,
                    predictor.new_group_ms(executor, record, expert_id),
                )
            row.append(price)
        return tuple(row)

    def _assign_by_total_inference_time(
        self, job: StageJob, executors: Sequence[Executor], now_ms: float
    ) -> Executor:
        """Pick the queue minimising the total inference time.

        The candidate total for executor *i* is
        ``max(max_{j≠i} finish_j, finish_i + additional_i)``.  Additional
        latencies are non-negative, so this equals
        ``max(busiest, finish_i + additional_i)`` with ``busiest`` the
        largest finish of all: the busiest queue only grows when it is
        the one chosen.  Ties go to the smaller additional latency, then
        to the executor name: the view is in name order, so the first
        executor scanned wins a full tie.  A finish is the sum
        :meth:`Executor.estimated_finish_ms` computes, in the same order.

        ``executors`` is recognised by identity first: a caller must not
        change a sequence in place between decisions (the engine's list
        never changes).
        """
        if executors is not self._executors:
            self._use_executors(executors)
        expert_id = job.expert_id
        row = self._rows[expert_id]
        view = self._view
        finishes: List[float] = []
        busiest = -_INF
        for executor in view:
            busy = executor.busy_until_ms
            finish = (busy if busy > now_ms else now_ms) + executor.queue.pending_latency_ms
            if finish > busiest:
                busiest = finish
            finishes.append(finish)

        best_executor = view[0]
        best_total = best_additional = _INF
        for executor, finish, (k_ms, new_group) in zip(view, finishes, row):
            additional = k_ms if expert_id in executor.queue.queued_experts else new_group
            total = finish + additional
            if total < busiest:
                total = busiest
            if total < best_total or (total == best_total and additional < best_additional):
                best_executor = executor
                best_total = total
                best_additional = additional
        self._last_prediction = (job, best_executor, best_additional)
        return best_executor
