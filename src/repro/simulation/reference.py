"""Pre-optimisation reference implementations of the engine hot path.

The run-structured queue, the source-tier lookup over the distinct
model pools and the O(E) request assigning (see
:mod:`repro.simulation.engine`) are pure data-structure changes: they
must not alter any simulated result.  This module keeps
the original scan-based implementations — the flat-list
:class:`ReferenceRequestQueue`, the all-executor source-tier scans and
the O(E²) assignment loop — so that

* the equivalence tests can assert bit-identical
  :class:`~repro.simulation.results.SimulationResult`\\ s between the
  optimised and the reference engine on randomized streams, and
* ``benchmarks/test_bench_engine_hotpath.py`` can measure the speedup
  of the optimised hot path against the exact pre-optimisation code.

:func:`referencify` converts an already-built
:class:`~repro.simulation.engine.ServingSimulation` (before any
``run``) into its reference counterpart by swapping the queues and
rebinding the scan-based methods; everything else — devices, pools,
preloads, policies, metrics — is shared code.

The session redesign added a second preserved baseline:
:func:`preredesign_run` is the monolithic pre-session event loop with
metric collection inlined (the engine exactly as it stood before
observers existed).  The observer-overhead benchmark drives it against
the session path to bound the cost of the hook surface, and the
equivalence tests assert both paths simulate bit-identical results.
Like the session, it tells the eviction policy of loads and evictions
only through the model pools the policy listens to.
"""

from __future__ import annotations

import heapq
from collections import Counter
from types import MethodType
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.core.scheduler import CoServeScheduler
from repro.hardware.memory import MemoryTier
from repro.hardware.processor import ProcessorKind
from repro.policies.base import EvictionContext
from repro.simulation.engine import ServingSimulation, SimulationError
from repro.simulation.executor import Executor
from repro.simulation.request import SimRequest, StageJob, StageRecord
from repro.simulation.results import SimulationResult
from repro.simulation.session import _EVENT_DISPATCH, _EVENT_FINISH, _EVENT_JOB
from repro.workload.generator import RequestStream


class ReferenceRequestQueue:
    """The original flat-list request queue (O(n) pops and inserts)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._jobs: List[StageJob] = []
        self._expert_counts: Counter = Counter()
        self._pending_latency_ms = 0.0

    def __len__(self) -> int:
        return len(self._jobs)

    def __iter__(self) -> Iterator[StageJob]:
        return iter(self._jobs)

    @property
    def is_empty(self) -> bool:
        return not self._jobs

    @property
    def jobs(self) -> Tuple[StageJob, ...]:
        return tuple(self._jobs)

    @property
    def pending_latency_ms(self) -> float:
        return self._pending_latency_ms

    def contains_expert(self, expert_id: str) -> bool:
        return self._expert_counts.get(expert_id, 0) > 0

    def head_expert_id(self) -> Optional[str]:
        if not self._jobs:
            return None
        return self._jobs[0].expert_id

    def append(self, job: StageJob) -> int:
        return self.insert(len(self._jobs), job)

    def insert(self, index: int, job: StageJob) -> int:
        if index < 0 or index > len(self._jobs):
            raise IndexError(f"insertion index {index} out of range for queue of {len(self._jobs)}")
        self._jobs.insert(index, job)
        self._expert_counts[job.expert_id] += 1
        self._pending_latency_ms += job.predicted_latency_ms
        return index

    def index_after_last(self, expert_id: str) -> Optional[int]:
        if self._expert_counts.get(expert_id, 0) == 0:
            return None
        for index in range(len(self._jobs) - 1, -1, -1):
            if self._jobs[index].expert_id == expert_id:
                return index + 1
        return None

    def pop_head_run(self, max_count: int) -> List[StageJob]:
        if max_count <= 0:
            raise ValueError("max_count must be positive")
        if not self._jobs:
            return []
        head_expert = self._jobs[0].expert_id
        run: List[StageJob] = []
        while self._jobs and len(run) < max_count and self._jobs[0].expert_id == head_expert:
            job = self._jobs.pop(0)
            self._expert_counts[job.expert_id] -= 1
            if self._expert_counts[job.expert_id] <= 0:
                del self._expert_counts[job.expert_id]
            self._pending_latency_ms -= job.predicted_latency_ms
            run.append(job)
        if self._pending_latency_ms < 0 and self._pending_latency_ms > -1e-6:
            self._pending_latency_ms = 0.0
        return run

    def clear(self) -> None:
        self._jobs.clear()
        self._expert_counts.clear()
        self._pending_latency_ms = 0.0


def _reference_locate_source_tier(
    self: ServingSimulation, executor: Executor, expert_id: str
) -> MemoryTier:
    """The original all-executor pool scan of the engine."""
    if self.host_cache is not None and self.host_cache.lookup(expert_id):
        return MemoryTier.CPU
    for other in self._executors:
        if other.pool is executor.pool:
            continue
        if other.pool.contains(expert_id):
            return self.device.memory_tier_for(other.kind)
    return MemoryTier.SSD


def _reference_expert_location_tier(self, executor: Executor, expert_id: str) -> str:
    """The original all-executor scan of the latency predictor."""
    if self._simulation is None:
        return MemoryTier.SSD.value
    if self._simulation.host_cache is not None and self._simulation.host_cache.contains(expert_id):
        return MemoryTier.CPU.value
    for other in self._simulation.executors:
        if other.pool is executor.pool:
            continue
        if other.pool.contains(expert_id):
            return self._simulation.device.memory_tier_for(other.kind).value
    return MemoryTier.SSD.value


def _reference_assign_by_total_inference_time(
    self: CoServeScheduler, job: StageJob, executors: Sequence[Executor], now_ms: float
) -> Executor:
    """The original O(E²)-per-job request-assigning loop."""
    finish_times = {
        executor.name: executor.estimated_finish_ms(now_ms) for executor in executors
    }
    additional = {
        executor.name: self._predictor.additional_latency_ms(executor, job, now_ms)
        for executor in executors
    }

    best_executor: Optional[Executor] = None
    best_key: Optional[tuple] = None
    for executor in executors:
        others_max = max(
            (finish_times[other.name] for other in executors if other is not executor),
            default=0.0,
        )
        candidate_total = max(others_max, finish_times[executor.name] + additional[executor.name])
        key = (candidate_total, additional[executor.name], executor.name)
        if best_key is None or key < best_key:
            best_key = key
            best_executor = executor
    assert best_executor is not None
    return best_executor


def _reference_enqueue(self, executor: Executor, job: StageJob, now_ms: float) -> None:
    """The original index-based insertion path of the engine."""
    index = self.insertion_index(executor, job, now_ms)
    executor.queue.insert(index, job)


def referencify(simulation: ServingSimulation) -> ServingSimulation:
    """Rebind a freshly built simulation to the pre-optimisation code.

    Must be called before ``run`` (the executor queues must still be
    empty).  Returns the same simulation object for chaining.
    """
    for executor in simulation._executors:
        if len(executor.queue) != 0:
            raise ValueError("referencify requires empty executor queues (call it before run)")
        executor.queue = ReferenceRequestQueue(name=executor.queue.name)
    simulation._locate_source_tier = MethodType(_reference_locate_source_tier, simulation)

    policy = simulation.scheduling_policy
    policy.enqueue = MethodType(_reference_enqueue, policy)
    if isinstance(policy, CoServeScheduler):
        policy._assign_by_total_inference_time = MethodType(
            _reference_assign_by_total_inference_time, policy
        )
        policy._last_prediction = None
        policy._predictor._expert_location_tier = MethodType(
            _reference_expert_location_tier, policy._predictor
        )
    return simulation


# ----------------------------------------------------------------------
# The pre-session monolithic event loop (observer-overhead baseline)
# ----------------------------------------------------------------------
def _preredesign_handle_job(simulation, job, now, events, sequence):
    """The original ``ServingSimulation._handle_job`` (inline metrics)."""
    policy = simulation.scheduling_policy
    scheduling_latency = policy.scheduling_latency_ms(job, now)
    simulation.metrics.record_scheduling(scheduling_latency)

    executor = policy.select_executor(job, simulation._executors, now)
    job.predicted_latency_ms = policy.predicted_additional_latency_ms(executor, job, now)
    policy.enqueue(executor, job, now)

    if executor.idle:
        executor.idle = False
        heapq.heappush(events, (now, _EVENT_DISPATCH, sequence, executor))
        sequence += 1
    return sequence


def _preredesign_dispatch(simulation, executor, now, events, sequence):
    """The original ``ServingSimulation._dispatch`` (inline metrics)."""
    if executor.queue.is_empty:
        executor.idle = True
        executor.current_expert_id = None
        return sequence

    head_expert_id = executor.queue.head_expert_id()
    max_batch = max(1, simulation.scheduling_policy.max_batch_size(executor, head_expert_id))
    batch = executor.queue.pop_head_run(max_batch)
    expert = simulation.model.expert(batch[0].expert_id)
    executor.current_expert_id = expert.expert_id

    ready_ms = now
    switch_wait = 0.0
    if not executor.pool.contains(expert.expert_id):
        ready_ms = _preredesign_load_expert(simulation, executor, expert, now)
        switch_wait = ready_ms - now

    execution_latency = simulation.device.execution_latency_ms(
        expert.architecture_name, executor.kind, len(batch)
    )
    compute = simulation._compute_resources[executor.kind]
    start_ms, end_ms = compute.acquire(ready_ms, execution_latency)

    executor.busy_until_ms = end_ms
    executor.idle = False
    simulation.eviction_policy.record_access(executor.pool.name, expert.expert_id)
    executor.stats.batches_executed += 1
    executor.stats.stages_executed += len(batch)
    executor.stats.execution_busy_ms += execution_latency
    simulation.metrics.record_execution(latency_ms=execution_latency)

    payload = (executor, batch, now, start_ms, end_ms, switch_wait)
    heapq.heappush(events, (end_ms, _EVENT_FINISH, sequence, payload))
    return sequence + 1


def _preredesign_load_expert(simulation, executor, expert, now):
    """The original ``ServingSimulation._load_expert`` (inline metrics)."""
    pool = executor.pool
    needed = expert.weight_bytes
    evicted_any = False

    if not pool.can_fit(needed):
        protected = {
            other.current_expert_id
            for other in simulation._executors
            if other is not executor and other.pool is pool and other.current_expert_id
        }
        context = EvictionContext(
            pool_name=pool.name,
            incoming_expert_id=expert.expert_id,
            protected_expert_ids=frozenset(protected),
            bytes_to_free=needed - pool.free_bytes,
            resident_bytes=pool.resident_sizes(),
        )
        for victim in simulation.eviction_policy.victim_order(context):
            if pool.can_fit(needed):
                break
            freed = pool.evict(victim)
            evicted_any = True
            if simulation.host_cache is not None and executor.kind is ProcessorKind.GPU:
                simulation.host_cache.put(victim, freed)
        if not pool.can_fit(needed):
            raise SimulationError(
                f"executor '{executor.name}' cannot free enough memory for expert "
                f"'{expert.expert_id}' ({needed} bytes, {pool.free_bytes} free)"
            )

    source_tier = simulation._locate_source_tier(executor, expert.expert_id)

    load_latency = simulation.device.expert_load_latency_ms(
        expert.weight_bytes, expert.architecture_name, source_tier, executor.kind
    )
    io_resource = simulation._io_resources.get(
        source_tier, simulation._io_resources[MemoryTier.SSD]
    )
    _, ready_ms = io_resource.acquire(now, load_latency)

    pool.load(expert.expert_id, expert.weight_bytes)

    executor.stats.expert_loads += 1
    executor.stats.load_busy_ms += load_latency
    if evicted_any:
        executor.stats.expert_switches += 1
    if source_tier is MemoryTier.SSD:
        executor.stats.loads_from_ssd += 1
    else:
        executor.stats.loads_from_cache += 1
    simulation.metrics.record_load(
        source_tier=source_tier.value, latency_ms=ready_ms - now, evicted=evicted_any
    )
    return ready_ms


def _preredesign_handle_finish(
    simulation, executor, batch, dispatch_ms, start_ms, end_ms, switch_wait, events, sequence
):
    """The original ``ServingSimulation._handle_finish``."""
    for job in batch:
        record = StageRecord(
            stage_index=job.stage_index,
            expert_id=job.expert_id,
            executor_name=executor.name,
            enqueue_ms=job.enqueue_ms,
            start_ms=dispatch_ms,
            end_ms=end_ms,
            batch_size=len(batch),
            switch_wait_ms=switch_wait,
        )
        job.request.record_stage(record)
        if job.request.has_remaining_stages():
            next_job = StageJob(
                request=job.request,
                stage_index=job.request.next_stage,
                expert_id=job.request.current_expert_id(),
                enqueue_ms=end_ms,
            )
            heapq.heappush(events, (end_ms, _EVENT_JOB, sequence, next_job))
            sequence += 1
    return _preredesign_dispatch(simulation, executor, end_ms, events, sequence)


def preredesign_run(simulation: ServingSimulation, stream: RequestStream) -> SimulationResult:
    """Serve a stream with the pre-session monolithic loop.

    This is ``ServingSimulation.run()`` exactly as it stood before the
    session/observer redesign: one closed loop with metric collection
    inlined.  It mutates the simulation the same way a session would, so
    — like :func:`referencify` — it must be given a freshly built
    simulation.  Kept so the observer-overhead benchmark can measure the
    session's hook surface against the original hard-wired loop.
    """
    if getattr(simulation, "_session", None) is not None:
        raise ValueError("preredesign_run requires a fresh simulation (no session attached)")
    simulation.scheduling_policy.attach(simulation)

    requests = [SimRequest(spec) for spec in stream]
    events: List[Tuple[float, int, int, object]] = []
    sequence = 0
    for request in requests:
        job = StageJob(
            request=request,
            stage_index=0,
            expert_id=request.pipeline[0],
            enqueue_ms=request.arrival_ms,
        )
        heapq.heappush(events, (request.arrival_ms, _EVENT_JOB, sequence, job))
        sequence += 1

    last_completion_ms = 0.0
    while events:
        now, kind, _, payload = heapq.heappop(events)
        if kind == _EVENT_JOB:
            sequence = _preredesign_handle_job(simulation, payload, now, events, sequence)
        elif kind == _EVENT_DISPATCH:
            sequence = _preredesign_dispatch(simulation, payload, now, events, sequence)
        elif kind == _EVENT_FINISH:
            executor, batch, dispatch_ms, start_ms, end_ms, switch_wait = payload
            sequence = _preredesign_handle_finish(
                simulation, executor, batch, dispatch_ms, start_ms, end_ms, switch_wait,
                events, sequence,
            )
            last_completion_ms = max(last_completion_ms, end_ms)
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unknown event kind {kind}")

    incomplete = [request for request in requests if not request.is_completed]
    if incomplete:
        raise SimulationError(
            f"{len(incomplete)} requests did not complete "
            f"(first: {incomplete[0].request_id})"
        )

    return simulation._build_result(stream, requests, last_completion_ms)
