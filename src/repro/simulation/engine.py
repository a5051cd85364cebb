"""The configured serving deployment behind the simulation sessions.

:class:`ServingSimulation` assembles a deployment — executors with
shared model pools, a host cache, serial compute/IO resources, the
scheduling and eviction policies — and validates it against the
device's memory budgets.  Advancing virtual time is the job of
:class:`~repro.simulation.session.SimulationSession`, the engine's
primary API: a steppable event loop with typed
:class:`~repro.simulation.session.SimEvent` hooks
(:class:`~repro.simulation.session.SimObserver`) that metric
collection, timeline recording, SLO monitors and custom scenarios plug
into.  The discrete-event semantics live there:

* **job arrival** — a stage job enters the system (either because a
  workload request arrived, or because an earlier pipeline stage of a
  request finished and its subsequent expert can now run);
* **executor dispatch** — an idle executor with queued work forms a
  batch, loads the required expert if necessary (evicting residents
  according to the eviction policy) and starts executing;
* **batch finish** — a running batch completes, its requests advance to
  their next pipeline stage (or complete), and the executor dispatches
  again.

Executors bound to the same processor share that processor's compute
serially; expert loads share the SSD / interconnect serially.  Both are
modelled with :class:`~repro.simulation.resources.SerialResource`, so a
load on one executor overlaps with execution on another — the effect
that makes multiple executors worthwhile (Figure 17) — while executors
on the same processor do not multiply raw compute throughput.

All decisions are delegated to the scheduling policy (assignment,
arrangement, batch-size limit) and the eviction policy (victim order),
so Samba-CoE, its variants and CoServe all run on this single engine.

:meth:`ServingSimulation.run` is shorthand for ``session(...).run()``.
Every session subscribes the built-in metrics observer, which fills
:attr:`ServingSimulation.metrics` — the one place the result's metric
totals come from — and results are bit-identical to the pre-session
monolithic loop (equivalence is enforced against
:mod:`repro.simulation.reference`).

Hot-path data structures
------------------------

Every figure/table reproduction replays thousands of stage jobs through
the session loop, so the engine is organised around constant-time
lookups rather than scans:

* **Run-structured queues** — each executor's
  :class:`~repro.simulation.queueing.RequestQueue` stores a deque of
  same-expert *runs* plus an expert → last-run map, making tail
  appends, grouped insertion (request arranging) and head-run pops all
  O(1) amortised; the former flat-list queue paid O(n) per ``pop(0)``
  and O(n) per grouped insert.
* **One owner of residency** — the model pools.  The eviction policy
  is subscribed once to each distinct pool, so every load and eviction
  (preloads included) reaches it as a pool notification, and finding
  where else an expert is resident (here and in the scheduler's
  latency predictor) is a host-cache probe plus a membership test on
  each other distinct pool — one, when pools are shared per processor
  — instead of an all-executor scan.
* **O(E) request assigning** — CoServe's scheduler bounds every
  candidate total by the busiest queue's finish, so a decision is one
  pass over the executors (in name order) for the finishes and their
  running maximum and one for the totals, instead of the O(E²) per-job
  max-over-others loop.  Each expert's new-group prices are kept in a
  per-expert row that pool and host-cache listeners drop when the
  expert's residency changes (see :mod:`repro.core.scheduler`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.coe.model import CoEModel
from repro.hardware.device import Device
from repro.hardware.memory import MemoryTier
from repro.hardware.processor import ProcessorKind
from repro.metrics.collector import MetricsCollector
from repro.policies.base import EvictionPolicy
from repro.simulation.executor import Executor, ExecutorConfig
from repro.simulation.host_cache import HostCache
from repro.simulation.interfaces import SchedulingPolicy
from repro.simulation.model_pool import ModelPool
from repro.simulation.request import SimRequest
from repro.simulation.resources import SerialResource
from repro.simulation.results import ExecutorSummary, SimulationResult
from repro.simulation.session import SimulationError, SimulationSession
from repro.workload.generator import RequestStreamLike

__all__ = [
    "ServingSimulation",
    "SimulationError",
    "SimulationOptions",
]


@dataclass(frozen=True, kw_only=True)
class SimulationOptions:
    """Tunable behaviour of the engine (keyword-only).

    How a run is *observed* is not an option: every session subscribes
    the built-in :class:`~repro.metrics.collector.MetricsObserver`, and
    timelines, SLO monitors and event streams are further observers.
    These knobs only decide what state the engine keeps.

    Parameters
    ----------
    keep_request_records:
        Keep every completed request, with its stage records, in the
        result's ``requests``.  Only a caller that reads per-request
        latencies needs them (the surrogate's validation against
        simulated percentiles, for one): every figure reads aggregates,
        so :func:`~repro.sweeps.runner.execute_cell` and the tuning
        replays of :mod:`repro.serving.tuning` build their simulations
        without them.  Disable for large runs.
    share_pool_per_processor:
        Executors bound to the same processor share one model pool
        (they share the same physical memory).  Disable to give every
        executor a private pool.
    keep_stage_records:
        Materialise per-stage :class:`~repro.simulation.request.StageRecord`\\ s
        on live requests.  Disable (together with
        ``keep_request_records=False``) for maximum-throughput
        million-request runs where only aggregate metrics are read:
        completion times (and hence end-to-end latencies) are still
        tracked, but ``SimRequest.records`` stays empty, so observers
        reading per-stage breakdowns (e.g. an ``SLOMonitor`` on the
        ``"service"`` metric) need this left on.
    """

    keep_request_records: bool = True
    share_pool_per_processor: bool = True
    keep_stage_records: bool = True

    def __post_init__(self) -> None:
        if not self.keep_stage_records and self.keep_request_records:
            raise ValueError(
                "keep_stage_records=False requires keep_request_records=False: "
                "the result would carry every request with empty stage records, "
                "silently zeroing the per-request latency breakdowns"
            )


class ServingSimulation:
    """A configured serving deployment ready to process request streams."""

    def __init__(
        self,
        device: Device,
        model: CoEModel,
        executor_configs: Sequence[ExecutorConfig],
        scheduling_policy: SchedulingPolicy,
        eviction_policy: EvictionPolicy,
        host_cache_bytes: int = 0,
        options: Optional[SimulationOptions] = None,
        system_name: str = "system",
    ) -> None:
        if not executor_configs:
            raise ValueError("at least one executor is required")
        names = [config.name for config in executor_configs]
        if len(set(names)) != len(names):
            raise ValueError("executor names must be unique")

        self.device = device
        self.model = model
        self.scheduling_policy = scheduling_policy
        self.eviction_policy = eviction_policy
        self.options = options or SimulationOptions()
        self.system_name = system_name

        self._executors: List[Executor] = self._build_executors(executor_configs)
        self._executors_by_name: Dict[str, Executor] = {
            executor.name: executor for executor in self._executors
        }
        self._validate_memory_budgets(host_cache_bytes)

        self.host_cache: Optional[HostCache] = None
        if host_cache_bytes > 0 and not device.is_uma:
            self.host_cache = HostCache(host_cache_bytes)

        # Each distinct pool with its memory tier, in the order of the
        # first executor bound to it: the preference order of a
        # source-tier lookup.  The eviction policy listens to each pool
        # once.
        tiers: Dict[ModelPool, MemoryTier] = {}
        for executor in self._executors:
            tiers.setdefault(executor.pool, device.memory_tier_for(executor.kind))
        self._pool_tiers: Tuple[Tuple[ModelPool, MemoryTier], ...] = tuple(tiers.items())
        for pool in tiers:
            pool.add_listener(eviction_policy)

        self._compute_resources: Dict[ProcessorKind, SerialResource] = {
            executor.kind: SerialResource(name=f"compute-{executor.kind.value}")
            for executor in self._executors
        }
        self._io_resources: Dict[MemoryTier, SerialResource] = {
            MemoryTier.SSD: SerialResource(name="io-ssd"),
        }
        for tier in (MemoryTier.CPU, MemoryTier.UNIFIED):
            if device.has_tier(tier):
                self._io_resources[tier] = SerialResource(name=f"io-{tier.value}")

        self.metrics = MetricsCollector()
        #: The session currently driving this deployment (one per build).
        self._session: Optional[SimulationSession] = None

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _build_executors(self, executor_configs: Sequence[ExecutorConfig]) -> List[Executor]:
        """Create executors, sharing one model pool per processor kind."""
        if not self.options.share_pool_per_processor:
            return [Executor(config) for config in executor_configs]
        pool_capacity: Dict[ProcessorKind, int] = {}
        for config in executor_configs:
            pool_capacity[config.processor_kind] = (
                pool_capacity.get(config.processor_kind, 0) + config.expert_pool_bytes
            )
        shared_pools = {
            kind: ModelPool(name=f"pool-{kind.value}", capacity_bytes=capacity)
            for kind, capacity in pool_capacity.items()
        }
        return [Executor(config, pool=shared_pools[config.processor_kind]) for config in executor_configs]

    def _validate_memory_budgets(self, host_cache_bytes: int) -> None:
        """Executor budgets (plus the host cache) must fit the device."""
        usage_per_tier: Dict[MemoryTier, int] = {}
        for executor in self._executors:
            tier = self.device.memory_tier_for(executor.kind)
            usage_per_tier[tier] = usage_per_tier.get(tier, 0) + executor.config.total_bytes
        if host_cache_bytes > 0 and not self.device.is_uma:
            usage_per_tier[MemoryTier.CPU] = (
                usage_per_tier.get(MemoryTier.CPU, 0) + host_cache_bytes
            )
        for tier, used in usage_per_tier.items():
            capacity = self.device.region(tier).capacity_bytes
            if used > capacity:
                raise SimulationError(
                    f"memory budgets for tier '{tier.value}' total {used} bytes, "
                    f"exceeding the device capacity of {capacity} bytes"
                )
        largest_expert = self.model.largest_expert_bytes
        for executor in self._executors:
            if executor.pool.capacity_bytes < largest_expert:
                raise SimulationError(
                    f"executor '{executor.name}' has an expert pool of "
                    f"{executor.pool.capacity_bytes} bytes, smaller than the largest expert "
                    f"({largest_expert} bytes); no expert could ever be loaded"
                )

    @property
    def executors(self) -> Tuple[Executor, ...]:
        return tuple(self._executors)

    def executor(self, name: str) -> Executor:
        try:
            return self._executors_by_name[name]
        except KeyError:
            raise KeyError(f"no executor named '{name}'") from None

    def preload(self, plan: Mapping[str, Sequence[str]]) -> None:
        """Load experts into executor pools during system initialisation.

        The plan maps executor names to expert ids in priority order;
        loading stops silently for experts that no longer fit (the paper
        fills pools "until the memory is fully utilized").  Preloads are
        free in virtual time and are not switches: initialisation
        happens before any session exists, so no observer sees them and
        the run's metrics start at zero.
        """
        for executor_name, expert_ids in plan.items():
            executor = self.executor(executor_name)
            for expert_id in expert_ids:
                expert = self.model.expert(expert_id)
                if executor.pool.contains(expert_id):
                    continue
                if not executor.pool.can_fit(expert.weight_bytes):
                    continue
                executor.pool.load(expert_id, expert.weight_bytes)

    def preload_host_cache(self, expert_ids: Sequence[str]) -> None:
        """Stage experts in the CPU-memory cache during initialisation.

        No-op on devices without a host cache (UMA devices).
        """
        if self.host_cache is None:
            return
        for expert_id in expert_ids:
            expert = self.model.expert(expert_id)
            if self.host_cache.free_bytes < expert.weight_bytes:
                continue
            self.host_cache.put(expert_id, expert.weight_bytes)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def session(
        self, stream: RequestStreamLike, observers: Sequence[object] = ()
    ) -> SimulationSession:
        """Open a steppable session over this deployment.

        A simulation backs at most one session (pools, stats and serial
        resources are mutated by the run); build a fresh simulation per
        session.  ``stream`` may be an eager
        :class:`~repro.workload.generator.RequestStream` or a
        :class:`~repro.workload.generator.LazyRequestStream` — the
        session consumes specs through its arrival cursor either way,
        and a lazy stream keeps million-request runs at in-flight
        memory.  The session's built-in metrics observer feeds
        ``self.metrics``; ``observers`` are subscribed after it.
        """
        return SimulationSession(self, stream, observers=observers)

    def run(
        self, stream: RequestStreamLike, observers: Sequence[object] = ()
    ) -> SimulationResult:
        """Serve a request stream to completion and return the result.

        Shorthand for ``self.session(stream, observers).run()``.
        """
        return self.session(stream, observers=observers).run()

    def other_pool_tier(self, pool: ModelPool, expert_id: str) -> Optional[MemoryTier]:
        """Memory tier of the first pool other than ``pool`` holding the expert.

        Pools are asked in the order of the first executor bound to
        each, the preference of an all-executor scan; ``None`` when no
        other pool holds the expert.
        """
        for other, tier in self._pool_tiers:
            if other is not pool and expert_id in other:
                return tier
        return None

    def _locate_source_tier(self, executor: Executor, expert_id: str) -> MemoryTier:
        """Find the fastest tier the expert can currently be loaded from.

        Preference order: the host-memory cache, then any other model
        pool on the device (another processor's pool reached over the
        interconnect / unified-memory reorganisation path), then the
        SSD.  The host cache is probed through ``lookup`` because a hit
        must refresh LRU recency.
        """
        if self.host_cache is not None and self.host_cache.lookup(expert_id):
            return MemoryTier.CPU
        tier = self.other_pool_tier(executor.pool, expert_id)
        return tier if tier is not None else MemoryTier.SSD

    # ------------------------------------------------------------------
    # Result assembly
    # ------------------------------------------------------------------
    def _build_result(
        self,
        stream: RequestStreamLike,
        requests: Sequence[SimRequest],
        last_completion_ms: float,
    ) -> SimulationResult:
        executor_summaries = tuple(
            ExecutorSummary(
                name=executor.name,
                processor_kind=executor.kind.value,
                batches_executed=executor.stats.batches_executed,
                stages_executed=executor.stats.stages_executed,
                execution_busy_ms=executor.stats.execution_busy_ms,
                load_busy_ms=executor.stats.load_busy_ms,
                expert_loads=executor.stats.expert_loads,
                expert_switches=executor.stats.expert_switches,
                loads_from_ssd=executor.stats.loads_from_ssd,
                loads_from_cache=executor.stats.loads_from_cache,
                resident_experts_at_end=executor.pool.resident_count,
            )
            for executor in self._executors
        )
        return SimulationResult(
            system_name=self.system_name,
            device_name=self.device.name,
            workload_name=stream.name,
            num_requests=len(stream),
            makespan_ms=last_completion_ms,
            total_execution_ms=self.metrics.total_execution_ms,
            total_switching_ms=self.metrics.total_switching_ms,
            total_scheduling_ms=self.metrics.total_scheduling_ms,
            expert_loads=self.metrics.expert_loads,
            expert_switches=self.metrics.expert_switches,
            loads_from_ssd=self.metrics.loads_from_ssd,
            loads_from_cache=self.metrics.loads_from_cache,
            executors=executor_summaries,
            requests=tuple(requests) if self.options.keep_request_records else (),
            scheduling_decisions=self.metrics.scheduling_decisions,
        )
