"""Extract analytical features for one sweep cell without simulating it.

The surrogate's accuracy rests on the observation (measured in
``docs/performance.md``) that a serving run's busy time is dominated by
three work terms the simulator accounts exactly:

* **execution work** — every stage's batch-amortised execution latency,
  from the profiler's linear fits ``K·b + B``;
* **switching work** — every expert load's tier latency, and loads are
  *predictable by set arithmetic*: the scan-order workload visits each
  category in one run, so which experts a pool must load follows from
  the stream's referenced-expert set, the preload plan's resident set,
  and whether the pool's working set overflows its capacity (churn);
* **scheduling work** — one fixed decision latency per stage.

:func:`extract_features` computes those terms by building the cell's
serving system (boards, models and performance matrices come from the
shared :class:`~repro.experiments.base.EvaluationContext` caches, so
this costs milliseconds, not the seconds a simulation takes) and
inspecting its preloaded simulation structure — executor counts, pool
residency, host-cache presence, scheduler flavour and flags — plus the
request stream's exact per-expert stage counts.  The result is a
:class:`CellFeatures` bundle of arrival-rate-independent quantities
that :class:`~repro.surrogate.model.QueueingSurrogate` turns into
throughput and latency predictions.

Load model in detail (calibrated against per-executor simulator
counters):

* An expert's **first** load anywhere is paid at SSD latency.
* A **second pool** (the other processor kind, under round-robin or
  residency-blind assignment) reloads the same expert at the cheap
  *staging* latency — the first load left a copy in the host cache /
  unified memory.
* A pool whose working set (referenced ∪ preloaded) overflows its
  capacity **churns**: its preloaded residents are evicted before their
  scan-order turn and must be re-loaded — from the host cache where the
  device has one, from SSD where it does not (UMA).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Set, Tuple

from repro.serving.factory import build_system

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import PerformanceMatrix
    from repro.experiments.base import EvaluationContext
    from repro.sweeps.spec import SweepCell

#: Churn fractions: what share of a pool's preloaded-and-referenced
#: overlap is evicted before its scan-order turn and must reload.  A
#: single executor walks the stream in order and LRU mostly protects
#: preloads; executors *sharing* a pool thrash it with concurrent
#: working sets, and a host cache (cheap reloads) lets the full overlap
#: churn where SSD-priced reloads (UMA) throttle it.
_CHURN_SINGLE = 0.15
_CHURN_SHARED_UNCACHED = 0.25
_CHURN_SHARED_CACHED = 1.0


@dataclass(frozen=True)
class StageClass:
    """One (architecture, processor-kind) bucket of a cell's stage mix.

    ``stages`` may be fractional: round-robin scheduling spreads an
    expert's stages across processor kinds proportionally, and the
    surrogate keeps the expectation rather than forcing an integer
    split.
    """

    architecture: str
    kind: str
    stages: float
    k_ms: float
    b_ms: float
    max_batch_size: int

    def cost_ms(self, batch: float) -> float:
        """Per-stage execution cost at an (amortised) batch size."""
        batch = max(1.0, min(float(batch), float(self.max_batch_size)))
        return (self.k_ms * batch + self.b_ms) / batch


@dataclass(frozen=True)
class CellFeatures:
    """Arrival-rate-independent analytical features of one sweep cell.

    Everything here is exact (stage counts, load sets) or a static
    property of the built system (executor counts, scheduler flags);
    the queueing model layers its tunable constants on top.
    """

    system: str
    device: str
    task: str
    num_requests: int
    total_stages: int
    arrival_interval_ms: float
    executor_count: int
    gpu_executor_count: int
    cpu_executor_count: int
    scheduler: str
    batching_enabled: bool
    arranging_enabled: bool
    assigning_enabled: bool
    expert_management_enabled: bool
    configured_batch_size: float
    scheduling_latency_ms: float
    stage_classes: Tuple[StageClass, ...]
    #: Predicted expert loads and the switching work they cost, split by
    #: source tier (SSD vs host-cache/unified staging).
    predicted_loads_ssd: int
    predicted_loads_staged: int
    switch_work_ssd_ms: float
    switch_work_staged_ms: float
    distinct_experts: int
    resident_experts: int

    @property
    def predicted_loads(self) -> int:
        """Total predicted expert loads across pools and tiers."""
        return self.predicted_loads_ssd + self.predicted_loads_staged

    @property
    def switch_work_ms(self) -> float:
        """Total predicted switching work in milliseconds."""
        return self.switch_work_ssd_ms + self.switch_work_staged_ms

    @property
    def sched_work_ms(self) -> float:
        """Total scheduling work: one decision latency per stage."""
        return self.total_stages * self.scheduling_latency_ms

    def exec_work_ms(self, batch: float) -> float:
        """Total execution work at an amortised batch size."""
        return sum(sc.stages * sc.cost_ms(batch) for sc in self.stage_classes)


def _stage_counts(stream) -> Dict[str, float]:
    """Exact per-expert stage counts of a request stream."""
    return {expert_id: float(count) for expert_id, count in stream.expert_stage_counts.items()}


def _ssd_latency_ms(matrix: "PerformanceMatrix", architecture: str, kind: str) -> float:
    """One cold load's SSD latency for an architecture on a pool kind."""
    latencies = matrix.record(architecture, kind).load_latency_ms
    if "ssd" in latencies:
        return float(latencies["ssd"])
    return float(max(latencies.values())) if latencies else 0.0


def _staging_latency_ms(matrix: "PerformanceMatrix", architecture: str, kind: str) -> float:
    """One staged (host-cache / unified) load's latency.

    Falls back across processor kinds: the CPU-side profile often lacks
    a staging entry even though the host cache serves its pool too.
    """
    kinds = (kind, "cpu" if kind == "gpu" else "gpu")
    for candidate in kinds:
        try:
            latencies = matrix.record(architecture, candidate).load_latency_ms
        except KeyError:  # architecture not profiled on this kind
            continue
        for tier in ("cpu", "unified"):
            if tier in latencies:
                return float(latencies[tier])
    return _ssd_latency_ms(matrix, architecture, kind)


def extract_features(context: "EvaluationContext", cell: "SweepCell") -> CellFeatures:
    """Compute a cell's analytical features by probing its built system.

    The cell's serving system is constructed exactly as
    :func:`~repro.sweeps.runner.execute_cell` would construct it (same
    factory, same :meth:`~repro.sweeps.spec.SweepCell.system_overrides`,
    same stream and usage profile from ``context.cell_workload``: a
    halving rung's reduced-fidelity cell is described as the simulation
    the rung actually runs, a sample cell as its sample's replay) and its
    simulation is built — which runs the preload plans — but **no event
    is ever processed**: the probe only reads static structure.  A cell
    ``execute_cell`` would reject raises the same ``ValueError``.
    """
    overrides = cell.system_overrides()
    device = context.device(cell.device)
    _, model = context.board_and_model(cell.task)
    matrix = context.performance_matrix(cell.device, cell.task)
    stream, usage_profile = context.cell_workload(cell)
    system = build_system(
        cell.system, device, model, usage_profile, performance_matrix=matrix, **overrides
    )
    simulation = system.build_simulation()

    # ------------------------------------------------------------------
    # Structure: executors, pools, scheduler.
    # ------------------------------------------------------------------
    executors = simulation.executors
    gpu_count = sum(1 for ex in executors if ex.config.processor_kind.value == "gpu")
    cpu_count = len(executors) - gpu_count
    pools: Dict[str, List] = {}
    for executor in executors:
        kind = executor.config.processor_kind.value
        entry = pools.setdefault(
            executor.pool.name, [kind, set(executor.pool.resident_expert_ids()), 0]
        )
        entry[2] += 1
    policy = simulation.scheduling_policy
    scheduler = type(policy).__name__
    batching = bool(getattr(policy, "enable_batching", False))
    arranging = bool(getattr(policy, "enable_arranging", True))
    assigning = bool(getattr(policy, "enable_assigning", True))
    expert_management = bool(getattr(system, "enable_expert_management", False))
    configured_batch = float(getattr(policy, "_batch_size", 1) or 1)
    scheduling_latency = float(getattr(system, "scheduling_latency_ms", 0.0) or 0.0)
    has_host_cache = simulation.host_cache is not None

    cpu_resident: Set[str] = set()
    gpu_resident: Set[str] = set()
    for kind, resident, _ in pools.values():
        if kind == "cpu":
            cpu_resident |= resident
        else:
            gpu_resident |= resident

    # ------------------------------------------------------------------
    # Stage mix: exact per-expert counts, assigned to processor kinds.
    # Residency-aware assignment (CoServe's request assigning) pins an
    # expert's stages to the kind holding it; residency-blind schedulers
    # (round-robin, or CoServe with assigning ablated) spread every
    # expert's stages across kinds proportionally to executor counts.
    # ------------------------------------------------------------------
    counts = _stage_counts(stream)
    spread = scheduler == "RoundRobinScheduling" or (
        scheduler == "CoServeScheduler" and not assigning
    )
    kind_fraction: Dict[str, float] = {"gpu": 1.0}
    if spread and executors:
        kind_fraction = {}
        if gpu_count:
            kind_fraction["gpu"] = gpu_count / len(executors)
        if cpu_count:
            kind_fraction["cpu"] = cpu_count / len(executors)

    def assigned_fractions(expert_id: str) -> Dict[str, float]:
        if spread:
            return kind_fraction
        if expert_id in cpu_resident and expert_id not in gpu_resident and cpu_count:
            return {"cpu": 1.0}
        return {"gpu": 1.0}

    architecture_of: Dict[str, str] = {
        expert_id: model.expert(expert_id).architecture_name for expert_id in counts
    }
    class_totals: Dict[Tuple[str, str], float] = {}
    for expert_id, stages in counts.items():
        for kind, fraction in assigned_fractions(expert_id).items():
            key = (architecture_of[expert_id], kind)
            class_totals[key] = class_totals.get(key, 0.0) + stages * fraction
    stage_classes: List[StageClass] = []
    for (architecture, kind), stages in sorted(class_totals.items()):
        record = matrix.record(architecture, kind)
        stage_classes.append(
            StageClass(
                architecture=architecture,
                kind=kind,
                stages=stages,
                k_ms=record.k_ms,
                b_ms=record.b_ms,
                max_batch_size=record.max_batch_size,
            )
        )

    # ------------------------------------------------------------------
    # Switching work: expected loads per pool, priced by tier (see the
    # module docstring).  GPU pools price first so cross-kind
    # duplicates land on the cheap staging tier in the same order the
    # simulator observes them.  Under spread assignment a pool only
    # serves an expert if at least one of its stages lands on that
    # kind, so the expected served probability is ``1 − (1 − f)^c`` for
    # an expert with ``c`` stages — this is what keeps a lone CPU
    # executor's pool from being charged the whole reference set.
    # ------------------------------------------------------------------
    referenced = set(counts)
    loads_ssd_f = loads_staged_f = 0.0
    work_ssd = work_staged = 0.0
    # First-load budget: each expert pays SSD latency once, where the
    # first pool to need it loads it; later pools find a staged copy.
    # Pool-resident experts start with half a budget — the preload
    # staged a copy, but staging memory churns under load traffic, so
    # by the expert's scan-order turn the copy survives only about half
    # the time (measured across the registered systems).
    resident_anywhere = gpu_resident | cpu_resident
    first_load_budget: Dict[str, float] = {
        expert_id: 0.5 if expert_id in resident_anywhere else 1.0
        for expert_id in referenced
    }
    ordered_pools = sorted(pools.values(), key=lambda item: 0 if item[0] == "gpu" else 1)
    for kind, resident, sharers in ordered_pools:
        fraction = kind_fraction.get(kind, 0.0) if spread else 1.0

        def served_probability(expert_id: str) -> float:
            if spread:
                return 1.0 - (1.0 - fraction) ** counts[expert_id]
            if kind == "cpu":
                in_cpu = expert_id in cpu_resident and expert_id not in gpu_resident
                return 1.0 if in_cpu else 0.0
            return 0.0 if expert_id in cpu_resident and expert_id not in gpu_resident else 1.0

        for expert_id in sorted(referenced):
            p_served = served_probability(expert_id)
            if p_served <= 0.0:
                continue
            architecture = architecture_of[expert_id]
            if expert_id in resident:
                # Preloaded but possibly evicted before use (churn).
                if sharers > 1:
                    churn = _CHURN_SHARED_CACHED if has_host_cache else _CHURN_SHARED_UNCACHED
                else:
                    churn = _CHURN_SINGLE
                if has_host_cache:
                    loads_staged_f += p_served * churn
                    work_staged += (
                        p_served * churn * _staging_latency_ms(matrix, architecture, kind)
                    )
                else:
                    loads_ssd_f += p_served * churn
                    work_ssd += p_served * churn * _ssd_latency_ms(matrix, architecture, kind)
                continue
            # Cold for this pool: the first pool to load it pays SSD,
            # later pools reload the staged copy.
            first = min(p_served, first_load_budget[expert_id])
            rest = p_served - first
            first_load_budget[expert_id] -= first
            loads_ssd_f += first
            work_ssd += first * _ssd_latency_ms(matrix, architecture, kind)
            if rest > 0.0:
                loads_staged_f += rest
                work_staged += rest * _staging_latency_ms(matrix, architecture, kind)
    loads_ssd = int(round(loads_ssd_f))
    loads_staged = int(round(loads_staged_f))

    return CellFeatures(
        system=cell.system,
        device=cell.device,
        task=cell.task,
        num_requests=len(stream),
        total_stages=stream.total_stage_count,
        arrival_interval_ms=float(stream.arrival_interval_ms),
        executor_count=len(executors),
        gpu_executor_count=gpu_count,
        cpu_executor_count=cpu_count,
        scheduler=scheduler,
        batching_enabled=batching,
        arranging_enabled=arranging,
        assigning_enabled=assigning,
        expert_management_enabled=expert_management,
        configured_batch_size=configured_batch,
        scheduling_latency_ms=scheduling_latency,
        stage_classes=tuple(stage_classes),
        predicted_loads_ssd=loads_ssd,
        predicted_loads_staged=loads_staged,
        switch_work_ssd_ms=work_ssd,
        switch_work_staged_ms=work_staged,
        distinct_experts=len(referenced),
        resident_experts=len(gpu_resident | cpu_resident),
    )
