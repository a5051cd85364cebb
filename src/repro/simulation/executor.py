"""Inference executors.

An inference executor (Figure 7) is a worker bound to one processor of
the device.  It owns a request queue, a model pool of configurable
capacity for expert weights, and a budget of memory reserved for batch
intermediate results.  The split between the two budgets is exactly the
memory-allocation trade-off §4.4 studies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.hardware.processor import ProcessorKind
from repro.simulation.model_pool import ModelPool
from repro.simulation.queueing import RequestQueue


@dataclass(frozen=True)
class ExecutorConfig:
    """Static configuration of one inference executor.

    Parameters
    ----------
    name:
        Executor name, e.g. ``"gpu-0"``.
    processor_kind:
        Which processor the executor runs on.
    expert_pool_bytes:
        Memory reserved for resident expert weights (the model pool).
    activation_budget_bytes:
        Memory reserved for batch intermediate results; together with
        the profiler's maximum batch size it bounds the executable
        batch size (§4.2 "request splitting").
    """

    name: str
    processor_kind: ProcessorKind
    expert_pool_bytes: int
    activation_budget_bytes: int

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("executor name must be non-empty")
        if self.expert_pool_bytes < 0:
            raise ValueError("expert_pool_bytes must be non-negative")
        if self.activation_budget_bytes < 0:
            raise ValueError("activation_budget_bytes must be non-negative")

    @property
    def total_bytes(self) -> int:
        return self.expert_pool_bytes + self.activation_budget_bytes


@dataclass
class ExecutorStats:
    """Counters accumulated by one executor during a run."""

    batches_executed: int = 0
    stages_executed: int = 0
    execution_busy_ms: float = 0.0
    load_busy_ms: float = 0.0
    expert_loads: int = 0
    expert_switches: int = 0
    loads_from_ssd: int = 0
    loads_from_cache: int = 0


class Executor:
    """Runtime state of one inference executor.

    Parameters
    ----------
    config:
        Static executor configuration.
    pool:
        The model pool this executor loads experts into.  Executors
        bound to the same physical processor normally share one pool
        (they share the same physical memory); when omitted a private
        pool sized from the config is created.
    """

    def __init__(self, config: ExecutorConfig, pool: Optional[ModelPool] = None) -> None:
        self.config = config
        #: Mirrored from the config as plain attributes: name/kind
        #: lookups sit on the engine's per-event hot path.
        self.name: str = config.name
        self.kind: ProcessorKind = config.processor_kind
        self.activation_budget_bytes: int = config.activation_budget_bytes
        self.pool = pool if pool is not None else ModelPool(
            name=f"{config.name}.pool", capacity_bytes=config.expert_pool_bytes
        )
        self.queue = RequestQueue(name=f"{config.name}.queue")
        self.idle: bool = True
        self.busy_until_ms: float = 0.0
        #: Expert currently loaded-for / being executed by this executor;
        #: protected from eviction by executors sharing the pool.
        self.current_expert_id: Optional[str] = None
        self.stats = ExecutorStats()

    def estimated_finish_ms(self, now_ms: float) -> float:
        """Predicted completion time of all currently queued work.

        This is the per-queue "total inference time" of Figure 8: the
        time the executor becomes free plus the predicted latency of the
        jobs still waiting in its queue.
        """
        return max(now_ms, self.busy_until_ms) + self.queue.pending_latency_ms

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Executor(name={self.name!r}, kind={self.kind.value}, "
            f"queued={len(self.queue)}, resident={self.pool.resident_count})"
        )
