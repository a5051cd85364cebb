"""Dependency-aware expert management (§4.3).

When an expert must be loaded and the model pool is full, CoServe
evicts residents in two stages (Figure 10):

1. **Stage 1** — evict *subsequent* experts none of whose preliminary
   experts are currently resident.  Such experts cannot run until their
   preliminary experts are loaded first, so keeping them resident is
   wasted memory.  Candidates are evicted in descending order of memory
   footprint, which minimises the number of evictions needed.
2. **Stage 2** — if stage 1 does not free enough memory, remaining
   residents are evicted in ascending order of their pre-assessed usage
   probability, keeping the experts most likely to be needed again.

Unlike LRU/FIFO this never consults runtime history; everything it
needs (the dependency graph and the usage probabilities) is known
before serving starts because the CoE routing module is independent of
the experts (§2.1).  What changes during serving is which experts a
pool holds, and a load or eviction moves only the expert itself and
its subsequent children between the stages.  So the policy listens to
the model pools (``ServingSimulation`` subscribes it to each) and
keeps, per pool, each subsequent expert's count of resident
preliminary parents and both stages in victim order, updated in
:meth:`~DependencyAwareEvictionPolicy.on_pool_load` and
:meth:`~DependencyAwareEvictionPolicy.on_pool_evict` with sorted-list
insertions and removals for just the experts that move; which experts
a pool holds it reads from the pool itself.  An eviction then walks
stage 1 and stage 2 from the front and stops once the victims cover
the bytes needed, touching only those victims and the protected or
incoming experts it skips.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import TYPE_CHECKING, Dict, List, Mapping, Tuple

from repro.coe.model import CoEModel
from repro.coe.probability import UsageProfile
from repro.policies.base import EvictionContext, EvictionPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.model_pool import ModelPool


class _PoolStages:
    """One pool's residents as Figure 10's two stages, in victim order."""

    __slots__ = ("resident", "resident_parents", "orphans", "ranked")

    def __init__(self, resident: Mapping[str, int]) -> None:
        #: The pool's live ``resident_sizes()`` view.
        self.resident = resident
        #: Subsequent expert -> how many of its preliminary parents are
        #: resident (experts with none are absent).
        self.resident_parents: Dict[str, int] = {}
        #: Stage 1: resident subsequent experts with no resident
        #: preliminary parent, as ascending ``(-weight bytes, id)``.
        self.orphans: List[Tuple[int, str]] = []
        #: Stage 2: every other resident, as ascending
        #: ``(usage probability, id)``.
        self.ranked: List[Tuple[float, str]] = []


def _remove(keys: list, key: tuple) -> None:
    del keys[bisect_left(keys, key)]


class DependencyAwareEvictionPolicy(EvictionPolicy):
    """CoServe's two-stage, dependency-aware eviction strategy.

    The victim order follows the residency the pools reported through
    :meth:`on_pool_load` and :meth:`on_pool_evict`; the context
    supplies the incoming and protected experts, the bytes to free and
    the resident sizes.
    """

    def __init__(self, model: CoEModel, usage_profile: UsageProfile) -> None:
        graph = model.dependencies
        assert graph is not None
        # Model-level indexes, shared by every policy over the model.
        self._parents = graph.parents_by_expert
        self._children = graph.children_by_expert
        self._experts = model.experts
        self._probabilities = usage_profile.probabilities
        self._pools: Dict[str, _PoolStages] = {}

    def _orphan_key(self, expert_id: str) -> Tuple[int, str]:
        # Stage 1: descending memory footprint (Figure 10, stage 1).
        return (-self._experts[expert_id].weight_bytes, expert_id)

    def _ranked_key(self, expert_id: str) -> Tuple[float, str]:
        # Stage 2: ascending pre-assessed usage probability.
        return (self._probabilities.get(expert_id, 0.0), expert_id)

    def _is_orphan(self, stages: _PoolStages, expert_id: str) -> bool:
        return bool(self._parents.get(expert_id)) and expert_id not in stages.resident_parents

    def on_pool_load(self, pool: "ModelPool", expert_id: str) -> None:
        stages = self._pools.get(pool.name)
        if stages is None:
            stages = self._pools[pool.name] = _PoolStages(pool.resident_sizes())
        resident = stages.resident
        counts = stages.resident_parents
        for child in self._children.get(expert_id, ()):
            count = counts.get(child, 0)
            counts[child] = count + 1
            if not count and child in resident:
                # Its first resident parent: the child leaves stage 1.
                _remove(stages.orphans, self._orphan_key(child))
                insort(stages.ranked, self._ranked_key(child))
        if self._is_orphan(stages, expert_id):
            insort(stages.orphans, self._orphan_key(expert_id))
        else:
            insort(stages.ranked, self._ranked_key(expert_id))

    def on_pool_evict(self, pool: "ModelPool", expert_id: str) -> None:
        stages = self._pools[pool.name]
        if self._is_orphan(stages, expert_id):
            _remove(stages.orphans, self._orphan_key(expert_id))
        else:
            _remove(stages.ranked, self._ranked_key(expert_id))
        resident = stages.resident
        counts = stages.resident_parents
        for child in self._children.get(expert_id, ()):
            count = counts[child] - 1
            if count:
                counts[child] = count
                continue
            del counts[child]
            if child in resident:
                # Its last resident parent left: the child joins stage 1.
                _remove(stages.ranked, self._ranked_key(child))
                insort(stages.orphans, self._orphan_key(child))

    def victim_order(self, context: EvictionContext) -> List[str]:
        """Stage 1, then stage 2, cut once the victims cover the bytes.

        Equal to sorting the evictable residents by stage and key and
        truncating that order at ``context.bytes_to_free``; when every
        evictable resident together falls short, all are returned.
        """
        bytes_to_free = context.bytes_to_free
        stages = self._pools.get(context.pool_name)
        if bytes_to_free <= 0 or stages is None:
            return []
        incoming = context.incoming_expert_id
        protected = context.protected_expert_ids
        sizes = context.resident_bytes
        victims: List[str] = []
        covered = 0
        for stage in (stages.orphans, stages.ranked):
            for _, expert_id in stage:
                if expert_id == incoming or expert_id in protected:
                    continue
                victims.append(expert_id)
                covered += sizes.get(expert_id, 0)
                if covered >= bytes_to_free:
                    return victims
        return victims
