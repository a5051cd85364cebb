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
the experts (§2.1).
"""

from __future__ import annotations

from typing import List, Set

from repro.coe.model import CoEModel
from repro.coe.probability import UsageProfile
from repro.policies.base import EvictionContext, EvictionPolicy, select_victims


class DependencyAwareEvictionPolicy(EvictionPolicy):
    """CoServe's two-stage, dependency-aware eviction strategy."""

    name = "dependency-aware"

    def __init__(self, model: CoEModel, usage_profile: UsageProfile) -> None:
        self._model = model
        self._usage = usage_profile

    def _memory_footprint(self, expert_id: str) -> int:
        return self._model.expert(expert_id).weight_bytes

    def _usage_probability(self, expert_id: str) -> float:
        return self._usage.probability(expert_id, default=0.0)

    def victim_order(self, context: EvictionContext) -> List[str]:
        graph = self._model.dependencies
        assert graph is not None
        evictable = list(context.evictable())
        resident: Set[str] = set(context.resident_expert_ids)

        stage_one: List[str] = []
        stage_two: List[str] = []
        for expert_id in evictable:
            is_orphan_subsequent = (
                expert_id in graph
                and graph.is_subsequent(expert_id)
                and not graph.has_loaded_preliminary(expert_id, resident)
            )
            if is_orphan_subsequent:
                stage_one.append(expert_id)
            else:
                stage_two.append(expert_id)

        # Stage 1: descending memory footprint (Figure 10, stage 1).
        def stage_one_key(expert_id: str):
            return (-self._memory_footprint(expert_id), expert_id)

        # Stage 2: ascending pre-assessed usage probability.
        def stage_two_key(expert_id: str):
            return (self._usage_probability(expert_id), expert_id)

        bytes_to_free = context.bytes_to_free
        sizes = context.resident_bytes
        if bytes_to_free is not None and sizes is not None:
            stage_one_bytes = sum(sizes.get(expert_id, 0) for expert_id in stage_one)
            if stage_one_bytes >= bytes_to_free:
                # Orphan subsequents alone free enough memory — stage 2
                # never gets evicted, so skip sorting it entirely.
                return select_victims(stage_one, stage_one_key, bytes_to_free, sizes)
            return sorted(stage_one, key=stage_one_key) + select_victims(
                stage_two, stage_two_key, bytes_to_free - stage_one_bytes, sizes
            )
        return sorted(stage_one, key=stage_one_key) + sorted(stage_two, key=stage_two_key)
