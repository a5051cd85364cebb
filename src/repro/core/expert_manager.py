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
the experts (§2.1).  So the policy works out, once per policy and on
first use, each expert's preliminary parents (for a subsequent expert)
and both stages' sort keys; once per eviction it then costs one dict
probe and one ``isdisjoint`` per resident, plus the sort or partial
selection.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, List, Optional, Tuple

from repro.coe.model import CoEModel
from repro.coe.probability import UsageProfile
from repro.policies.base import EvictionContext, EvictionPolicy, select_victims


class _Table(dict):
    """``key -> compute(key)``, each value worked out on first use and kept."""

    def __init__(self, compute: Callable[[str], object]) -> None:
        super().__init__()
        self._compute = compute

    def __missing__(self, key: str) -> object:
        value = self[key] = self._compute(key)
        return value


class DependencyAwareEvictionPolicy(EvictionPolicy):
    """CoServe's two-stage, dependency-aware eviction strategy."""

    def __init__(self, model: CoEModel, usage_profile: UsageProfile) -> None:
        graph = model.dependencies
        assert graph is not None

        def parents(expert_id: str) -> Optional[FrozenSet[str]]:
            # The graph is fixed once the model is built.
            if expert_id in graph and graph.is_subsequent(expert_id):
                return frozenset(graph.preliminary_parents(expert_id))
            return None

        def stage_one_key(expert_id: str) -> Tuple[int, str]:
            # Stage 1: descending memory footprint (Figure 10, stage 1).
            return (-model.expert(expert_id).weight_bytes, expert_id)

        def stage_two_key(expert_id: str) -> Tuple[float, str]:
            # Stage 2: ascending pre-assessed usage probability.
            return (usage_profile.probability(expert_id, default=0.0), expert_id)

        self._parents = _Table(parents)
        self._stage_one_key = _Table(stage_one_key).__getitem__
        self._stage_two_key = _Table(stage_two_key).__getitem__

    def victim_order(self, context: EvictionContext) -> List[str]:
        parents_of = self._parents
        resident = set(context.resident_expert_ids)
        stage_one: List[str] = []
        stage_two: List[str] = []
        for expert_id in context.evictable():
            parents = parents_of[expert_id]
            if parents is not None and parents.isdisjoint(resident):
                stage_one.append(expert_id)
            else:
                stage_two.append(expert_id)

        stage_one_key = self._stage_one_key
        bytes_to_free = context.bytes_to_free
        sizes = context.resident_bytes
        stage_one_bytes = sum(sizes.get(expert_id, 0) for expert_id in stage_one)
        if stage_one_bytes >= bytes_to_free:
            # Orphan subsequents alone free enough memory — stage 2
            # never gets evicted, so skip sorting it entirely.
            return select_victims(stage_one, stage_one_key, bytes_to_free, sizes)
        return sorted(stage_one, key=stage_one_key) + select_victims(
            stage_two, self._stage_two_key, bytes_to_free - stage_one_bytes, sizes
        )
