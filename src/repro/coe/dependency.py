"""Expert dependency graph.

*Expert dependency* is the property of CoE inference that CoServe
exploits (§1, §3): subsequent experts in an inference pipeline rely on
the output of earlier ones, and multiple preliminary experts can share
the same subsequent expert (Figure 2's Expert *i*).

The graph is directed: an edge ``preliminary -> subsequent`` means the
subsequent expert may be invoked on the output of the preliminary
expert.  The dependency-aware expert manager (§4.3) uses it to find
subsequent experts whose preliminary experts are not resident — those
are the stage-1 eviction candidates — and keeps that set current from
each expert's parents and children as experts are loaded and evicted.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import AbstractSet, Dict, Iterable, Iterator, Mapping, Set, Tuple


class DependencyGraph:
    """Directed acyclic graph of preliminary -> subsequent expert dependencies.

    Each expert maps to the set of its direct preliminary parents and to
    the set of its direct subsequent children, the inverse index; both
    maps hold every expert and change only together, in
    :meth:`add_expert` and :meth:`add_dependency`.
    """

    def __init__(self) -> None:
        self._parents: Dict[str, Set[str]] = {}
        self._children: Dict[str, Set[str]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_expert(self, expert_id: str) -> None:
        """Ensure an expert exists as a node (no dependencies yet)."""
        if not expert_id:
            raise ValueError("expert_id must be non-empty")
        self._parents.setdefault(expert_id, set())
        self._children.setdefault(expert_id, set())

    def add_dependency(self, preliminary: str, subsequent: str) -> None:
        """Record that ``subsequent`` may run on the output of ``preliminary``.

        Raises ``ValueError`` (leaving the graph unchanged) for a
        self-dependency or for an edge that would close a cycle, i.e.
        when ``subsequent`` is already an ancestor of ``preliminary``.
        """
        if preliminary == subsequent:
            raise ValueError(f"expert '{preliminary}' cannot depend on itself")
        if subsequent in self._ancestors(preliminary):
            raise ValueError(
                f"adding dependency {preliminary} -> {subsequent} would create a cycle"
            )
        self._parents.setdefault(preliminary, set())
        self._parents.setdefault(subsequent, set()).add(preliminary)
        self._children.setdefault(subsequent, set())
        self._children.setdefault(preliminary, set()).add(subsequent)

    @classmethod
    def from_pipelines(cls, pipelines: Iterable[Tuple[str, ...]]) -> "DependencyGraph":
        """Build a graph from routing pipelines (consecutive stages depend)."""
        graph = cls()
        for pipeline in pipelines:
            previous = None
            for expert_id in pipeline:
                graph.add_expert(expert_id)
                if previous is not None:
                    graph.add_dependency(previous, expert_id)
                previous = expert_id
        return graph

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def expert_ids(self) -> Tuple[str, ...]:
        return tuple(sorted(self._parents))

    def __contains__(self, expert_id: str) -> bool:
        return expert_id in self._parents

    def __len__(self) -> int:
        return len(self._parents)

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._parents))

    def preliminary_parents(self, expert_id: str) -> Tuple[str, ...]:
        """Experts whose output ``expert_id`` depends on (direct predecessors)."""
        return tuple(sorted(self._require(expert_id)))

    def is_subsequent(self, expert_id: str) -> bool:
        """Whether the expert depends on at least one preliminary expert."""
        return bool(self._require(expert_id))

    @property
    def parents_by_expert(self) -> Mapping[str, AbstractSet[str]]:
        """Read-only view: expert -> its direct preliminary parents."""
        return MappingProxyType(self._parents)

    @property
    def children_by_expert(self) -> Mapping[str, AbstractSet[str]]:
        """Read-only view: expert -> its direct subsequent children.

        The exact inverse of :attr:`parents_by_expert`.  Stage 1 of the
        dependency-aware eviction strategy (Figure 10) holds the
        subsequent experts none of whose preliminary parents are
        resident; loading or evicting an expert changes that only for
        its children.
        """
        return MappingProxyType(self._children)

    def _ancestors(self, expert_id: str) -> Set[str]:
        """Every expert ``expert_id`` transitively depends on."""
        seen: Set[str] = set()
        frontier = list(self._parents.get(expert_id, ()))
        while frontier:
            parent = frontier.pop()
            if parent not in seen:
                seen.add(parent)
                frontier.extend(self._parents[parent])
        return seen

    def _require(self, expert_id: str) -> Set[str]:
        try:
            return self._parents[expert_id]
        except KeyError:
            raise KeyError(f"expert '{expert_id}' is not in the dependency graph") from None
