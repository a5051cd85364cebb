"""The CoE model: expert pool + routing module + dependency graph."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Mapping, Optional, Tuple

from repro.coe.dependency import DependencyGraph
from repro.coe.router import Router
from repro.experts.expert import Expert, ExpertRole


@dataclass
class CoEModel:
    """A complete Collaboration-of-Experts model (Figure 2).

    Parameters
    ----------
    name:
        Model name, e.g. ``"circuit-board-a-inspection"``.
    experts:
        All experts in the model pool, keyed by expert id.
    router:
        The routing module mapping request categories to pipelines.
    dependencies:
        The expert dependency graph.  If omitted it is derived from the
        router's pipelines.
    """

    name: str
    experts: Dict[str, Expert]
    router: Router
    dependencies: Optional[DependencyGraph] = None
    _by_architecture: Dict[str, Tuple[str, ...]] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("model name must be non-empty")
        if not self.experts:
            raise ValueError("a CoE model needs at least one expert")
        for expert_id, expert in self.experts.items():
            if expert.expert_id != expert_id:
                raise ValueError(
                    f"expert registered under '{expert_id}' has id '{expert.expert_id}'"
                )
        missing = [expert_id for expert_id in self.router.expert_ids() if expert_id not in self.experts]
        if missing:
            raise ValueError(f"router references unknown experts: {missing}")
        if self.dependencies is None:
            self.dependencies = DependencyGraph.from_pipelines(
                rule.pipeline for rule in self.router
            )
            for expert_id in self.experts:
                self.dependencies.add_expert(expert_id)
        self._validate_roles()
        by_architecture: Dict[str, list] = {}
        for expert in self.experts.values():
            by_architecture.setdefault(expert.architecture_name, []).append(expert.expert_id)
        self._by_architecture = {
            name: tuple(sorted(ids)) for name, ids in by_architecture.items()
        }

    def _validate_roles(self) -> None:
        """Expert roles must be consistent with the dependency graph."""
        assert self.dependencies is not None
        for expert_id, expert in self.experts.items():
            if expert_id not in self.dependencies:
                continue
            if self.dependencies.is_subsequent(expert_id) and expert.role is not ExpertRole.SUBSEQUENT:
                raise ValueError(
                    f"expert '{expert_id}' has preliminary role but other experts feed into it"
                )

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def expert(self, expert_id: str) -> Expert:
        """Look an expert up by id."""
        try:
            return self.experts[expert_id]
        except KeyError:
            raise KeyError(f"model '{self.name}' has no expert '{expert_id}'") from None

    def __contains__(self, expert_id: str) -> bool:
        return expert_id in self.experts

    def __len__(self) -> int:
        return len(self.experts)

    @property
    def expert_ids(self) -> Tuple[str, ...]:
        return tuple(sorted(self.experts))

    @property
    def preliminary_expert_ids(self) -> Tuple[str, ...]:
        return tuple(
            sorted(e.expert_id for e in self.experts.values() if e.role is ExpertRole.PRELIMINARY)
        )

    @property
    def subsequent_expert_ids(self) -> Tuple[str, ...]:
        return tuple(
            sorted(e.expert_id for e in self.experts.values() if e.role is ExpertRole.SUBSEQUENT)
        )

    @property
    def architectures(self) -> Tuple[str, ...]:
        """Names of architectures used by at least one expert."""
        return tuple(sorted(self._by_architecture))

    def experts_of_architecture(self, architecture_name: str) -> Tuple[str, ...]:
        """Expert ids using a given architecture."""
        return self._by_architecture.get(architecture_name, ())

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    # Cached: every system build asks for these several times, and the
    # expert set never changes after construction.
    @cached_property
    def total_weight_bytes(self) -> int:
        """Memory needed to hold every expert simultaneously (§2.2)."""
        return sum(expert.weight_bytes for expert in self.experts.values())

    @cached_property
    def largest_expert_bytes(self) -> int:
        """Weight bytes of the largest expert: the smallest usable pool."""
        return max(expert.weight_bytes for expert in self.experts.values())

    @property
    def mean_expert_bytes(self) -> float:
        """Mean weight bytes per expert."""
        return self.total_weight_bytes / len(self.experts)

    @property
    def total_parameters(self) -> int:
        """Total parameter count across all experts."""
        return sum(expert.architecture.parameters for expert in self.experts.values())

    def describe(self) -> Mapping[str, float]:
        """Summary statistics used in reports and examples."""
        return {
            "experts": len(self.experts),
            "preliminary_experts": len(self.preliminary_expert_ids),
            "subsequent_experts": len(self.subsequent_expert_ids),
            "categories": len(self.router),
            "total_parameters_billions": self.total_parameters / 1e9,
            "total_weight_gb": self.total_weight_bytes / 1e9,
        }
