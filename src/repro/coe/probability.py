"""Pre-assessed expert usage probabilities.

Because the CoE routing module is independent of the experts, the usage
probability of every expert can be computed *before* serving starts
(§2.1, §3.2, §4.5):

* when the routing rules are predefined (as in circuit-board
  inspection), the probability follows directly from the category
  distribution of the deployment — e.g. the known quantity of each
  component type on a board;
* when the routing rules are ambiguous (a trained router), the same
  numbers are obtained by running the router on a small sample dataset.

The :class:`UsageProfile` produced here drives expert initialisation
(§4.1), stage-2 eviction ordering (§4.3) and the CDF-based memory
allocation search (§4.4, Figure 11).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from repro.coe.model import CoEModel


@dataclass(frozen=True)
class UsageProfile:
    """Per-expert usage probabilities for one deployment scenario.

    Probabilities express the chance that a random incoming request
    uses the expert at some stage of its pipeline; because one request
    can use several experts the values do not need to sum to one.
    """

    probabilities: Mapping[str, float]

    def __post_init__(self) -> None:
        if not self.probabilities:
            raise ValueError("usage profile must contain at least one expert")
        for expert_id, probability in self.probabilities.items():
            if not 0.0 <= probability <= 1.0:
                raise ValueError(
                    f"usage probability of '{expert_id}' is {probability}, outside [0, 1]"
                )

    def probability(self, expert_id: str, default: float = 0.0) -> float:
        """Usage probability of an expert (``default`` if unknown)."""
        return self.probabilities.get(expert_id, default)

    def __contains__(self, expert_id: str) -> bool:
        return expert_id in self.probabilities

    def __len__(self) -> int:
        return len(self.probabilities)

    def sorted_expert_ids(self, descending: bool = True) -> Tuple[str, ...]:
        """Expert ids sorted by usage probability (ties broken by id)."""
        if descending:
            return self._descending_expert_ids
        return tuple(
            sorted(
                self.probabilities,
                key=lambda expert_id: (self.probabilities[expert_id], expert_id),
            )
        )

    @cached_property
    def _descending_expert_ids(self) -> Tuple[str, ...]:
        # Sorted once per profile: every system build walks this order
        # twice (the pool and host-cache preload plans).
        return tuple(
            sorted(
                self.probabilities,
                key=lambda expert_id: (-self.probabilities[expert_id], expert_id),
            )
        )

    def cdf(self) -> np.ndarray:
        """Cumulative usage share by descending probability (Figure 11).

        Entry ``i`` is the fraction of total expert usage covered by the
        ``i + 1`` most frequently used experts.
        """
        ordered = self.sorted_expert_ids(descending=True)
        values = np.array([self.probabilities[expert_id] for expert_id in ordered], dtype=float)
        total = values.sum()
        if total == 0:
            return np.zeros(len(values))
        return np.cumsum(values) / total

    def coverage(self, top_n: int) -> float:
        """Usage share covered by the ``top_n`` most probable experts."""
        if top_n <= 0:
            return 0.0
        cdf = self.cdf()
        return float(cdf[min(top_n, len(cdf)) - 1])



def compute_usage_profile(
    model: CoEModel,
    category_weights: Mapping[str, float],
) -> UsageProfile:
    """Compute usage probabilities from routing rules and a category mix.

    Parameters
    ----------
    model:
        The CoE model whose router defines the pipelines.
    category_weights:
        Relative frequency of each request category (e.g. component
        quantities on the circuit board).  Weights are normalised; they
        do not need to sum to one.

    Returns
    -------
    UsageProfile
        Probability that a random request uses each expert, marginalised
        over the category mix and the pipeline continuation
        probabilities.
    """
    if not category_weights:
        raise ValueError("category_weights must not be empty")
    total_weight = float(sum(category_weights.values()))
    if total_weight <= 0:
        raise ValueError("category weights must sum to a positive value")

    probabilities: Dict[str, float] = {expert_id: 0.0 for expert_id in model.expert_ids}
    for category, weight in category_weights.items():
        if weight < 0:
            raise ValueError(f"category '{category}' has negative weight {weight}")
        if weight == 0:
            continue
        rule = model.router.rule(category)
        category_probability = weight / total_weight
        for expert_id, reach in zip(rule.pipeline, rule.stage_reach_probabilities()):
            probabilities[expert_id] += category_probability * reach

    # Guard against floating point accumulation pushing values above 1.
    probabilities = {eid: min(1.0, p) for eid, p in probabilities.items()}
    return UsageProfile(probabilities)


def empirical_usage_profile(
    model: CoEModel,
    observed_pipelines: Sequence[Sequence[str]],
) -> UsageProfile:
    """Estimate usage probabilities from observed (sampled) pipelines.

    This is the §4.5 fallback for ambiguous routing rules: run the CoE
    routing on a small real-world sample and record which experts each
    request visited.
    """
    if not observed_pipelines:
        raise ValueError("observed_pipelines must not be empty")
    counts: Dict[str, int] = {expert_id: 0 for expert_id in model.expert_ids}
    for pipeline in observed_pipelines:
        for expert_id in set(pipeline):
            if expert_id not in counts:
                raise KeyError(f"observed pipeline references unknown expert '{expert_id}'")
            counts[expert_id] += 1
    total = len(observed_pipelines)
    return UsageProfile({expert_id: count / total for expert_id, count in counts.items()})
