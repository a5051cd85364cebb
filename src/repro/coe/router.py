"""The CoE routing module.

The router maps a request *category* (in the circuit-board application,
the component type of the image; in an LLM CoE, the domain of the
prompt) to an inference pipeline: a preliminary expert followed by zero
or more subsequent experts.  Later pipeline stages may be conditional —
for example the object-detection expert only runs when the
classification expert found no defect — which the rule expresses as a
continuation probability.

The router is *independent of the experts* (§2.1): it can be queried
offline, which is what lets CoServe pre-compute expert dependencies and
usage probabilities instead of relying on runtime statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class RoutingRule:
    """Routing decision for one request category.

    Parameters
    ----------
    category:
        The request category this rule applies to.
    pipeline:
        Expert ids in execution order; the first entry is the
        preliminary expert.
    continuation_probabilities:
        For each stage after the first, the probability that the stage
        executes given the previous stage executed.  Defaults to 1.0
        for every stage (unconditional pipeline).
    """

    category: str
    pipeline: Tuple[str, ...]
    continuation_probabilities: Tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.category:
            raise ValueError("category must be non-empty")
        if not self.pipeline:
            raise ValueError("pipeline must contain at least one expert")
        if len(set(self.pipeline)) != len(self.pipeline):
            raise ValueError(f"pipeline for '{self.category}' contains duplicate experts")
        probabilities = self.continuation_probabilities
        if not probabilities:
            probabilities = tuple(1.0 for _ in self.pipeline[1:])
            object.__setattr__(self, "continuation_probabilities", probabilities)
        if len(probabilities) != len(self.pipeline) - 1:
            raise ValueError(
                "continuation_probabilities must have one entry per stage after the first "
                f"({len(self.pipeline) - 1}), got {len(probabilities)}"
            )
        for probability in probabilities:
            if not 0.0 <= probability <= 1.0:
                raise ValueError(f"continuation probability {probability} outside [0, 1]")

    @property
    def subsequent_experts(self) -> Tuple[str, ...]:
        """Experts that may run after the preliminary expert."""
        return self.pipeline[1:]

    def stage_reach_probabilities(self) -> Tuple[float, ...]:
        """Probability that each pipeline stage is reached.

        The first stage is always reached; stage ``i`` is reached with
        the product of the continuation probabilities up to ``i``.
        """
        reach: List[float] = [1.0]
        for probability in self.continuation_probabilities:
            reach.append(reach[-1] * probability)
        return tuple(reach)


class Router:
    """Rule-based CoE routing module.

    The router is deliberately simple: a lookup from category to
    :class:`RoutingRule`.  Trained routers can be represented the same
    way by enumerating their decision table on a sample dataset (§4.5
    describes exactly this procedure for obtaining usage probabilities
    when the routing rules are "ambiguous").
    """

    def __init__(self, rules: Iterable[RoutingRule] = ()) -> None:
        self._rules: Dict[str, RoutingRule] = {}
        for rule in rules:
            self.add_rule(rule)

    def add_rule(self, rule: RoutingRule) -> None:
        """Register a routing rule; categories must be unique."""
        if rule.category in self._rules:
            raise ValueError(f"a rule for category '{rule.category}' already exists")
        self._rules[rule.category] = rule

    def rule(self, category: str) -> RoutingRule:
        """The rule for a category."""
        try:
            return self._rules[category]
        except KeyError:
            raise KeyError(f"no routing rule for category '{category}'") from None

    @property
    def categories(self) -> Tuple[str, ...]:
        """All categories the router knows about, sorted."""
        return tuple(sorted(self._rules))

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self) -> Iterator[RoutingRule]:
        return iter(self._rules.values())

    def __contains__(self, category: str) -> bool:
        return category in self._rules

    def expert_ids(self) -> Tuple[str, ...]:
        """All expert ids referenced by any rule, sorted."""
        experts = {expert for rule in self._rules.values() for expert in rule.pipeline}
        return tuple(sorted(experts))

    def resolve(
        self, category: str, rng: Optional[np.random.Generator] = None
    ) -> Tuple[str, ...]:
        """Sample the pipeline a concrete request actually traverses.

        Conditional stages are included according to their continuation
        probabilities; once a stage is skipped, all later stages are
        skipped too (the pipeline is sequential).
        """
        # Inlined against the rule's stored tuples (no property slices):
        # this runs once per generated request, i.e. a million times per
        # long-shift workload.
        try:
            rule = self._rules[category]
        except KeyError:
            rule = self.rule(category)  # raises the documented error
        pipeline = rule.pipeline
        if rng is None or len(pipeline) == 1:
            # Single-stage pipelines (the majority of categories) have
            # nothing to sample: return the rule's own tuple instead of
            # rebuilding an identical one per request.  No RNG draw is
            # skipped — the loop below would consume none either.
            return pipeline
        resolved: List[str] = [pipeline[0]]
        for index, probability in enumerate(rule.continuation_probabilities):
            if probability < 1.0 and rng.random() >= probability:
                break
            resolved.append(pipeline[index + 1])
        return tuple(resolved)
