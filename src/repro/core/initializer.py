"""Expert initialisation (§4.1).

After the executor creator has built the inference executors, the
expert initialiser loads experts into the model pools: experts are
distributed to executors in a round-robin manner, prioritised by
descending usage probability, until the memory is fully utilised.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set

from repro.coe.model import CoEModel
from repro.coe.probability import UsageProfile
from repro.simulation.executor import ExecutorConfig


def round_robin_preload_plan(
    executor_configs: Sequence[ExecutorConfig],
    model: CoEModel,
    usage_profile: UsageProfile,
) -> Dict[str, List[str]]:
    """Distribute experts round-robin by descending usage probability.

    Each executor receives experts until its expert-pool budget cannot
    hold the next one; experts that fit nowhere are skipped (they stay
    on the SSD until demanded).
    """
    if not executor_configs:
        raise ValueError("at least one executor configuration is required")
    plan: Dict[str, List[str]] = {config.name: [] for config in executor_configs}
    remaining: Dict[str, int] = {config.name: config.expert_pool_bytes for config in executor_configs}
    names = [config.name for config in executor_configs]

    count = len(names)
    largest_space = max(remaining.values())
    cursor = 0
    for expert_id in usage_profile.sorted_expert_ids(descending=True):
        if expert_id not in model:
            continue
        weight = model.expert(expert_id).weight_bytes
        if weight > largest_space:
            # No executor can take this expert; smaller experts further
            # down the probability order may still fit, so keep going.
            continue
        for attempt in range(count):
            name = names[(cursor + attempt) % count]
            if remaining[name] >= weight:
                plan[name].append(expert_id)
                remaining[name] -= weight
                largest_space = max(remaining.values())
                cursor = (cursor + attempt + 1) % count
                break
    return plan


def host_cache_preload_plan(
    capacity_bytes: int,
    model: CoEModel,
    usage_profile: UsageProfile,
    exclude: Iterable[str] = (),
) -> List[str]:
    """Experts to stage in CPU memory, by descending usage probability.

    Used on NUMA devices to pre-populate the DDR tier with the
    most-probable experts that did not fit in any executor pool, so
    that their first use crosses PCIe instead of the SSD.
    """
    if capacity_bytes < 0:
        raise ValueError("capacity_bytes must be non-negative")
    excluded: Set[str] = set(exclude)
    plan: List[str] = []
    remaining = capacity_bytes
    for expert_id in usage_profile.sorted_expert_ids(descending=True):
        if expert_id in excluded or expert_id not in model:
            continue
        weight = model.expert(expert_id).weight_bytes
        if weight <= remaining:
            plan.append(expert_id)
            remaining -= weight
    return plan
