"""Tests for expert initialisation (§4.1)."""

import random

import pytest

from repro.core.initializer import host_cache_preload_plan, round_robin_preload_plan
from repro.hardware.processor import ProcessorKind
from repro.hardware.units import GB
from repro.simulation.executor import ExecutorConfig


def configs(count=2, pool_gb=2.0):
    return [
        ExecutorConfig(f"gpu-{index}", ProcessorKind.GPU, int(pool_gb * GB), 1 * GB)
        for index in range(count)
    ]


def _probing_plan(executor_configs, model, usage_profile):
    """The round-robin rule spelled out: probe every executor for every expert."""
    plan = {config.name: [] for config in executor_configs}
    remaining = {config.name: config.expert_pool_bytes for config in executor_configs}
    names = [config.name for config in executor_configs]
    cursor = 0
    for expert_id in usage_profile.sorted_expert_ids():
        weight = model.expert(expert_id).weight_bytes
        for attempt in range(len(names)):
            name = names[(cursor + attempt) % len(names)]
            if remaining[name] >= weight:
                plan[name].append(expert_id)
                remaining[name] -= weight
                cursor = (cursor + attempt + 1) % len(names)
                break
    return plan


class TestRoundRobinPreload:
    def test_highest_probability_experts_planned_first(self, small_model, small_usage):
        plan = round_robin_preload_plan(configs(), small_model, small_usage)
        planned = [expert for experts in plan.values() for expert in experts]
        top = small_usage.sorted_expert_ids()[0]
        assert top in planned

    def test_round_robin_alternates_executors(self, small_model, small_usage):
        plan = round_robin_preload_plan(configs(), small_model, small_usage)
        ordered = small_usage.sorted_expert_ids()
        # The two most probable experts land on different executors.
        first_home = next(name for name, experts in plan.items() if ordered[0] in experts)
        second_home = next(name for name, experts in plan.items() if ordered[1] in experts)
        assert first_home != second_home

    def test_no_expert_planned_twice(self, small_model, small_usage):
        plan = round_robin_preload_plan(configs(3), small_model, small_usage)
        planned = [expert for experts in plan.values() for expert in experts]
        assert len(planned) == len(set(planned))

    def test_plan_respects_pool_budgets(self, small_model, small_usage):
        plan = round_robin_preload_plan(configs(pool_gb=1.0), small_model, small_usage)
        for config in configs(pool_gb=1.0):
            planned_bytes = sum(
                small_model.expert(expert_id).weight_bytes for expert_id in plan[config.name]
            )
            assert planned_bytes <= config.expert_pool_bytes

    def test_zero_capacity_executor_receives_nothing(self, small_model, small_usage):
        zero = ExecutorConfig("cpu-0", ProcessorKind.CPU, 0, 1 * GB)
        plan = round_robin_preload_plan([zero], small_model, small_usage)
        assert plan["cpu-0"] == []

    def test_empty_executor_list_rejected(self, small_model, small_usage):
        with pytest.raises(ValueError):
            round_robin_preload_plan([], small_model, small_usage)

    @pytest.mark.parametrize("seed", range(8))
    def test_plan_matches_probing_every_executor(self, small_model, small_usage, seed):
        """Skipping experts larger than the largest free space changes
        nothing: random executor mixes, including empty and tiny pools."""
        rng = random.Random(seed)
        executor_configs = [
            ExecutorConfig(
                f"executor-{index}",
                rng.choice([ProcessorKind.GPU, ProcessorKind.CPU]),
                int(rng.choice([0.0, 0.3, rng.uniform(0.0, 4.0)]) * GB),
                1 * GB,
            )
            for index in range(rng.randint(1, 5))
        ]
        assert round_robin_preload_plan(
            executor_configs, small_model, small_usage
        ) == _probing_plan(executor_configs, small_model, small_usage)


class TestHostCachePreload:
    def test_excluded_experts_skipped(self, small_model, small_usage):
        ordered = small_usage.sorted_expert_ids()
        plan = host_cache_preload_plan(4 * GB, small_model, small_usage, exclude=ordered[:2])
        assert ordered[0] not in plan
        assert ordered[1] not in plan
        assert len(plan) > 0

    def test_plan_respects_capacity(self, small_model, small_usage):
        capacity = 1 * GB
        plan = host_cache_preload_plan(capacity, small_model, small_usage)
        total = sum(small_model.expert(expert_id).weight_bytes for expert_id in plan)
        assert total <= capacity

    def test_zero_capacity_gives_empty_plan(self, small_model, small_usage):
        assert host_cache_preload_plan(0, small_model, small_usage) == []

    def test_negative_capacity_rejected(self, small_model, small_usage):
        with pytest.raises(ValueError):
            host_cache_preload_plan(-1, small_model, small_usage)
