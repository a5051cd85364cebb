"""Tests for the serving memory layout every system deploys through."""

import itertools

import pytest

from repro.hardware.processor import ProcessorKind
from repro.hardware.units import GB, MB
from repro.policies.lru import LRUPolicy
from repro.scheduling.round_robin import RoundRobinScheduling
from repro.serving import CoServeSystem, build_system
from repro.serving.layout import (
    CPU_EXECUTOR_BUDGET_FRACTION,
    NUMA_CPU_USABLE_FRACTION,
    NUMA_GPU_USABLE_FRACTION,
    UMA_GPU_SHARE,
    UMA_USABLE_FRACTION,
    clamp_expert_pool,
    deployment_layout,
    limited_compute_pool,
    usable_device_budget,
    whole_budget,
)
from repro.simulation.engine import ServingSimulation


class TestUsableBudget:
    def test_numa_budgets(self, numa_device):
        budget = usable_device_budget(numa_device, cpu_executors=1)
        assert budget.gpu_bytes == int(12 * GB * NUMA_GPU_USABLE_FRACTION)
        assert budget.cpu_bytes == int(16 * GB * NUMA_CPU_USABLE_FRACTION)

    def test_numa_budget_independent_of_cpu_executor_count(self, numa_device):
        assert usable_device_budget(numa_device, 0) == usable_device_budget(numa_device, 2)

    def test_uma_split_with_cpu_executors(self, uma_device):
        budget = usable_device_budget(uma_device, cpu_executors=1)
        usable = int(24 * GB * UMA_USABLE_FRACTION)
        assert budget.gpu_bytes == int(usable * UMA_GPU_SHARE)
        assert budget.gpu_bytes + budget.cpu_bytes == usable

    def test_uma_all_to_gpu_without_cpu_executors(self, uma_device):
        budget = usable_device_budget(uma_device, cpu_executors=0)
        assert budget.cpu_bytes == 0
        assert budget.gpu_bytes == int(24 * GB * UMA_USABLE_FRACTION)

    def test_negative_cpu_executor_count_rejected(self, numa_device):
        with pytest.raises(ValueError):
            usable_device_budget(numa_device, -1)


class TestClampExpertPool:
    def test_within_bounds_unchanged(self):
        pool, activation = clamp_expert_pool(2 * GB, 4 * GB, 200 * MB, 300 * MB)
        assert pool == 2 * GB
        assert activation == 2 * GB

    def test_pool_raised_to_largest_expert(self):
        pool, activation = clamp_expert_pool(50 * MB, 4 * GB, 200 * MB, 300 * MB)
        assert pool == 200 * MB

    def test_pool_lowered_to_leave_activation_memory(self):
        pool, activation = clamp_expert_pool(4 * GB, 4 * GB, 200 * MB, 300 * MB)
        assert activation == 300 * MB
        assert pool == 4 * GB - 300 * MB

    def test_infeasible_budget_rejected(self):
        with pytest.raises(ValueError):
            clamp_expert_pool(100 * MB, 400 * MB, 300 * MB, 200 * MB)


def _pool_rules(device, model, matrix, gpu_executors, cpu_executors):
    """The (GPU, CPU) pool requests the paper's systems ask with."""

    def coserve(**memory):
        system = CoServeSystem(
            device,
            model,
            gpu_executors=gpu_executors,
            cpu_executors=cpu_executors,
            performance_matrix=matrix,
            **memory,
        )
        return system._gpu_pool, limited_compute_pool

    return {
        "samba-whole-budget": (whole_budget, whole_budget),
        "coserve-expert-count": coserve(gpu_expert_count=40),
        "coserve-fraction": coserve(gpu_expert_fraction=0.75),
    }


class TestDeploymentLayout:
    @pytest.mark.parametrize("device_name", ["numa", "uma"])
    def test_every_layout_splits_each_budget_feasibly(self, device_name, request, small_model):
        device = request.getfixturevalue(f"{device_name}_device")
        matrix = request.getfixturevalue(f"{device_name}_matrix")
        activation = {
            kind: max(
                matrix.record(architecture, kind).activation_bytes_per_sample
                for architecture in matrix.architectures
            )
            for kind in ProcessorKind
        }
        for gpus, cpus in itertools.product(range(1, 5), range(3)):
            budget = usable_device_budget(device, cpus)
            cpu_side = budget.cpu_bytes
            if not device.is_uma:
                cpu_side = int(cpu_side * CPU_EXECUTOR_BUDGET_FRACTION)
            per_executor = {ProcessorKind.GPU: budget.gpu_bytes // gpus}
            if cpus:
                per_executor[ProcessorKind.CPU] = cpu_side // cpus
            rules = _pool_rules(device, small_model, matrix, gpus, cpus)
            for rule, (gpu_pool, cpu_pool) in rules.items():
                layout = deployment_layout(device, small_model, matrix, gpus, cpus, gpu_pool, cpu_pool)
                configs = layout.executor_configs
                case = f"{device_name} {gpus}G+{cpus}C {rule}"
                assert [config.name for config in configs] == [
                    f"gpu-{index}" for index in range(gpus)
                ] + [f"cpu-{index}" for index in range(cpus)], case
                for config in configs:
                    kind = config.processor_kind
                    assert config.name.startswith(kind.value), case
                    assert config.total_bytes == per_executor[kind], case
                    assert config.expert_pool_bytes >= small_model.largest_expert_bytes, case
                    assert config.activation_budget_bytes >= activation[kind], case
                cpu_used = sum(
                    config.total_bytes
                    for config in configs
                    if config.processor_kind is ProcessorKind.CPU
                )
                expected_cache = 0 if device.is_uma else budget.cpu_bytes - cpu_used
                assert layout.host_cache_bytes == expected_cache, case
                simulation = ServingSimulation(
                    device,
                    small_model,
                    configs,
                    RoundRobinScheduling(),
                    LRUPolicy(),
                    host_cache_bytes=layout.host_cache_bytes,
                )
                assert len(simulation.executors) == gpus + cpus, case

    @pytest.mark.parametrize("device_name", ["numa", "uma"])
    @pytest.mark.parametrize("counts", [None, (1, 0), (2, 2), (4, 1)])
    def test_coserve_and_samba_parallel_get_the_same_memory(
        self, device_name, counts, request, small_model, small_usage
    ):
        """§5.2's comparison: with matched executor counts the systems
        differ in pool splits and policies, not in the memory they get."""
        device = request.getfixturevalue(f"{device_name}_device")
        matrix = request.getfixturevalue(f"{device_name}_matrix")
        overrides = {}
        if counts is not None:
            overrides = dict(gpu_executors=counts[0], cpu_executors=counts[1])

        def memory(name):
            simulation = build_system(
                name, device, small_model, small_usage, performance_matrix=matrix, **overrides
            ).build_simulation()
            totals = [(executor.name, executor.config.total_bytes) for executor in simulation.executors]
            cache = simulation.host_cache.capacity_bytes if simulation.host_cache else 0
            return totals, cache

        coserve, samba = memory("coserve-casual"), memory("samba-coe-parallel")
        assert coserve == samba
        assert (samba[1] > 0) is (not device.is_uma)
