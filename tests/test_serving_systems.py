"""Integration tests for the complete serving systems (§5)."""

import pytest

from repro.hardware.processor import ProcessorKind
from repro.serving import SYSTEM_NAMES, CoServeSystem, SambaCoESystem, build_system
from repro.serving.base import ServingSystem


@pytest.fixture(scope="module")
def served_results(numa_device, small_model, pressure_stream, pressure_usage, numa_matrix):
    """Serve the pressure stream once with every system on the NUMA device."""
    results = {}
    for name in SYSTEM_NAMES:
        system = build_system(
            name, numa_device, small_model, pressure_usage, performance_matrix=numa_matrix
        )
        results[name] = system.serve(pressure_stream)
    return results


class TestFactory:
    def test_every_name_builds_a_system(self, numa_device, small_model, small_usage, numa_matrix):
        for name in SYSTEM_NAMES:
            system = build_system(name, numa_device, small_model, small_usage, performance_matrix=numa_matrix)
            assert isinstance(system, ServingSystem)

    def test_unknown_name_rejected(self, numa_device, small_model, small_usage):
        with pytest.raises(ValueError):
            build_system("vllm", numa_device, small_model, small_usage)

    def test_labels_match_paper_names(self, numa_device, small_model, small_usage, numa_matrix):
        expectations = {
            "samba-coe": "Samba-CoE",
            "samba-coe-fifo": "Samba-CoE FIFO",
            "samba-coe-parallel": "Samba-CoE Parallel",
            "coserve-best": "CoServe Best",
            "coserve-casual": "CoServe Casual",
            "coserve-none": "CoServe None",
            "coserve-em": "CoServe EM",
            "coserve-em-ra": "CoServe EM+RA",
            "coserve": "CoServe",
        }
        for key, label in expectations.items():
            system = build_system(key, numa_device, small_model, small_usage, performance_matrix=numa_matrix)
            assert system.name == label


class TestInitialisation:
    @pytest.mark.parametrize("name", ["coserve", "samba-coe"])
    def test_host_cache_stages_most_used_experts_no_pool_holds(
        self, name, numa_device, small_model, small_usage, numa_matrix
    ):
        system = build_system(
            name, numa_device, small_model, small_usage, performance_matrix=numa_matrix
        )
        simulation = system.build_simulation()
        pooled = {
            expert_id
            for executor in simulation.executors
            for expert_id in executor.pool.resident_expert_ids()
        }
        cached = set(simulation.host_cache.resident_expert_ids())
        assert pooled and cached
        assert not pooled & cached
        candidates = [e for e in small_usage.sorted_expert_ids() if e not in pooled]
        assert candidates[0] in cached


class TestSambaCoEConfiguration:
    def test_baseline_uses_single_gpu_executor(self, numa_device, small_model, small_usage, numa_matrix):
        system = SambaCoESystem.baseline(numa_device, small_model, small_usage, performance_matrix=numa_matrix)
        simulation = system.build_simulation()
        assert len(simulation.executors) == 1
        assert simulation.executors[0].kind is ProcessorKind.GPU
        assert simulation.host_cache is not None  # DDR cache on NUMA

    def test_parallel_matches_coserve_executor_count(self, numa_device, small_model, small_usage, numa_matrix):
        system = SambaCoESystem.parallel(numa_device, small_model, small_usage, performance_matrix=numa_matrix)
        simulation = system.build_simulation()
        kinds = [executor.kind for executor in simulation.executors]
        assert kinds.count(ProcessorKind.GPU) == 3
        assert kinds.count(ProcessorKind.CPU) == 1

    def test_uma_has_no_host_cache(self, uma_device, small_model, small_usage, uma_matrix):
        system = SambaCoESystem.baseline(uma_device, small_model, small_usage, performance_matrix=uma_matrix)
        assert system.build_simulation().host_cache is None

    def test_invalid_configurations_rejected(self, numa_device, small_model, small_usage):
        with pytest.raises(ValueError):
            SambaCoESystem(numa_device, small_model, small_usage, replacement="mru")
        with pytest.raises(ValueError):
            SambaCoESystem(numa_device, small_model, small_usage, gpu_executors=0)


class TestCoServeConfiguration:
    def test_default_executor_counts(self, numa_device, uma_device, small_model, small_usage, numa_matrix, uma_matrix):
        numa_system = CoServeSystem.best(numa_device, small_model, small_usage, performance_matrix=numa_matrix)
        numa_sim = numa_system.build_simulation()
        kinds = [executor.kind for executor in numa_sim.executors]
        assert kinds.count(ProcessorKind.GPU) == 3 and kinds.count(ProcessorKind.CPU) == 1

        uma_system = CoServeSystem.best(uma_device, small_model, small_usage, performance_matrix=uma_matrix)
        uma_sim = uma_system.build_simulation()
        kinds = [executor.kind for executor in uma_sim.executors]
        assert kinds.count(ProcessorKind.GPU) == 2 and kinds.count(ProcessorKind.CPU) == 1

    def test_pools_are_preloaded(self, numa_device, small_model, small_usage, numa_matrix):
        system = CoServeSystem.best(numa_device, small_model, small_usage, performance_matrix=numa_matrix)
        simulation = system.build_simulation()
        assert any(executor.pool.resident_count > 0 for executor in simulation.executors)

    def test_casual_uses_75_percent_expert_memory(self, numa_device, small_model, small_usage, numa_matrix):
        system = CoServeSystem.casual(numa_device, small_model, small_usage, performance_matrix=numa_matrix)
        simulation = system.build_simulation()
        gpu_executor = next(e for e in simulation.executors if e.kind is ProcessorKind.GPU)
        ratio = gpu_executor.config.expert_pool_bytes / gpu_executor.config.total_bytes
        assert ratio == pytest.approx(0.75, abs=0.02)

    def test_ablation_levels(self, numa_device, small_model, small_usage, numa_matrix):
        none = CoServeSystem.ablation(numa_device, small_model, "none", small_usage, performance_matrix=numa_matrix)
        assert not none.enable_expert_management and not none.enable_arranging and not none.enable_assigning
        em = CoServeSystem.ablation(numa_device, small_model, "em", small_usage, performance_matrix=numa_matrix)
        assert em.enable_expert_management and not em.enable_arranging
        em_ra = CoServeSystem.ablation(numa_device, small_model, "em+ra", small_usage, performance_matrix=numa_matrix)
        assert em_ra.enable_arranging and not em_ra.enable_assigning
        full = CoServeSystem.ablation(numa_device, small_model, "full", small_usage, performance_matrix=numa_matrix)
        assert full.enable_assigning
        with pytest.raises(ValueError):
            CoServeSystem.ablation(numa_device, small_model, "everything", small_usage)

    def test_conflicting_memory_settings_rejected(self, numa_device, small_model, small_usage):
        with pytest.raises(ValueError):
            CoServeSystem(
                numa_device, small_model, small_usage, gpu_expert_count=30, gpu_expert_fraction=0.5
            )

    def test_zero_gpu_executors_rejected(self, numa_device, small_model, small_usage):
        with pytest.raises(ValueError):
            CoServeSystem(numa_device, small_model, small_usage, gpu_executors=0)


class TestEndToEndBehaviour:
    """The paper's headline results, on a scaled-down workload."""

    def test_all_systems_complete_all_requests(self, served_results, pressure_stream):
        for result in served_results.values():
            assert result.num_requests == len(pressure_stream)

    def test_coserve_outperforms_every_samba_baseline(self, served_results):
        coserve = served_results["coserve-best"].throughput_rps
        for baseline in ("samba-coe", "samba-coe-fifo", "samba-coe-parallel"):
            assert coserve > served_results[baseline].throughput_rps

    def test_coserve_reduces_expert_switches(self, served_results):
        assert served_results["coserve-best"].expert_switches < served_results["samba-coe"].expert_switches

    def test_ablation_throughput_is_monotone(self, served_results):
        """Figure 15: each optimisation adds throughput."""
        none = served_results["coserve-none"].throughput_rps
        em = served_results["coserve-em"].throughput_rps
        em_ra = served_results["coserve-em-ra"].throughput_rps
        full = served_results["coserve"].throughput_rps
        assert none <= em * 1.05
        assert em < em_ra
        assert em_ra < full

    def test_ablation_switches_decrease(self, served_results):
        """Figure 16: each optimisation removes expert switches."""
        none = served_results["coserve-none"].expert_switches
        em_ra = served_results["coserve-em-ra"].expert_switches
        full = served_results["coserve"].expert_switches
        assert full < em_ra < none

    def test_full_coserve_equals_best(self, served_results):
        assert served_results["coserve"].throughput_rps == pytest.approx(
            served_results["coserve-best"].throughput_rps
        )

    def test_scheduling_overhead_recorded_for_coserve(self, served_results):
        result = served_results["coserve-best"]
        assert result.average_scheduling_latency_ms > 0
        # Figure 19: scheduling latency is below the average inference latency.
        assert result.average_scheduling_latency_ms < result.average_request_latency_ms

    def test_uma_serving_works_end_to_end(
        self, uma_device, small_model, pressure_stream, pressure_usage, uma_matrix
    ):
        coserve = CoServeSystem.best(uma_device, small_model, pressure_usage, performance_matrix=uma_matrix)
        samba = SambaCoESystem.baseline(uma_device, small_model, pressure_usage, performance_matrix=uma_matrix)
        coserve_result = coserve.serve(pressure_stream)
        samba_result = samba.serve(pressure_stream)
        assert coserve_result.throughput_rps > samba_result.throughput_rps

    def test_usage_profile_from_stream_matches_category_mix(self, small_model, small_stream):
        profile = ServingSystem.usage_profile_from_stream(small_model, small_stream)
        assert len(profile) == len(small_model)
        assert max(profile.probabilities.values()) <= 1.0


class TestRepeatedServing:
    """Policies have no ``reset()``: every build hands its run new ones."""

    @pytest.mark.parametrize("name", SYSTEM_NAMES)
    def test_second_serve_matches_a_fresh_system(
        self, name, served_results, numa_device, small_model, small_stream, pressure_stream,
        pressure_usage, numa_matrix,
    ):
        system = build_system(
            name, numa_device, small_model, pressure_usage, performance_matrix=numa_matrix
        )
        first, second = system.build_simulation(), system.build_simulation()
        assert first.scheduling_policy is not second.scheduling_policy
        assert first.eviction_policy is not second.eviction_policy

        # Another stream first, so state carried over (a round-robin
        # cursor, say) would start the pressure run somewhere else.
        system.serve(small_stream)
        assert system.serve(pressure_stream) == served_results[name]
