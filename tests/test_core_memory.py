"""Tests for memory allocation strategies (§4.4)."""

import pytest

from repro.core.memory import (
    DecayWindowSearch,
    MemoryPlan,
    limited_compute_plan,
    split_capacity_by_expert_count,
    split_capacity_by_fraction,
)
from repro.core.config import ExpertPerformanceRecord
from repro.hardware.processor import ProcessorKind
from repro.hardware.units import GB, MB


def make_record(max_batch=4, activation=140 * MB):
    return ExpertPerformanceRecord(
        architecture="resnet101",
        processor=ProcessorKind.CPU,
        k_ms=38.0,
        b_ms=60.0,
        max_batch_size=max_batch,
        activation_bytes_per_sample=activation,
        weight_bytes=178 * MB,
        load_latency_ms={"ssd": 900.0},
        memory_score=1.0,
    )


class TestMemoryPlan:
    def test_invalid_plans_rejected(self):
        with pytest.raises(ValueError):
            MemoryPlan(total_bytes=100, expert_pool_bytes=80, activation_bytes=30)
        with pytest.raises(ValueError):
            MemoryPlan(total_bytes=-1, expert_pool_bytes=0, activation_bytes=0)


class TestLimitedComputePlan:
    def test_activation_sized_for_max_batch(self):
        plan = limited_compute_plan([make_record()], capacity_bytes=4 * GB)
        assert plan.activation_bytes == 4 * 140 * MB
        assert plan.expert_pool_bytes == 4 * GB - 4 * 140 * MB

    def test_uses_largest_requirement_across_records(self):
        records = [make_record(max_batch=4, activation=140 * MB), make_record(max_batch=3, activation=300 * MB)]
        plan = limited_compute_plan(records, capacity_bytes=4 * GB)
        assert plan.activation_bytes == 3 * 300 * MB

    def test_activation_clamped_to_capacity(self):
        plan = limited_compute_plan([make_record(max_batch=30, activation=300 * MB)], capacity_bytes=1 * GB)
        assert plan.activation_bytes == 1 * GB
        assert plan.expert_pool_bytes == 0

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            limited_compute_plan([], 1 * GB)
        with pytest.raises(ValueError):
            limited_compute_plan([make_record()], 0)


class TestSplitHelpers:
    def test_split_by_expert_count(self):
        plan = split_capacity_by_expert_count(10 * GB, 20, 178 * MB)
        assert plan.expert_pool_bytes == pytest.approx(20 * 178 * MB, rel=0.01)
        assert plan.activation_bytes == plan.total_bytes - plan.expert_pool_bytes

    def test_split_by_expert_count_clamped(self):
        plan = split_capacity_by_expert_count(1 * GB, 100, 178 * MB)
        assert plan.expert_pool_bytes == 1 * GB
        assert plan.activation_bytes == 0

    def test_split_by_fraction(self):
        plan = split_capacity_by_fraction(12 * GB, 0.75)
        assert plan.expert_pool_bytes == pytest.approx(9 * GB, rel=0.01)

    def test_invalid_split_inputs_rejected(self):
        with pytest.raises(ValueError):
            split_capacity_by_expert_count(0, 10, 1.0)
        with pytest.raises(ValueError):
            split_capacity_by_expert_count(10, -1, 1.0)
        with pytest.raises(ValueError):
            split_capacity_by_fraction(10 * GB, 1.0)


class TestDecayWindowSearch:
    def test_decay_factor_equation_1(self):
        assert DecayWindowSearch(initial_window=15).decay_factor == pytest.approx(0.85)
        assert DecayWindowSearch(initial_window=20).decay_factor == pytest.approx(0.80)

    def test_search_stops_when_throughput_drops(self):
        """A rise-then-fall throughput curve (Figure 18) stops the search
        near the peak and selects a count inside the final window."""
        def throughput(count):
            return 25.0 - 0.012 * (count - 38) ** 2

        search = DecayWindowSearch(initial_window=15, error_margin=0.05, seed=1)
        result = search.search(throughput, max_expert_count=64)
        assert result.window_lower < result.selected_count <= result.window_upper
        assert 25 <= result.window_upper <= 64
        assert result.linear_error > 0.05
        # The selected count must be near the peak of the curve.
        assert abs(result.selected_count - 38) <= 15

    def test_monotone_throughput_never_exceeds_memory_limit(self):
        """Even with ever-increasing throughput the search cannot select
        more experts than the memory limit allows."""
        search = DecayWindowSearch(initial_window=15, error_margin=0.05)
        result = search.search(lambda count: float(count), max_expert_count=50)
        assert result.window_upper <= 50
        assert result.selected_count <= 50

    def test_generous_error_margin_reaches_memory_limit(self):
        search = DecayWindowSearch(initial_window=15, error_margin=10.0)
        result = search.search(lambda count: float(count), max_expert_count=50)
        assert result.trace[-1][0] == 50

    def test_trace_is_recorded_in_evaluation_order(self):
        search = DecayWindowSearch(initial_window=10, error_margin=0.05)
        result = search.search(lambda count: 10.0 + count * 0.1, max_expert_count=40)
        counts = [count for count, _ in result.trace]
        assert counts == sorted(counts)
        assert all(throughput == 10.0 + count * 0.1 for count, throughput in result.trace)

    def test_window_sizes_decay(self):
        search = DecayWindowSearch(initial_window=20, error_margin=1.0)
        result = search.search(lambda count: 1.0, max_expert_count=100)
        counts = [count for count, _ in result.trace]
        widths = [b - a for a, b in zip(counts, counts[1:])]
        assert all(later <= earlier for earlier, later in zip(widths, widths[1:]))

    def test_selection_is_deterministic_for_seed(self):
        def throughput(count):
            return 25.0 - 0.012 * (count - 38) ** 2

        first = DecayWindowSearch(seed=42).search(throughput, max_expert_count=64)
        second = DecayWindowSearch(seed=42).search(throughput, max_expert_count=64)
        assert first.selected_count == second.selected_count

    @pytest.mark.parametrize(
        "seed, error_margin, curve, max_count, expected_calls",
        [
            # Selects 48, the slide's last count: measured once.
            (7, 0.05, lambda count: 25.0 - 0.012 * (count - 38) ** 2, 64, [15, 28, 39, 48]),
            # Slides to the memory limit and selects it: measured once.
            (0, 10.0, float, 50, [15, 28, 39, 48, 50]),
            # Selects 43, which the slide skipped: measured after it.
            (1, 0.05, lambda count: 25.0 - 0.012 * (count - 38) ** 2, 64, [15, 28, 39, 48, 43]),
        ],
    )
    def test_each_count_is_replayed_once(self, seed, error_margin, curve, max_count, expected_calls):
        """Every replay is a full simulation, so a selected count the slide
        already measured reuses that throughput instead of replaying it."""
        calls = []

        def throughput(count):
            calls.append(count)
            return curve(count)

        search = DecayWindowSearch(initial_window=15, error_margin=error_margin, seed=seed)
        result = search.search(throughput, max_expert_count=max_count)
        assert calls == expected_calls
        assert result.selected_count == expected_calls[-1]
        assert result.selected_throughput == curve(result.selected_count)

    @pytest.mark.parametrize(
        "error_margin, curve",
        [
            (0.05, lambda count: 25.0 - 0.012 * (count - 38) ** 2),
            (0.05, lambda count: 50.0 - 0.05 * (count - 20) ** 2),
            (10.0, float),
        ],
    )
    @pytest.mark.parametrize("min_count, max_count", [(1, 64), (4, 50), (20, 30), (3, 3)])
    def test_search_measures_a_prefix_of_the_slide(self, error_margin, curve, min_count, max_count):
        """The slide names every window the search measures, in order, and
        the first ``min_fit_points + 1`` of them are always measured."""
        search = DecayWindowSearch(initial_window=15, error_margin=error_margin, seed=3)
        slide = list(search.slide(max_count, min_count))
        result = search.search(curve, max_expert_count=max_count, min_expert_count=min_count)
        assert [count for count, _ in result.trace] == [count for _, count in slide][: len(result.trace)]
        assert len(result.trace) >= min(len(slide), search.min_fit_points + 1)
        assert (result.window_lower, result.window_upper) == (
            max(min_count, slide[len(result.trace) - 1][0]),
            slide[len(result.trace) - 1][1],
        )
        assert all(min_count <= count <= max_count for _, count in slide)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            DecayWindowSearch(initial_window=0)
        with pytest.raises(ValueError):
            DecayWindowSearch(initial_window=120)
        with pytest.raises(ValueError):
            DecayWindowSearch(error_margin=0.0)
        with pytest.raises(ValueError):
            DecayWindowSearch(min_fit_points=1)
        with pytest.raises(ValueError):
            DecayWindowSearch().search(lambda count: 1.0, max_expert_count=0, min_expert_count=1)
