"""Tests for the queueing surrogate and two-stage pruned sweeps.

Three contracts pinned here:

1. **Fidelity** — on every registered experiment grid the surrogate's
   ranking of cells agrees with the simulator's (Spearman rho) and its
   relative errors stay inside the bounds the pruning rules assume.
2. **Monotonicity** — predictions move the right way as the arrival
   rate changes, by construction; pruning thresholds would be
   meaningless against a non-monotone predictor.
3. **Pruning semantics** — pinned cells are exempt, surviving cells are
   byte-identical to an exhaustive run, and pruned placeholders never
   reach the on-disk cache.
"""

import pickle
import random

import numpy as np
import pytest

from repro.experiments.base import EvaluationContext, EvaluationSettings
from repro.surrogate import (
    QueueingSurrogate,
    extract_features,
    spearman_rank_correlation,
    validate_grids,
)
from repro.surrogate.validation import _agreement
from repro.sweeps import (
    PRUNED_ABORT_PREFIX,
    HalvingConfig,
    SweepCache,
    SweepCell,
    SweepGrid,
    SweepRunner,
)

#: Mirrors ``tests/test_sweeps.py``: one device, both A-tasks, small
#: request counts — every registered serving grid is non-empty and the
#: whole validation matrix simulates in tens of seconds.
TINY_SETTINGS = EvaluationSettings(
    full_scale=False,
    reduced_requests=120,
    devices=("numa",),
    task_names=("A1", "A2"),
)

#: Fidelity floors/ceilings the pruning rules assume.  Calibrated
#: headroom over the measured tiny-scale numbers (spearman 0.90-1.0,
#: median throughput error 4-25%, median p99 error 6-35%); a regression
#: that chews through this margin has genuinely changed the model.
MIN_SPEARMAN = 0.75
MAX_MEDIAN_THROUGHPUT_ERROR = 0.45
MAX_MEDIAN_LATENCY_ERROR = 0.60


@pytest.fixture(scope="module")
def context():
    return EvaluationContext(TINY_SETTINGS)


@pytest.fixture(scope="module")
def reports(context):
    return validate_grids(TINY_SETTINGS, context=context)


class TestValidationBounds:
    def test_covers_every_registered_serving_grid(self, reports):
        from repro.experiments import EXPERIMENT_GRIDS

        # Sample cells (the tuning replays) are never scored by a plan.
        serving = {
            name
            for name in EXPERIMENT_GRIDS
            if any(cell.sample_size is None for cell in EXPERIMENT_GRIDS[name](TINY_SETTINGS))
        }
        assert set(reports) == serving
        assert reports, "no serving grids registered?"

    def test_rank_correlation_on_every_grid(self, reports):
        for name, report in reports.items():
            assert report.throughput_spearman >= MIN_SPEARMAN, report.summary()
            assert report.latency_spearman >= MIN_SPEARMAN, report.summary()

    def test_relative_error_on_every_grid(self, reports):
        for name, report in reports.items():
            assert (
                report.median_throughput_error <= MAX_MEDIAN_THROUGHPUT_ERROR
            ), report.summary()
            assert (
                report.median_latency_error <= MAX_MEDIAN_LATENCY_ERROR
            ), report.summary()

    def test_reports_carry_per_cell_detail(self, reports):
        for report in reports.values():
            assert report.cell_count == len(report.cells) > 0
            for cell in report.cells:
                assert cell.predicted_throughput_rps > 0.0
                assert cell.estimate.exec_work_ms > 0.0


class TestSpearman:
    def test_perfect_and_inverted_rankings(self):
        assert spearman_rank_correlation([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)
        assert spearman_rank_correlation([1, 2, 3], [30, 20, 10]) == pytest.approx(-1.0)

    def test_degenerate_inputs_read_as_preserved(self):
        assert spearman_rank_correlation([], []) == 1.0
        assert spearman_rank_correlation([5.0], [7.0]) == 1.0
        assert spearman_rank_correlation([1, 1, 1], [3, 1, 2]) == 1.0

    def test_length_mismatch_is_loud(self):
        with pytest.raises(ValueError, match="equal length"):
            spearman_rank_correlation([1, 2], [1])


@pytest.mark.parametrize("count", range(1, 7))
def test_agreement_median_error_matches_numpy(count):
    """Drift tables print these errors: odd and even row counts must give
    numpy's median to the last bit."""
    rng = random.Random(count)
    measured = [rng.uniform(1.0, 100.0) for _ in range(count)]
    predicted = [value * rng.uniform(0.5, 1.5) for value in measured]
    _, median_error, max_error = _agreement(measured, predicted)
    errors = [abs(p - m) / m for m, p in zip(measured, predicted)]
    assert median_error == float(np.median(errors))
    assert max_error == max(errors)


class TestMonotonicity:
    """Predictions must move the right way as load changes — the
    property the model docstring promises *by construction*."""

    @pytest.fixture(scope="class")
    def features(self, context):
        return [
            extract_features(context, SweepCell.make(system, "numa", "A1"))
            for system in ("coserve", "samba-coe", "samba-coe-parallel")
        ]

    def test_latency_is_monotone_in_arrival_rate(self, features):
        surrogate = QueueingSurrogate()
        intervals = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0, 256.0, 1024.0]
        for bundle in features:
            for percentile in (50.0, 90.0, 99.0):
                latencies = [
                    surrogate.estimate(bundle, arrival_interval_ms=i).latency_ms(percentile)
                    for i in intervals
                ]
                # Larger interval = lower arrival rate = no worse latency.
                for faster, slower in zip(latencies, latencies[1:]):
                    assert faster >= slower - 1e-9, (percentile, latencies)

    def test_throughput_is_monotone_in_arrival_rate(self, features):
        surrogate = QueueingSurrogate()
        intervals = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0, 256.0, 1024.0]
        for bundle in features:
            throughputs = [
                surrogate.estimate(bundle, arrival_interval_ms=i).throughput_rps
                for i in intervals
            ]
            for faster, slower in zip(throughputs, throughputs[1:]):
                assert faster >= slower - 1e-9, throughputs

    def test_mean_latency_never_exceeds_p99(self, features):
        surrogate = QueueingSurrogate()
        for bundle in features:
            for interval in (1.0, 4.0, 100.0, 1000.0):
                estimate = surrogate.estimate(bundle, arrival_interval_ms=interval)
                assert estimate.mean_latency_ms <= estimate.latency_ms(99.0) + 1e-9

    def test_invalid_interval_is_rejected(self, features):
        with pytest.raises(ValueError, match="positive"):
            QueueingSurrogate().estimate(features[0], arrival_interval_ms=0.0)


class TestFeatureExtraction:
    def test_slo_keys_without_target_are_rejected(self, context):
        """Like ``execute_cell``, the probe refuses an SLO cell whose
        monitor would silently not run instead of scoring it."""
        orphan = SweepCell.make("coserve", "numa", "A1", slo_percentile=50.0)
        with pytest.raises(ValueError, match="without slo_target_ms"):
            extract_features(context, orphan)


#: Six systems on one (device, task) pair: enough unpinned cells for a
#: fractional cut to bite, small enough to simulate in seconds.
_PRUNE_SYSTEMS = (
    "coserve",
    "samba-coe",
    "samba-coe-fifo",
    "samba-coe-parallel",
    "coserve-none",
    "coserve-em",
)


def _prune_grid(pin_first: bool = False):
    cells = [SweepCell.make(system, "numa", "A1") for system in _PRUNE_SYSTEMS]
    if pin_first:
        cells[0] = cells[0].pinned()
    return SweepGrid.union(*(SweepGrid.single(cell) for cell in cells))


@pytest.fixture(scope="module")
def exhaustive_results():
    return SweepRunner(settings=TINY_SETTINGS).run(_prune_grid())


class TestPruning:
    def test_fractional_prune_cuts_the_predicted_worst(self, exhaustive_results):
        grid = _prune_grid()
        runner = SweepRunner(settings=TINY_SETTINGS, prune_fraction=0.5)
        results = runner.run(grid)
        assert len(results) == len(grid)
        pruned = [cell for cell in grid if results.is_pruned(cell)]
        survivors = [cell for cell in grid if not results.is_pruned(cell)]
        assert len(pruned) == int(len(grid) * 0.5)
        # Every scored cell carries its estimate, pruned or not.
        for cell in grid:
            assert results.estimate_for(cell) is not None
        # Pruned cells got placeholder rows built from the prediction.
        worst_predicted = max(
            results.estimate_for(cell).latency_ms(99.0) for cell in survivors
        )
        for cell in pruned:
            placeholder = results[cell]
            assert placeholder.aborted
            assert placeholder.abort_reason.startswith(PRUNED_ABORT_PREFIX)
            assert placeholder.executors == ()
            assert results.estimate_for(cell).latency_ms(99.0) >= worst_predicted

    def test_survivors_are_byte_identical_to_exhaustive(self, exhaustive_results):
        grid = _prune_grid()
        results = SweepRunner(settings=TINY_SETTINGS, prune_fraction=0.5).run(grid)
        for cell in grid:
            if results.is_pruned(cell):
                continue
            assert pickle.dumps(results[cell]) == pickle.dumps(
                exhaustive_results[cell]
            ), f"{cell.label()} diverged from the exhaustive run"

    def test_pinned_cells_are_exempt(self):
        grid = _prune_grid(pin_first=True)
        runner = SweepRunner(
            settings=TINY_SETTINGS,
            plan=HalvingConfig(rungs=1, keep_fraction=0.5, slo_ms=0.001),
        )
        results = runner.run(grid)
        pinned = grid.cells[0]
        assert pinned.pin
        assert not results.is_pruned(pinned)
        assert not results[pinned].aborted
        # The absurd SLO prunes every unpinned cell.
        assert len(results.pruned_keys()) == len(grid) - 1

    def test_slo_prune_with_generous_target_prunes_nothing(self):
        grid = _prune_grid()
        results = SweepRunner(
            settings=TINY_SETTINGS,
            plan=HalvingConfig(rungs=1, keep_fraction=1.0, slo_ms=1e12),
        ).run(grid)
        assert results.pruned_keys() == []
        for cell in grid:
            assert not results[cell].aborted

    def test_pruned_cells_never_reach_the_cache(self, tmp_path):
        grid = _prune_grid()
        cache = SweepCache(str(tmp_path), TINY_SETTINGS)
        runner = SweepRunner(settings=TINY_SETTINGS, prune_fraction=0.5, cache=cache)
        results = runner.run(grid)
        for cell in grid:
            if results.is_pruned(cell):
                assert cache.load(cell) is None, f"{cell.label()} placeholder cached"
            else:
                entry = cache.load_entry(cell)
                assert entry is not None
                cached, estimate = entry
                assert pickle.dumps(cached) == pickle.dumps(results[cell])
                assert estimate is not None  # executed cells persist their score

    def test_cache_refuses_placeholder_results(self, tmp_path, exhaustive_results):
        import dataclasses

        cell = _prune_grid().cells[0]
        cache = SweepCache(str(tmp_path), TINY_SETTINGS)
        placeholder = dataclasses.replace(
            exhaustive_results[cell],
            aborted=True,
            abort_reason=f"{PRUNED_ABORT_PREFIX}: test",
        )
        with pytest.raises(ValueError, match="refusing to cache"):
            cache.store(cell, placeholder)

    def test_cached_estimates_are_restored_on_reload(self, tmp_path):
        grid = _prune_grid()
        cache = SweepCache(str(tmp_path), TINY_SETTINGS)
        first = SweepRunner(
            settings=TINY_SETTINGS, prune_fraction=0.5, cache=cache
        ).run(grid)
        # A later non-pruning run re-executes only the pruned cells and
        # comes back with the survivors' persisted estimates attached.
        second = SweepRunner(settings=TINY_SETTINGS, cache=cache).run(grid)
        assert second.pruned_keys() == []
        for cell in grid:
            if not first.is_pruned(cell):
                restored = second.estimate_for(cell)
                assert restored is not None
                assert restored == first.estimate_for(cell)

    def test_runner_rejects_bad_prune_knobs(self):
        with pytest.raises(ValueError, match="keep_fraction"):
            SweepRunner(settings=TINY_SETTINGS, prune_fraction=1.0)
        with pytest.raises(ValueError, match="slo_ms"):
            SweepRunner(settings=TINY_SETTINGS, plan=HalvingConfig(rungs=1, slo_ms=-5.0))
        with pytest.raises(ValueError, match="percentile"):
            SweepRunner(settings=TINY_SETTINGS, plan=HalvingConfig(rungs=1, percentile=0.0))
        with pytest.raises(ValueError, match="either prune_fraction or a plan"):
            SweepRunner(settings=TINY_SETTINGS, prune_fraction=0.5, plan=HalvingConfig())

    def test_grid_union_keeps_any_requesters_pin(self):
        cell = SweepCell.make("coserve", "numa", "A1")
        union = SweepGrid.union(
            SweepGrid.single(cell), SweepGrid.single(cell.pinned())
        )
        assert len(union) == 1
        assert union.cells[0].pin
        assert cell.key == cell.pinned().key  # pin is not identity
