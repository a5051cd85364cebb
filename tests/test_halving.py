"""Tests for the successive-halving sweep scheduler.

The contracts pinned here are the ones that make guided sweeps safe to
substitute for exhaustive ones:

1. **Schedule shape** — the rung ladder is monotone (each rung's cell
   set is a subset of the previous rung's) and pinned cells ride
   through every rung un-droppable.
2. **Row fidelity** — final-rung rows are byte-identical to an
   exhaustive run of the same cells, on every executor backend
   (serial, ``jobs=2`` process pool, two distributed workers), and the
   surviving set itself is backend-independent.
3. **Recalibration** — refitting the surrogate from measured rung rows
   never worsens Spearman rank correlation on those same rows.
4. **Cache hygiene** — dropped-cell placeholders are refused by the
   on-disk cache, while genuinely simulated rows (full- and
   low-fidelity alike) cache and reload normally.
5. **One selection rule** — every selection point keeps exact counts
   and breaks ties towards the earlier cell, and a one-shot
   ``prune_fraction`` cut is the one-rung ladder on every backend.
"""

import pickle

import pytest

from repro.experiments.base import EvaluationContext, EvaluationSettings
from repro.surrogate import QueueingSurrogate, extract_features, spearman_rank_correlation
from repro.sweeps import (
    FIDELITY_OVERRIDE_KEY,
    HalvingConfig,
    HalvingRunner,
    PRUNED_ABORT_PREFIX,
    SweepCache,
    SweepCell,
    SweepGrid,
    SweepRunner,
)
from repro.sweeps.halving import select_survivors
from repro.sweeps.worker import spawn_local_workers

TINY_SETTINGS = EvaluationSettings(
    full_scale=False,
    reduced_requests=120,
    devices=("numa",),
    task_names=("A1", "A2"),
)

_SYSTEMS = (
    "coserve",
    "samba-coe",
    "samba-coe-fifo",
    "samba-coe-parallel",
    "coserve-none",
    "coserve-em",
)

#: Two simulated rungs with a cheap 40-request first rung: rung 0 keeps
#: ceil(5 * 0.5) = 3 unpinned + 1 pinned, rung 1 keeps ceil(3 * 0.5) = 2
#: unpinned + 1 pinned, so the final rung simulates 3 of 6 cells.
_CONFIG = HalvingConfig(rungs=2, keep_fraction=0.5, min_requests=40)


def _grid(pin_first: bool = True) -> SweepGrid:
    cells = [SweepCell.make(system, "numa", "A1") for system in _SYSTEMS]
    if pin_first:
        cells[0] = cells[0].pinned()
    return SweepGrid.union(*(SweepGrid.single(cell) for cell in cells))


@pytest.fixture(scope="module")
def context():
    return EvaluationContext(TINY_SETTINGS)


@pytest.fixture(scope="module")
def exhaustive_results():
    return SweepRunner(settings=TINY_SETTINGS).run(_grid())


@pytest.fixture(scope="module")
def halving_run(context):
    runner = HalvingRunner(context=context, config=_CONFIG)
    results = runner.run(_grid())
    return runner, results


class TestConfig:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="rungs"):
            HalvingConfig(rungs=0)
        with pytest.raises(ValueError, match="keep_fraction"):
            HalvingConfig(keep_fraction=0.0)
        with pytest.raises(ValueError, match="keep_fraction"):
            HalvingConfig(keep_fraction=1.5)
        with pytest.raises(ValueError, match="min_requests"):
            HalvingConfig(min_requests=0)
        with pytest.raises(ValueError, match="percentile"):
            HalvingConfig(percentile=0.0)
        with pytest.raises(ValueError, match="slo_ms"):
            HalvingConfig(slo_ms=0.0)

    def test_request_counts_escalate_geometrically(self):
        config = HalvingConfig(rungs=3, min_requests=100)
        first = config.request_count(1, 10_000)
        second = config.request_count(2, 10_000)
        assert first == 100
        assert second == 1000  # sqrt step of the 100 -> 10000 ramp
        assert config.request_count(3, 10_000) is None  # final rung: full

    def test_counts_clamp_to_full_fidelity(self):
        config = HalvingConfig(rungs=2, min_requests=500)
        # min_requests at or above the full count: no override at all.
        assert config.request_count(1, 120) is None
        with pytest.raises(ValueError, match="rung"):
            config.request_count(3, 120)


class TestFidelityOverride:
    def test_at_fidelity_changes_identity(self):
        cell = SweepCell.make("coserve", "numa", "A1")
        reduced = cell.at_fidelity(40)
        assert reduced.key != cell.key
        assert reduced.fidelity == 40
        assert cell.fidelity is None
        assert dict(reduced.overrides)[FIDELITY_OVERRIDE_KEY] == 40

    def test_at_fidelity_rejects_non_positive_counts(self):
        cell = SweepCell.make("coserve", "numa", "A1")
        with pytest.raises(ValueError, match="positive"):
            cell.at_fidelity(0)

    def test_reduced_cell_simulates_fewer_requests(self):
        cell = SweepCell.make("coserve", "numa", "A1").at_fidelity(40)
        result = SweepRunner(settings=TINY_SETTINGS).run(SweepGrid.single(cell))[cell]
        assert result.num_requests == 40


class TestSchedule:
    def test_rung_cell_sets_shrink_monotonically(self, halving_run):
        runner, _ = halving_run
        schedule = runner.last_schedule
        assert len(schedule) == _CONFIG.rungs + 1  # scoring + simulated rungs
        for earlier, later in zip(schedule, schedule[1:]):
            assert set(later.cells) <= set(earlier.cells)
            assert len(later.cells) < len(earlier.cells)

    def test_rung_fidelities_escalate(self, halving_run):
        runner, _ = halving_run
        schedule = runner.last_schedule
        assert set(schedule[0].request_counts) == {None}  # surrogate scoring
        assert set(schedule[1].request_counts) == {40}
        assert set(schedule[-1].request_counts) == {None}  # full fidelity

    def test_pinned_cells_survive_every_rung(self, halving_run):
        runner, results = halving_run
        pinned = next(cell for cell in _grid() if cell.pin)
        for plan in runner.last_schedule:
            assert pinned.key in plan.cells
        assert not results.is_pruned(pinned)
        assert not results[pinned].aborted


class TestRows:
    def test_every_grid_cell_gets_a_row(self, halving_run):
        _, results = halving_run
        grid = _grid()
        assert len(results) == len(grid)
        assert len(results.pruned_keys()) == 3
        for cell in grid:
            assert results.estimate_for(cell) is not None

    def test_dropped_cells_keep_annotated_placeholders(self, halving_run):
        _, results = halving_run
        for cell in _grid():
            if results.is_pruned(cell):
                row = results[cell]
                assert row.aborted
                assert row.abort_reason.startswith(PRUNED_ABORT_PREFIX)
                assert "rung" in row.abort_reason

    def test_final_rows_byte_identical_to_exhaustive(self, halving_run, exhaustive_results):
        _, results = halving_run
        survivors = [cell for cell in _grid() if not results.is_pruned(cell)]
        assert survivors
        for cell in survivors:
            assert pickle.dumps(results[cell]) == pickle.dumps(exhaustive_results[cell])

    def test_run_iter_yields_exactly_the_grid(self, context):
        runner = HalvingRunner(context=context, config=_CONFIG)
        grid = _grid()
        yielded = list(runner.run_iter(grid))
        assert len(yielded) == len(grid)
        assert {cell.key for cell, _ in yielded} == {cell.key for cell in grid}

    @pytest.mark.parametrize("backend", ["jobs", "hosts"])
    def test_backends_match_serial_run(self, backend, halving_run):
        _, serial = halving_run
        grid = _grid()
        if backend == "jobs":
            runner = HalvingRunner(settings=TINY_SETTINGS, jobs=2, config=_CONFIG)
            try:
                results = runner.run(grid)
            finally:
                runner.close()
        else:
            with spawn_local_workers(2) as pool:
                runner = HalvingRunner(settings=TINY_SETTINGS, hosts=pool.hosts, config=_CONFIG)
                try:
                    results = runner.run(grid)
                finally:
                    runner.close()
        assert set(results.pruned_keys()) == set(serial.pruned_keys())
        for cell in grid:
            if not serial.is_pruned(cell):
                assert pickle.dumps(results[cell]) == pickle.dumps(serial[cell])


class TestDrift:
    def test_drift_report_covers_every_simulated_rung(self, halving_run):
        _, results = halving_run
        report = results.drift_report
        assert report is not None
        assert [rung.rung for rung in report.rungs] == [1, 2]
        assert report.rungs[0].num_requests == 40
        assert report.rungs[-1].num_requests is None
        # Rung cell counts mirror the schedule (4 survive rung 0, 3 the ladder).
        assert [rung.cell_count for rung in report.rungs] == [4, 3]
        rows = report.as_rows()
        assert rows[0]["num_requests"] == 40
        assert rows[-1]["num_requests"] == "full"
        assert report.summary()


class TestRecalibration:
    def test_never_worsens_spearman_on_real_rung_rows(self, context):
        rung_cells = [
            SweepCell.make(system, "numa", "A1").at_fidelity(40) for system in _SYSTEMS
        ]
        rows = SweepRunner(context=context).run(
            SweepGrid.union(*(SweepGrid.single(cell) for cell in rung_cells))
        )
        pairs = [(extract_features(context, cell), rows[cell]) for cell in rung_cells]
        base = QueueingSurrogate()
        refit = base.recalibrated(pairs)

        def rho(surrogate):
            return spearman_rank_correlation(
                [result.makespan_ms for _, result in pairs],
                [surrogate.estimate(features).makespan_ms for features, _ in pairs],
            )

        assert rho(refit) >= rho(base) - 1e-12

    def test_never_worsens_spearman_on_adversarial_rows(self, context):
        features = [
            extract_features(context, SweepCell.make(system, "numa", "A1"))
            for system in _SYSTEMS[:4]
        ]
        base = QueueingSurrogate()
        predictions = [base.estimate(f).makespan_ms for f in features]

        class _Measured:
            def __init__(self, makespan_ms):
                self.makespan_ms = makespan_ms

        # Measured makespans that exactly invert the predicted order:
        # the base surrogate scores Spearman -1 on these rows, so any
        # accepted candidate must rank them no worse.
        order = sorted(range(len(predictions)), key=lambda i: predictions[i])
        inverted = [0.0] * len(predictions)
        for rank, index in enumerate(order):
            inverted[index] = 1000.0 * (len(predictions) - rank)
        pairs = list(zip(features, (_Measured(m) for m in inverted)))
        refit = base.recalibrated(pairs)

        def rho(surrogate):
            return spearman_rank_correlation(
                [pair[1].makespan_ms for pair in pairs],
                [surrogate.estimate(pair[0]).makespan_ms for pair in pairs],
            )

        assert rho(refit) >= rho(base) - 1e-12

    def test_too_few_rows_returns_the_incumbent(self):
        base = QueueingSurrogate()
        assert base.recalibrated([]) is base


class TestCacheHygiene:
    def test_cache_refuses_dropped_cell_placeholders(self, tmp_path, halving_run):
        _, results = halving_run
        cache = SweepCache(str(tmp_path), TINY_SETTINGS)
        dropped = next(cell for cell in _grid() if results.is_pruned(cell))
        with pytest.raises(ValueError, match="refusing to cache"):
            cache.store(dropped, results[dropped])

    def test_second_guided_run_replays_from_cache(self, tmp_path, halving_run):
        _, serial = halving_run
        grid = _grid()
        cache = SweepCache(str(tmp_path), TINY_SETTINGS)
        first = HalvingRunner(settings=TINY_SETTINGS, cache=cache, config=_CONFIG).run(grid)
        assert set(first.pruned_keys()) == set(serial.pruned_keys())
        # The survivors (and the low-fidelity rung rows, under their own
        # identities) are cached; a rerun preloads the survivors and only
        # re-scores/re-drops the placeholder cells.
        second_cache = SweepCache(str(tmp_path), TINY_SETTINGS)
        second = HalvingRunner(
            settings=TINY_SETTINGS, cache=second_cache, config=_CONFIG
        ).run(grid)
        assert second_cache.hits >= len(grid) - len(serial.pruned_keys())
        for cell in grid:
            if not first.is_pruned(cell):
                assert pickle.dumps(second[cell]) == pickle.dumps(first[cell])


class TestSelection:
    @staticmethod
    def _cells(count):
        return [SweepCell.make("coserve", "numa", "A1", variant=i) for i in range(count)]

    def test_keep_counts_are_exact(self):
        cells = self._cells(25)
        scores = {cell.key: float(i) for i, cell in enumerate(cells)}
        kept, dropped = select_survivors(cells, scores, keep_fraction=0.28)
        assert len(kept) == 7  # 25 * 0.28 is 7.000000000000001 in floats
        assert len(dropped) == 18

    def test_prune_fraction_drops_exact_counts(self):
        cells = self._cells(100)
        scores = {cell.key: float(i) for i, cell in enumerate(cells)}
        plan = SweepRunner(settings=TINY_SETTINGS, prune_fraction=0.29).plan
        assert plan == HalvingConfig(rungs=1, keep_fraction=1.0 - 0.29)
        kept, dropped = select_survivors(cells, scores, plan.keep_fraction)
        assert len(dropped) == 29  # 100 * 0.29 is 28.999999999999996 in floats
        assert dropped == cells[71:]

    def test_limit_cuts_first_and_pins_always_survive(self):
        cells = self._cells(6)
        cells[5] = cells[5].pinned()
        scores = {cell.key: float(i) for i, cell in enumerate(cells)}
        kept, dropped = select_survivors(cells, scores, keep_fraction=0.5, limit=3.0)
        # Cells 4 and 5 score above the limit; of the four left, ceil(4 * 0.5)
        # = 2 are kept, plus the pinned cell 5 despite its score.
        assert kept == [cells[0], cells[1], cells[5]]
        assert dropped == [cells[2], cells[3], cells[4]]


#: Three systems, each next to an SLO twin the surrogate cannot tell
#: apart (SLO overrides never reach the features): three exact score
#: ties, one of which a keep-half cut of the six cells must split.
_TIED_GRID = SweepGrid(
    tuple(
        cell
        for system in ("coserve", "samba-coe", "coserve-none")
        for cell in (
            SweepCell.make(system, "numa", "A1"),
            SweepCell.make(system, "numa", "A1", slo_target_ms=1e9),
        )
    )
)


class TestOneShotIsOneRung:
    @staticmethod
    def _runners(**backend):
        return [
            SweepRunner(settings=TINY_SETTINGS, prune_fraction=0.5, **backend),
            HalvingRunner(
                settings=TINY_SETTINGS,
                config=HalvingConfig(rungs=1, keep_fraction=1 - 0.5),
                **backend,
            ),
        ]

    def _run_everywhere(self):
        runs = []
        for backend in ({}, {"jobs": 2}):
            for runner in self._runners(**backend):
                try:
                    runs.append(runner.run(_TIED_GRID))
                finally:
                    runner.close()
        with spawn_local_workers(2) as pool:
            for runner in self._runners(hosts=pool.hosts):
                try:
                    runs.append(runner.run(_TIED_GRID))
                finally:
                    runner.close()
        return runs

    def test_same_cut_and_rows_on_every_backend(self):
        first, *others = self._run_everywhere()
        pruned = set(first.pruned_keys())
        assert len(pruned) == 3
        # The cut splits at least one tied pair and keeps its earlier cell.
        cells = _TIED_GRID.cells
        split = [
            (plain, twin)
            for plain, twin in zip(cells[::2], cells[1::2])
            if first.is_pruned(plain) != first.is_pruned(twin)
        ]
        assert split
        for plain, twin in split:
            assert first.estimate_for(plain) == first.estimate_for(twin)
            assert not first.is_pruned(plain) and first.is_pruned(twin)
        for results in others:
            assert set(results.pruned_keys()) == pruned
            for cell in _TIED_GRID:
                assert pickle.dumps(results[cell]) == pickle.dumps(first[cell])

    def test_one_shot_leaves_a_one_rung_drift_report(self, context):
        runner = SweepRunner(context=context, prune_fraction=0.5)
        results = runner.run(_TIED_GRID)
        assert [plan.rung for plan in runner.last_schedule] == [0, 1]
        assert [rung.rung for rung in results.drift_report.rungs] == [1]
        assert results.drift_report.rungs[0].cell_count == 3


class TestExperimentsCLI:
    def test_run_experiments_attaches_drift_report(self):
        from repro.experiments.cli import run_experiments
        from repro.sweeps import SweepResults

        settings = EvaluationSettings(
            full_scale=False,
            reduced_requests=120,
            devices=("numa",),
            task_names=("A1",),
        )
        store = SweepResults()
        outcomes = run_experiments(
            ["figure13"],
            settings,
            plan=HalvingConfig(rungs=2, keep_fraction=0.5, min_requests=40),
            results=store,
        )
        assert outcomes and outcomes[0][1].rows
        report = store.drift_report
        assert report is not None
        assert [rung.rung for rung in report.rungs] == [1, 2]

    @pytest.mark.parametrize(
        "argv",
        [
            ["figure13", "--halving-rungs", "2", "--prune-fraction", "0.5"],
            ["figure13", "--halving-rungs", "2", "--prune-slo-ms", "0"],
            ["figure13", "--halving-rungs", "0"],
            ["figure13", "--halving-rungs", "2", "--halving-keep-fraction", "1.5"],
            ["figure13", "--halving-rungs", "2", "--halving-min-requests", "0"],
            ["figure13", "--prune-percentile", "0"],
            ["figure13", "--prune-percentile", "101"],
        ],
    )
    def test_cli_rejects_invalid_flag_combinations(self, argv):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
