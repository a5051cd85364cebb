"""Tests for the declarative sweep grid and the pluggable experiment runner.

The determinism class is the contract the ISSUE demands: serial,
parallel (``jobs=2``) and distributed (2 localhost
``coserve-sweep-worker`` processes) executions of every registered
experiment must produce row-for-row identical
:class:`ExperimentResult` objects — including ``slo_target_ms``
early-abort cells — and repeated cells must be simulated exactly once.
Distributed *failure* modes (worker crashes, duplicate deliveries,
shutdown draining) live in ``tests/test_distributed_sweeps.py``.
"""

import dataclasses
import json
import pickle

import pytest

from repro.experiments import EXPERIMENT_GRIDS, EXPERIMENTS
from repro.experiments.base import (
    ABLATION_SYSTEMS,
    COMPARISON_SYSTEMS,
    EvaluationContext,
    EvaluationSettings,
    ExperimentResult,
)
from repro.experiments.cli import collect_grid, main as cli_main, run_experiments
from repro.metrics import MetricsObserver, TimelineObserver
from repro.serving.factory import build_system
from repro.simulation.engine import ServingSimulation, SimulationOptions
from repro.simulation.session import SimulationAborted
from repro.simulation.slo import SLOMonitor
from repro.sweeps import (
    SerialExecutor,
    SweepCache,
    SweepCell,
    SweepGrid,
    SweepResults,
    SweepRunner,
    execute_cell,
    settings_fingerprint,
)
from repro.sweeps.worker import spawn_local_workers

#: Small enough that the whole registry runs twice (serial + parallel)
#: in tens of seconds; A2 included so figure19's override cells exist.
TINY_SETTINGS = EvaluationSettings(
    full_scale=False,
    reduced_requests=120,
    devices=("numa",),
    task_names=("A1", "A2"),
)

#: Shrink the non-serving experiments the same way the settings shrink
#: the serving ones, so the determinism sweep stays fast.
TINY_KWARGS = {
    "figure05": {"batch_sizes": (1, 2, 4, 8)},
    "figure06": {"batch_sizes": (1, 2, 4, 8)},
    "figure12": {"batch_sizes": (1, 2, 4, 8)},
    "figure17": {"sample_size": 300},
    "figure18": {"sample_size": 300},
}


class TestSweepCell:
    def test_make_canonicalises_override_order(self):
        a = SweepCell.make("s", "numa", "A1", beta=2, alpha=1)
        b = SweepCell.make("s", "numa", "A1", alpha=1, beta=2)
        assert a.key == b.key

    def test_pin_excluded_from_identity(self):
        a = SweepCell.make("s", "numa", "A1")
        b = SweepCell.make("s", "numa", "A1", pin=True)
        assert a.key == b.key and a.pin != b.pin

    def test_override_dict_round_trip(self):
        cell = SweepCell.make("s", "numa", "A1", scheduling_latency_ms=0.0)
        assert cell.override_dict() == {"scheduling_latency_ms": 0.0}

    def test_label_mentions_overrides(self):
        cell = SweepCell.make("s", "numa", "A1", x=1)
        assert "x=1" in cell.label()

    def test_system_overrides_drop_runner_keys(self):
        cell = SweepCell.make(
            "s", "numa", "A1", x=1, slo_target_ms=5.0, slo_metric="service"
        ).at_fidelity(40)
        assert cell.system_overrides() == {"x": 1}
        assert cell.fidelity == 40

    def test_system_overrides_check_runner_keys(self):
        with pytest.raises(ValueError, match="non-positive num_requests"):
            SweepCell.make("s", "numa", "A1", num_requests=0).system_overrides()
        with pytest.raises(ValueError, match="without slo_target_ms"):
            SweepCell.make("s", "numa", "A1", slo_metric="service").system_overrides()
        with pytest.raises(ValueError, match="both num_requests and sample_requests"):
            SweepCell.make("s", "numa", "A1", sample_requests=300).at_fidelity(40).system_overrides()


class TestSweepGrid:
    def test_product_covers_cross_product(self):
        grid = SweepGrid.product(("s1", "s2"), ("numa", "uma"), ("A1",))
        assert len(grid) == 4
        assert {cell.key for cell in grid} == {
            ("s1", "numa", "A1", ()),
            ("s2", "numa", "A1", ()),
            ("s1", "uma", "A1", ()),
            ("s2", "uma", "A1", ()),
        }

    def test_union_deduplicates_and_keeps_pin(self):
        first = SweepGrid.product(("s1",), ("numa",), ("A1",))
        both = SweepGrid.product(("s1", "s2"), ("numa",), ("A1",))
        second = SweepGrid(tuple(cell.pinned() for cell in both))
        union = first | second
        assert [cell.system for cell in union] == ["s1", "s2"]
        assert all(cell.pin for cell in union)

    def test_figure_grids_share_cells(self):
        settings = TINY_SETTINGS
        union = SweepGrid.union(
            EXPERIMENT_GRIDS["figure13"](settings), EXPERIMENT_GRIDS["figure14"](settings)
        )
        assert len(union) == len(EXPERIMENT_GRIDS["figure13"](settings))

    def test_registry_declares_a_grid_for_every_experiment(self):
        assert set(EXPERIMENT_GRIDS) == set(EXPERIMENTS)
        for grid_fn in EXPERIMENT_GRIDS.values():
            assert isinstance(grid_fn(TINY_SETTINGS), SweepGrid)

    def test_grid_and_settings_are_picklable(self):
        grid = collect_grid(sorted(EXPERIMENTS), TINY_SETTINGS)
        assert pickle.loads(pickle.dumps(grid)) == grid
        assert pickle.loads(pickle.dumps(TINY_SETTINGS)) == TINY_SETTINGS


class TestSweepResults:
    def _result(self, context, cell):
        return execute_cell(context, cell)

    def test_duplicate_cells_stored_once(self):
        results = SweepResults()
        cell = SweepCell.make("s", "numa", "A1")
        sentinel_a, sentinel_b = object(), object()
        assert results.add(cell, sentinel_a) is True
        assert results.add(cell.pinned(), sentinel_b) is False
        assert len(results) == 1
        assert results[cell] is sentinel_a

    def test_missing_lists_unexecuted_cells(self):
        results = SweepResults()
        grid = SweepGrid.product(("s1", "s2"), ("numa",), ("A1",))
        results.add(grid.cells[0], object())
        assert results.missing(grid) == [grid.cells[1]]

    def test_lookup_by_coordinates_and_overrides(self):
        results = SweepResults()
        plain = SweepCell.make("s", "numa", "A1")
        tuned = SweepCell.make("s", "numa", "A1", scheduling_latency_ms=0.0)
        results.add(plain, "plain")
        results.add(tuned, "tuned")
        assert results.get("s", "numa", "A1") == "plain"
        assert results.get("s", "numa", "A1", scheduling_latency_ms=0.0) == "tuned"
        with pytest.raises(KeyError):
            results.get("s", "uma", "A1")


@pytest.fixture(scope="module")
def tiny_context():
    return EvaluationContext(TINY_SETTINGS)


def _serve_via_session(context, cell, observers=()):
    """Serve ``cell`` as ``execute_cell`` does, but on the options the
    cell declares (records kept unless it says otherwise), with
    ``observers`` attached; the result's requests are dropped."""
    stream, usage_profile = context.cell_workload(cell)
    system = build_system(
        cell.system,
        context.device(cell.device),
        context.board_and_model(cell.task)[1],
        usage_profile,
        performance_matrix=context.performance_matrix(cell.device, cell.task),
        **cell.system_overrides(),
    )
    overrides = cell.override_dict()
    observers = list(observers)
    if "slo_target_ms" in overrides:
        monitor = SLOMonitor(
            target_ms=overrides["slo_target_ms"],
            percentile=overrides["slo_percentile"],
            metric=overrides["slo_metric"],
        )
        observers.append(monitor)
    session = system.session(stream, observers=observers)
    try:
        result = session.run()
    except SimulationAborted:
        result = session.partial_result()
    return dataclasses.replace(result, requests=())


class TestSweepRunner:
    def test_runner_skips_cells_already_present(self, tiny_context):
        grid = SweepGrid.single(SweepCell.make("coserve-best", "numa", "A1"))
        results = SweepResults()
        results.add(grid.cells[0], "already-there")
        out = SweepRunner(context=tiny_context).run(grid, results=results)
        assert out[grid.cells[0]] == "already-there"

    def test_existing_context_rejected_in_parallel(self, tiny_context):
        with pytest.raises(ValueError):
            SweepRunner(context=tiny_context, jobs=2)

    def test_jobs_and_hosts_are_mutually_exclusive(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            SweepRunner(settings=TINY_SETTINGS, jobs=2, hosts=["127.0.0.1:7071"])

    def test_explicit_executor_excludes_jobs_and_hosts(self):
        executor = SerialExecutor(TINY_SETTINGS)
        with pytest.raises(ValueError):
            SweepRunner(settings=TINY_SETTINGS, executor=executor, jobs=2)
        with pytest.raises(ValueError):
            SweepRunner(settings=TINY_SETTINGS, executor=executor, hosts=["127.0.0.1:7071"])
        assert SweepRunner(settings=TINY_SETTINGS, executor=executor).executor is executor


class TestSweepEarlyAbort:
    """Cells declaring an SLO target stop at the provable violation point."""

    DOOMED = dict(slo_target_ms=0.5, slo_percentile=50.0)

    def test_doomed_cell_aborts_early_and_is_marked(self, tiny_context):
        full = execute_cell(tiny_context, SweepCell.make("coserve", "numa", "A1"))
        doomed_cell = SweepCell.make("coserve", "numa", "A1", **self.DOOMED)
        doomed = execute_cell(tiny_context, doomed_cell)
        assert not full.aborted and full.abort_reason is None
        assert doomed.aborted
        assert "provably violated" in doomed.abort_reason
        # num_requests counts completions before the stop — strictly
        # fewer than the full run served.
        assert 0 < doomed.num_requests < full.num_requests

    def test_achievable_slo_cell_runs_to_completion(self, tiny_context):
        relaxed = SweepCell.make("coserve", "numa", "A1", slo_target_ms=1e12)
        plain = SweepCell.make("coserve", "numa", "A1")
        assert execute_cell(tiny_context, relaxed) == execute_cell(tiny_context, plain)

    def test_results_store_surfaces_aborted_cells(self, tiny_context):
        grid = SweepGrid(
            cells=(
                SweepCell.make("coserve", "numa", "A1"),
                SweepCell.make("coserve", "numa", "A1", **self.DOOMED),
            )
        )
        results = SweepRunner(context=tiny_context).run(grid)
        doomed_cell = grid.cells[1]
        aborted = [key for key, result in results.items() if result.aborted]
        assert aborted == [doomed_cell.key]

    def test_slo_parameters_without_target_are_rejected(self, tiny_context):
        orphan = SweepCell.make("coserve", "numa", "A1", slo_percentile=50.0)
        with pytest.raises(ValueError, match="without slo_target_ms"):
            execute_cell(tiny_context, orphan)

    def test_slo_identity_distinguishes_cells(self):
        plain = SweepCell.make("coserve", "numa", "A1")
        slo = SweepCell.make("coserve", "numa", "A1", **self.DOOMED)
        assert plain.key != slo.key  # an SLO cell is a different simulation

    def test_aborted_result_roundtrips_through_cache(self, tiny_context, tmp_path):
        cell = SweepCell.make("coserve", "numa", "A1", **self.DOOMED)
        cache = SweepCache(str(tmp_path), TINY_SETTINGS)
        runner = SweepRunner(context=tiny_context, cache=cache)
        first = runner.run(SweepGrid.single(cell))[cell]
        reloaded = SweepCache(str(tmp_path), TINY_SETTINGS).load(cell)
        assert reloaded == first
        assert reloaded.aborted

    def test_aborted_cell_identical_across_all_executors(self):
        """Abort semantics round-trip byte-identically through the serial,
        process-pool and distributed executors."""
        grid = SweepGrid(
            cells=(
                SweepCell.make("coserve", "numa", "A1"),
                SweepCell.make("coserve", "numa", "A1", **self.DOOMED),
            )
        )
        serial = SweepRunner(settings=TINY_SETTINGS).run(grid)
        parallel = SweepRunner(settings=TINY_SETTINGS, jobs=2).run(grid)
        with spawn_local_workers(2) as pool:
            distributed = SweepRunner(settings=TINY_SETTINGS, hosts=pool.hosts).run(grid)
        doomed = grid.cells[1]
        for name, results in (("parallel", parallel), ("distributed", distributed)):
            for cell in grid:
                assert results[cell] == serial[cell], f"{name} diverged on {cell.label()}"
            assert results[doomed].aborted, f"{name} lost the aborted flag"
            assert results[doomed].abort_reason == serial[doomed].abort_reason


class TestCellRecords:
    """A cell's simulation keeps only the records something reads, and
    its row equals a records-kept serve of the same cell with its
    requests dropped."""

    PRIVATE_POOLS = SimulationOptions(share_pool_per_processor=False)

    @pytest.mark.parametrize(
        "overrides, keep_requests, expected",
        [
            ({}, False, (False, False, True)),
            ({}, True, (True, True, True)),
            ({"options": PRIVATE_POOLS}, False, (False, False, False)),
            ({"slo_target_ms": 1e12, "slo_metric": "service"}, False, (False, True, True)),
            ({"slo_target_ms": 1e12, "slo_metric": "end_to_end"}, False, (False, False, True)),
        ],
        ids=["plain", "keep-requests", "private-pools", "service-slo", "end-to-end-slo"],
    )
    def test_cell_keeps_only_the_records_something_reads(
        self, tiny_context, monkeypatch, overrides, keep_requests, expected
    ):
        opened = []
        open_session = ServingSimulation.session

        def recording_session(simulation, *args, **kwargs):
            options = simulation.options
            opened.append(
                (
                    options.keep_request_records,
                    options.keep_stage_records,
                    options.share_pool_per_processor,
                )
            )
            return open_session(simulation, *args, **kwargs)

        monkeypatch.setattr(ServingSimulation, "session", recording_session)
        cell = SweepCell.make("coserve", "numa", "A1", **overrides)
        result = execute_cell(tiny_context, cell, keep_requests=keep_requests)
        assert opened == [expected]
        assert bool(result.requests) is keep_requests

    def test_options_override_is_honoured(self, tiny_context):
        cell = SweepCell.make("coserve-best", "numa", "A1", options=self.PRIVATE_POOLS)
        result = execute_cell(tiny_context, cell)
        assert result == _serve_via_session(tiny_context, cell)
        shared = execute_cell(tiny_context, SweepCell.make("coserve-best", "numa", "A1"))
        assert result != shared, "private pools must change this row"

    @pytest.mark.parametrize("metric", ["service", "end_to_end"])
    @pytest.mark.parametrize("target_ms, aborts", [(0.5, True), (1e12, False)])
    def test_slo_cell_matches_a_records_kept_serve(self, tiny_context, metric, target_ms, aborts):
        cell = SweepCell.make(
            "coserve", "numa", "A1", slo_target_ms=target_ms, slo_percentile=50.0, slo_metric=metric
        )
        result = execute_cell(tiny_context, cell)
        assert result.aborted is aborts
        assert result == _serve_via_session(tiny_context, cell)


class TestRunIter:
    """run_iter streams (cell, result) pairs; run() is a drain over it."""

    def test_serial_streaming_yields_in_grid_order(self, tiny_context):
        grid = EXPERIMENT_GRIDS["figure13"](TINY_SETTINGS)
        runner = SweepRunner(context=tiny_context)
        results = SweepResults()
        streamed = list(runner.run_iter(grid, results=results))
        assert [cell for cell, _ in streamed] == list(grid.cells)
        assert len(results) == len(grid)
        for cell, result in streamed:
            assert results[cell] == result

    def test_streamed_results_match_run(self):
        grid = EXPERIMENT_GRIDS["figure13"](TINY_SETTINGS)
        drained = SweepRunner(settings=TINY_SETTINGS).run(grid)
        streamed = SweepResults()
        for _ in SweepRunner(settings=TINY_SETTINGS).run_iter(grid, results=streamed):
            pass
        assert len(drained) == len(streamed) == len(grid)
        for cell in grid:
            assert drained[cell] == streamed[cell], f"cell {cell.label()} diverged"

    def test_parallel_streaming_matches_serial_cell_for_cell(self):
        grid = EXPERIMENT_GRIDS["figure13"](TINY_SETTINGS)
        serial = SweepRunner(settings=TINY_SETTINGS).run(grid)
        parallel = SweepResults()
        yielded = list(SweepRunner(settings=TINY_SETTINGS, jobs=2).run_iter(grid, results=parallel))
        # completion order may differ, but the keyed results may not
        assert {cell.key for cell, _ in yielded} == {cell.key for cell in grid}
        for cell in grid:
            assert serial[cell] == parallel[cell], f"cell {cell.label()} diverged"

    def test_cells_already_present_are_not_yielded(self, tiny_context):
        grid = EXPERIMENT_GRIDS["figure13"](TINY_SETTINGS)
        results = SweepResults()
        results.add(grid.cells[0], "already-there")
        streamed = list(SweepRunner(context=tiny_context).run_iter(grid, results=results))
        assert grid.cells[0] not in {cell for cell, _ in streamed}
        assert len(streamed) == len(grid) - 1


class TestSweepCache:
    def test_round_trip_skips_execution(self, tmp_path, tiny_context):
        grid = EXPERIMENT_GRIDS["figure13"](TINY_SETTINGS)
        first_cache = SweepCache(str(tmp_path), TINY_SETTINGS)
        first = SweepRunner(context=tiny_context, cache=first_cache).run(grid)
        assert first_cache.stores == len(grid)
        assert first_cache.hits == 0

        # a fresh runner over the same directory loads every cell
        second_cache = SweepCache(str(tmp_path), TINY_SETTINGS)
        executed = []
        second = SweepResults()
        for cell, _ in SweepRunner(settings=TINY_SETTINGS, cache=second_cache).run_iter(
            grid, results=second
        ):
            executed.append(cell)
        assert second_cache.hits == len(grid)
        assert second_cache.stores == 0
        assert len(executed) == len(grid)  # hits are still yielded (for progress)
        for cell in grid:
            assert first[cell] == second[cell]

    def test_settings_change_invalidates_the_key(self, tmp_path, tiny_context):
        cell = SweepCell.make("coserve-best", "numa", "A1")
        cache = SweepCache(str(tmp_path), TINY_SETTINGS)
        cache.store(cell, execute_cell(tiny_context, cell))
        changed = dataclasses.replace(TINY_SETTINGS, seed=1234)
        assert settings_fingerprint(changed) != settings_fingerprint(TINY_SETTINGS)
        other_cache = SweepCache(str(tmp_path), changed)
        assert other_cache.load(cell) is None
        assert SweepCache(str(tmp_path), TINY_SETTINGS).load(cell) is not None

    def test_selection_only_fields_do_not_invalidate(self, tmp_path, tiny_context):
        """Cells depend on their own coordinates, so changing which
        devices/tasks a run *selects* must reuse the shared cells."""
        cell = SweepCell.make("coserve-best", "numa", "A1")
        cache = SweepCache(str(tmp_path), TINY_SETTINGS)
        cache.store(cell, execute_cell(tiny_context, cell))
        widened = dataclasses.replace(
            TINY_SETTINGS, devices=("numa", "uma"), task_names=("A1", "A2", "B1")
        )
        assert settings_fingerprint(widened) == settings_fingerprint(TINY_SETTINGS)
        assert SweepCache(str(tmp_path), widened).load(cell) is not None

    def test_corrupt_entry_degrades_to_miss(self, tmp_path, tiny_context):
        cell = SweepCell.make("coserve-best", "numa", "A1")
        cache = SweepCache(str(tmp_path), TINY_SETTINGS)
        cache.store(cell, execute_cell(tiny_context, cell))
        with open(cache.path_for(cell), "wb") as handle:
            handle.write(b"not a pickle")
        assert cache.load(cell) is None
        assert cache.misses == 1

    def test_corrupt_entry_is_repaired_by_the_next_run(self, tmp_path, tiny_context):
        """A file that exists but fails verify-on-load must be rewritten
        by the re-execution — not left to force a miss on every run."""
        cell = SweepCell.make("coserve-best", "numa", "A1")
        grid = SweepGrid.single(cell)
        cache = SweepCache(str(tmp_path), TINY_SETTINGS)
        first = SweepRunner(context=tiny_context, cache=cache).run(grid)[cell]
        with open(cache.path_for(cell), "wb") as handle:
            handle.write(b"not a pickle")
        repaired_cache = SweepCache(str(tmp_path), TINY_SETTINGS)
        SweepRunner(context=tiny_context, cache=repaired_cache).run(grid)
        assert repaired_cache.stores == 1, "corrupt entry was not rewritten"
        assert SweepCache(str(tmp_path), TINY_SETTINGS).load(cell) == first


    def test_store_refuses_results_with_requests(self, tiny_context, tmp_path):
        """The cache holds request-stripped results only; a request-laden
        entry would be served to every later stripped run."""
        cell = SweepCell.make("coserve-best", "numa", "A1")
        cache = SweepCache(str(tmp_path), TINY_SETTINGS)
        with pytest.raises(ValueError, match="request-stripped"):
            cache.store(cell, execute_cell(tiny_context, cell, keep_requests=True))
        assert len(cache) == 0
        cache.store(cell, execute_cell(tiny_context, cell))
        assert len(cache) == 1


class TestSeedPlumbing:
    def test_seed_reaches_the_workload_generator(self):
        seeded = EvaluationContext(dataclasses.replace(TINY_SETTINGS, seed=777))
        default = EvaluationContext(TINY_SETTINGS)
        assert seeded.stream("A1").seed == 777
        assert default.stream("A1").seed == seeded.task("A1").seed
        assert seeded.stream("A1").requests != default.stream("A1").requests

    def test_same_seed_reproduces_rows_across_fresh_runs(self):
        settings = dataclasses.replace(TINY_SETTINGS, seed=777)
        first = run_experiments(["figure13"], settings)
        second = run_experiments(["figure13"], settings)
        assert first[0][1].rows == second[0][1].rows


class TestObserverEquivalence:
    """The ISSUE's contract: zero observers, metrics/timeline observers
    and the legacy ``run()`` produce identical results for every cell of
    every registered experiment grid."""

    def test_every_registered_grid_is_observer_invariant(self, tiny_context):
        grid = collect_grid(sorted(EXPERIMENTS), TINY_SETTINGS)
        assert grid, "the registry must declare at least one sweep cell"
        for cell in grid:
            legacy = execute_cell(tiny_context, cell)
            bare = _serve_via_session(tiny_context, cell)
            observed = _serve_via_session(
                tiny_context, cell, observers=[TimelineObserver(), MetricsObserver()]
            )
            assert bare == legacy, f"zero-observer session diverged on {cell.label()}"
            assert observed == legacy, f"observed session diverged on {cell.label()}"


class TestDeterminism:
    """Serial, parallel and distributed sweeps must be indistinguishable
    row-for-row for every registered experiment."""

    @pytest.fixture(scope="class")
    def serial_and_parallel(self):
        names = sorted(EXPERIMENTS)
        serial = run_experiments(names, TINY_SETTINGS, jobs=1, experiment_kwargs=TINY_KWARGS)
        parallel = run_experiments(names, TINY_SETTINGS, jobs=2, experiment_kwargs=TINY_KWARGS)
        return serial, parallel

    @pytest.fixture(scope="class")
    def worker_pool(self):
        with spawn_local_workers(2) as pool:
            yield pool

    def test_every_experiment_has_identical_rows(self, serial_and_parallel):
        serial, parallel = serial_and_parallel
        assert [name for name, _, _ in serial] == [name for name, _, _ in parallel]
        for (name, serial_result, _), (_, parallel_result, _) in zip(serial, parallel):
            assert isinstance(serial_result, ExperimentResult)
            assert serial_result.rows == parallel_result.rows, f"{name} rows diverged"
            assert serial_result.notes == parallel_result.notes, f"{name} notes diverged"

    def test_distributed_run_has_identical_rows(self, serial_and_parallel, worker_pool):
        """Rows from a 2-localhost-worker distributed sweep are byte-identical
        to the serial rows for every registered experiment."""
        serial, _ = serial_and_parallel
        names = sorted(EXPERIMENTS)
        distributed = run_experiments(
            names, TINY_SETTINGS, hosts=worker_pool.hosts, experiment_kwargs=TINY_KWARGS
        )
        assert [name for name, _, _ in serial] == [name for name, _, _ in distributed]
        for (name, serial_result, _), (_, distributed_result, _) in zip(serial, distributed):
            assert serial_result.rows == distributed_result.rows, f"{name} rows diverged"
            assert serial_result.notes == distributed_result.notes, f"{name} notes diverged"

    def test_parallel_sweep_results_match_serial_cell_for_cell(self):
        grid = collect_grid(sorted(EXPERIMENTS), TINY_SETTINGS)
        serial = SweepRunner(settings=TINY_SETTINGS).run(grid)
        parallel = SweepRunner(settings=TINY_SETTINGS, jobs=2).run(grid)
        assert len(serial) == len(parallel) == len(grid)
        for cell in grid:
            assert serial[cell] == parallel[cell], f"cell {cell.label()} diverged"

    def test_distributed_sweep_results_match_serial_cell_for_cell(self, worker_pool):
        grid = collect_grid(sorted(EXPERIMENTS), TINY_SETTINGS)
        serial = SweepRunner(settings=TINY_SETTINGS).run(grid)
        distributed = SweepRunner(settings=TINY_SETTINGS, hosts=worker_pool.hosts).run(grid)
        assert len(serial) == len(distributed) == len(grid)
        for cell in grid:
            assert serial[cell] == distributed[cell], f"cell {cell.label()} diverged"

    def test_union_grid_is_smaller_than_sum_of_figure_grids(self):
        names = sorted(EXPERIMENTS)
        individual = sum(len(EXPERIMENT_GRIDS[name](TINY_SETTINGS)) for name in names)
        union = len(collect_grid(names, TINY_SETTINGS))
        # Figures 13/14 and 15/16 declare identical grids, so the union
        # must be well below the naive total.
        assert union <= individual - len(COMPARISON_SYSTEMS) - len(ABLATION_SYSTEMS)


class TestCLI:
    def test_json_format_is_parseable(self, capsys):
        assert cli_main(["figure01", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "Figure 1" and payload["rows"]

    def test_json_format_for_several_experiments_is_one_array(self, capsys):
        assert cli_main(["figure01", "table01", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [entry["name"] for entry in payload] == ["Figure 1", "Table 1"]

    def test_csv_format_has_header_and_rows(self, capsys):
        assert cli_main(["table01", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) >= 3  # header + one row per device

    def test_output_directory_receives_one_file_per_experiment(self, tmp_path, capsys):
        assert (
            cli_main(
                ["figure01", "table01", "--format", "json", "--output", str(tmp_path)]
            )
            == 0
        )
        written = sorted(path.name for path in tmp_path.iterdir())
        assert written == ["figure01.json", "table01.json"]
        payload = json.loads((tmp_path / "figure01.json").read_text())
        assert payload["name"] == "Figure 1"

    def test_jobs_flag_runs_parallel_sweep(self, capsys):
        exit_code = cli_main(
            [
                "figure13",
                "--devices",
                "numa",
                "--tasks",
                "A1",
                "--requests",
                "120",
                "--jobs",
                "2",
            ]
        )
        assert exit_code == 0
        assert "CoServe Best" in capsys.readouterr().out

    def test_rejects_non_positive_jobs(self):
        with pytest.raises(SystemExit):
            cli_main(["table01", "--jobs", "0"])

    def test_progress_reports_cells_and_rows_on_stderr(self, capsys):
        exit_code = cli_main(
            ["figure13", "--devices", "numa", "--tasks", "A1", "--requests", "120", "--progress"]
        )
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "[sweep " in captured.err and "cells]" in captured.err
        assert "[figure13: " in captured.err and "rows]" in captured.err
        assert "[sweep" not in captured.out  # stdout stays machine-readable

    def test_cache_flag_reuses_cells_across_invocations(self, tmp_path, capsys):
        arguments = [
            "figure13",
            "--devices",
            "numa",
            "--tasks",
            "A1",
            "--requests",
            "120",
            "--progress",
            "--cache",
            str(tmp_path),
        ]
        assert cli_main(arguments) == 0
        first = capsys.readouterr()
        assert "from cache" not in first.err
        assert cli_main(arguments) == 0
        second = capsys.readouterr()
        assert "(5 from cache)" in second.err
        assert first.out == second.out  # cached rows render identically

    def test_seed_flag_changes_the_workload(self, capsys):
        base = ["figure13", "--devices", "numa", "--tasks", "A1", "--requests", "120"]
        assert cli_main(base + ["--seed", "7"]) == 0
        seeded_once = capsys.readouterr().out
        assert cli_main(base + ["--seed", "7"]) == 0
        seeded_again = capsys.readouterr().out
        assert cli_main(base) == 0
        default = capsys.readouterr().out
        assert seeded_once == seeded_again  # reproducible end to end
        assert seeded_once != default  # and actually plumbed through
