"""Benchmark: two-stage surrogate pruning vs exhaustive sweeping.

The tentpole claim of the two-stage sweep is wall-clock: scoring a cell
with the queueing surrogate costs milliseconds (pure arithmetic over a
features bundle) while simulating it costs seconds, so pruning the
predictably-bad 75% of a large one-(device, task) grid should shrink
the sweep by nearly 4x.  This benchmark times an exhaustive serial
sweep and a ``prune_fraction=0.75`` sweep over the same ~49-cell grid —
nine registered systems plus CoServe configuration variants (scheduler
latency, executor counts, expert-placement fractions) on (numa, A1) —
and asserts:

- the pruned sweep is at least :data:`MIN_PRUNE_SPEEDUP` times faster
  (the floor leaves room for surrogate scoring and shared profiling,
  which both runs pay);
- every surviving cell's result is byte-identical to the exhaustive
  run's (pruning must never perturb what it keeps);
- the pruned fraction is exactly what was asked for.

Beside the timed floor, deterministic checks run on (numa, B2) at
:data:`COUNTED_REQUESTS` requests per cell; none depends on the
machine, so each catches its regression even when the wall-clock ratio
is noisy:

- :func:`test_surrogate_prune_simulates_only_survivors` counts what the
  prune of the same grid simulates: exactly the survivors, once each;
- :func:`test_surrogate_prune_sessions_keep_no_records` checks that
  every session that prune opens keeps neither request nor stage
  records;
- :func:`test_cells_and_tuning_replays_leave_no_records_for_the_collector`
  runs a sweep cell and two tuning replays with the cyclic garbage
  collector off and finds no request or stage record left for
  ``gc.collect()``.  A finished simulation sits in reference cycles,
  so records it kept would wait for a full collection.

Measured numbers are recorded to ``BENCH_sweeps.json`` alongside the
executor benchmarks.  ``COSERVE_BENCH_FULL_SCALE=1`` uses the paper's
full request counts.
"""

from __future__ import annotations

import collections
import gc
import os
import pickle
import time

import pytest

from recorder import BENCH_SWEEPS_FILE, record_bench_result
from repro.experiments.base import EvaluationContext, EvaluationSettings
from repro.serving.coserve import DEFAULT_GPU_EXPERT_COUNT
from repro.serving.tuning import measure_throughput, sweep_executor_configurations
from repro.simulation.engine import ServingSimulation
from repro.simulation.request import SimRequest, StageRecord
from repro.sweeps import SweepCell, SweepGrid, SweepRunner, runner

#: Required wall-clock reduction of the pruned sweep (the ISSUE's floor).
MIN_PRUNE_SPEEDUP = 3.0

#: Fraction of each (device, task) group the surrogate stage cuts.
PRUNE_FRACTION = 0.75

#: Requests per cell of the deterministic count beside the timed floor.
COUNTED_REQUESTS = 400


def _full_scale() -> bool:
    return os.environ.get("COSERVE_BENCH_FULL_SCALE", "0") not in ("", "0", "false", "False")


def _settings() -> EvaluationSettings:
    return EvaluationSettings(
        full_scale=_full_scale(),
        reduced_requests=3500,
        devices=("numa",),
        task_names=("B2",),
    )


def _large_grid() -> SweepGrid:
    """~49 cells on one (device, task) pair.

    A single pair keeps board/model/matrix profiling identical across
    both timed runs, so the measured difference is purely
    simulate-everything vs simulate-survivors.
    """
    cells = [
        SweepCell.make(system, "numa", "B2")
        for system in (
            "samba-coe",
            "samba-coe-fifo",
            "samba-coe-parallel",
            "coserve-best",
            "coserve-casual",
            "coserve-none",
            "coserve-em",
            "coserve-em-ra",
            "coserve",
        )
    ]
    for scheduling_latency_ms in (0.0, 1.0, 2.0, 4.0, 8.0):
        for gpu_executors in (1, 2, 3, 4):
            cells.append(
                SweepCell.make(
                    "coserve-best",
                    "numa",
                    "B2",
                    scheduling_latency_ms=scheduling_latency_ms,
                    gpu_executors=gpu_executors,
                )
            )
    for gpu_expert_fraction in (0.25, 0.5, 0.6, 0.75, 0.9):
        for cpu_executors in (1, 2):
            cells.append(
                SweepCell.make(
                    "coserve-casual",
                    "numa",
                    "B2",
                    gpu_expert_fraction=gpu_expert_fraction,
                    cpu_executors=cpu_executors,
                )
            )
    for system in ("coserve-none", "coserve-em"):
        for gpu_executors in (1, 2, 3, 4):
            cells.append(
                SweepCell.make(system, "numa", "B2", gpu_executors=gpu_executors)
            )
    for scheduling_latency_ms in (0.0, 2.0):
        cells.append(
            SweepCell.make(
                "coserve", "numa", "B2", scheduling_latency_ms=scheduling_latency_ms
            )
        )
    return SweepGrid.union(*(SweepGrid.single(cell) for cell in cells))


def _warm_caches() -> None:
    """Warm OS/profiling caches outside the timed regions.

    The first simulation of a (device, task) pair pays one-time costs
    (imports, profiled-matrix construction, page cache) that would land
    asymmetrically on whichever timed run goes first.
    """
    warm = EvaluationSettings(
        full_scale=False,
        reduced_requests=100,
        devices=("numa",),
        task_names=("B2",),
    )
    SweepRunner(settings=warm).run(
        SweepGrid.single(SweepCell.make("coserve", "numa", "B2"))
    )


def test_surrogate_prune_speedup():
    settings = _settings()
    grid = _large_grid()
    _warm_caches()

    start = time.perf_counter()
    exhaustive = SweepRunner(settings=settings).run(grid)
    exhaustive_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    pruned_runner = SweepRunner(settings=settings, prune_fraction=PRUNE_FRACTION)
    pruned = pruned_runner.run(grid)
    pruned_elapsed = time.perf_counter() - start

    pruned_cells = [cell for cell in grid if pruned.is_pruned(cell)]
    survivors = [cell for cell in grid if not pruned.is_pruned(cell)]
    assert len(pruned_cells) == int(len(grid) * PRUNE_FRACTION)
    assert len(pruned) == len(exhaustive) == len(grid)

    for cell in survivors:
        assert pickle.dumps(pruned[cell]) == pickle.dumps(exhaustive[cell]), (
            f"surviving cell {cell.label()} diverged from the exhaustive run"
        )

    speedup = exhaustive_elapsed / pruned_elapsed
    print(
        f"\nsurrogate prune: exhaustive {exhaustive_elapsed:.2f}s, "
        f"pruned ({PRUNE_FRACTION:.0%}) {pruned_elapsed:.2f}s, "
        f"speedup {speedup:.2f}x "
        f"({len(grid)} cells, {len(survivors)} simulated)"
    )
    record_bench_result(
        "sweep_surrogate_prune",
        {
            "cells": len(grid),
            "pruned_cells": len(pruned_cells),
            "simulated_cells": len(survivors),
            "prune_fraction": PRUNE_FRACTION,
            "exhaustive_seconds": round(exhaustive_elapsed, 3),
            "pruned_seconds": round(pruned_elapsed, 3),
            "speedup": round(speedup, 3),
            "min_speedup_asserted": MIN_PRUNE_SPEEDUP,
        },
        path=BENCH_SWEEPS_FILE,
    )
    assert speedup >= MIN_PRUNE_SPEEDUP, (
        f"surrogate pruning speedup regressed: {speedup:.2f}x < {MIN_PRUNE_SPEEDUP}x "
        f"(exhaustive {exhaustive_elapsed:.2f}s, pruned {pruned_elapsed:.2f}s at "
        f"prune_fraction={PRUNE_FRACTION})"
    )


def _counted_settings() -> EvaluationSettings:
    return EvaluationSettings(
        full_scale=False,
        reduced_requests=COUNTED_REQUESTS,
        devices=("numa",),
        task_names=("B2",),
    )


@pytest.fixture(scope="module")
def counted_prune():
    """One prune of the grid, counting the cells it simulates and the
    record options of every session it opens."""
    grid = _large_grid()
    simulated = collections.Counter()
    requests = []
    session_records = []
    execute_cell = runner.execute_cell
    open_session = ServingSimulation.session

    def counting_execute_cell(context, cell, *args, **kwargs):
        result = execute_cell(context, cell, *args, **kwargs)
        simulated[cell.key] += 1
        requests.append(result.num_requests)
        return result

    def recording_session(simulation, *args, **kwargs):
        options = simulation.options
        session_records.append((options.keep_request_records, options.keep_stage_records))
        return open_session(simulation, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner, "execute_cell", counting_execute_cell)
        patch.setattr(ServingSimulation, "session", recording_session)
        pruned = SweepRunner(settings=_counted_settings(), prune_fraction=PRUNE_FRACTION).run(grid)
    survivors = [cell.key for cell in grid if not pruned.is_pruned(cell)]
    return grid, survivors, simulated, requests, session_records


def test_surrogate_prune_simulates_only_survivors(counted_prune):
    """The prune simulates its 13 survivors once each, and nothing else."""
    grid, survivors, simulated, requests, _ = counted_prune
    assert len(grid) == 49 and len(survivors) == 13
    assert simulated == collections.Counter(survivors)
    assert sum(requests) == 13 * COUNTED_REQUESTS == 5200


def test_surrogate_prune_sessions_keep_no_records(counted_prune):
    """Every session the prune opens keeps neither kind of record."""
    _, survivors, _, _, session_records = counted_prune
    assert session_records == [(False, False)] * len(survivors)


def _records_left_for_the_collector() -> collections.Counter:
    """``SimRequest`` and ``StageRecord`` counts a full collection finds.

    The collection saves what it finds unreachable in ``gc.garbage``
    instead of freeing it; the records are counted, then freed.
    """
    flags = gc.get_debug()
    start = len(gc.garbage)
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return collections.Counter(
            type(obj).__name__
            for obj in gc.garbage[start:]
            if isinstance(obj, (SimRequest, StageRecord))
        )
    finally:
        gc.set_debug(flags)
        del gc.garbage[start:]
        gc.collect()


def test_cells_and_tuning_replays_leave_no_records_for_the_collector():
    """A sweep cell and the tuning replays free their records as they go."""
    context = EvaluationContext(_counted_settings())
    device = context.device("numa")
    _, model = context.board_and_model("B2")
    usage = context.usage_profile("B2")
    stream = context.stream("B2")
    matrix = context.performance_matrix("numa", "B2")
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        runner.execute_cell(context, SweepCell.make("coserve-best", "numa", "B2"))
        after_cell = _records_left_for_the_collector()
        measure_throughput(
            device, model, usage, stream,
            gpu_expert_count=DEFAULT_GPU_EXPERT_COUNT["numa"], performance_matrix=matrix,
        )
        after_replay = _records_left_for_the_collector()
        sweep_executor_configurations(
            device, model, usage, stream, [(1, 1)], performance_matrix=matrix
        )
        after_sweep = _records_left_for_the_collector()
    finally:
        if enabled:
            gc.enable()
    assert after_cell == collections.Counter(), f"execute_cell left {dict(after_cell)}"
    assert after_replay == collections.Counter(), f"measure_throughput left {dict(after_replay)}"
    assert after_sweep == collections.Counter(), (
        f"sweep_executor_configurations left {dict(after_sweep)}"
    )
