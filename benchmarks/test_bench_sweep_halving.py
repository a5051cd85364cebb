"""Benchmark: guided successive-halving sweep vs one-shot pruning.

The tentpole claim of the guided sweep is wall-clock at equal
confidence: to hand back a *measured* top-k of a large grid, the PR 7
one-shot prune must simulate every rung-0 survivor at full fidelity,
while the halving ladder first measures those survivors at a cheap
reduced request count and only escalates the measured-best fraction to
full fidelity.  Both pipelines here end with the same number of
full-fidelity finalists (k = 13 of a 49-cell (numa, B2) grid):

- **one-shot** — ``prune_fraction=0.49`` keeps 25 cells, all simulated
  at full fidelity, then ranked on measured makespan and cut to 13;
- **halving** — ``HalvingConfig(rungs=2, keep_fraction=0.51,
  min_requests=150)`` keeps the same 25 past rung 0, measures them at
  150 requests, and simulates only the measured-best 13 at full
  fidelity.

The halving run must be at least :data:`MIN_HALVING_SPEEDUP` times
faster; finalists shared by both pipelines must be byte-identical
(both are ordinary full-fidelity rows).  A separate reduced-scale check
pins the final-rung rows byte-identical to an exhaustive run across all
three executor backends (serial, process pool, distributed workers).

Beside the timed floor, :func:`test_halving_simulates_only_its_finalists_at_full_fidelity`
counts what each pipeline simulates on the same grid at
:data:`COUNTED_REQUESTS` requests per cell.  The count does not depend
on the machine, so it catches a ladder that pays for more
full-fidelity work even when the wall-clock ratio is noisy.

Measured numbers are recorded to ``BENCH_sweeps.json`` alongside the
other sweep benchmarks.  ``COSERVE_BENCH_FULL_SCALE=1`` uses the
paper's full request counts.
"""

from __future__ import annotations

import collections
import os
import pickle
import time

import pytest

from recorder import BENCH_SWEEPS_FILE, record_bench_result
from repro.experiments.base import EvaluationSettings
from repro.sweeps import (
    HalvingConfig,
    HalvingRunner,
    SweepCell,
    SweepGrid,
    SweepRunner,
    runner,
)
from repro.sweeps.worker import spawn_local_workers

#: Required wall-clock reduction of halving over one-shot pruning at
#: equal final top-k (the ISSUE's floor; ~1.9x measured).
MIN_HALVING_SPEEDUP = 1.5

#: One-shot keeps int(49 * 0.49) = 24 pruned -> 25 survivors; halving
#: keeps ceil(49 * 0.51) = 25 past rung 0 and ceil(25 * 0.51) = 13 past
#: the measured rung, so both pipelines produce a measured top-13.
ONE_SHOT_PRUNE_FRACTION = 0.49
HALVING_CONFIG = HalvingConfig(rungs=2, keep_fraction=0.51, min_requests=150)
FINAL_TOP_K = 13

#: Requests per full-fidelity cell of the deterministic count beside
#: the timed floor.
COUNTED_REQUESTS = 400


def _full_scale() -> bool:
    return os.environ.get("COSERVE_BENCH_FULL_SCALE", "0") not in ("", "0", "false", "False")


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def _settings(reduced_requests: int = 3500) -> EvaluationSettings:
    return EvaluationSettings(
        full_scale=_full_scale(),
        reduced_requests=reduced_requests,
        devices=("numa",),
        task_names=("B2",),
    )


def _large_grid() -> SweepGrid:
    """The PR 7 benchmark's ~49-cell (numa, B2) grid, reused verbatim.

    One (device, task) pair keeps board/model/matrix profiling identical
    across the timed runs, so the measured difference is purely how many
    full-fidelity simulations each pipeline pays for.
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
    """Warm OS/profiling caches outside the timed regions."""
    warm = EvaluationSettings(
        full_scale=False,
        reduced_requests=100,
        devices=("numa",),
        task_names=("B2",),
    )
    SweepRunner(settings=warm).run(
        SweepGrid.single(SweepCell.make("coserve", "numa", "B2"))
    )


def _measured_top_k(results, cells, k):
    """The k cells with the best (lowest) measured makespan."""
    simulated = [cell for cell in cells if not results.is_pruned(cell)]
    ranked = sorted(simulated, key=lambda cell: results[cell].makespan_ms)
    return ranked[:k]


@pytest.mark.skipif(
    _usable_cores() < 2,
    reason="wall-clock comparison needs >= 2 usable cores to be meaningful",
)
def test_halving_speedup_over_one_shot_prune():
    settings = _settings()
    grid = _large_grid()
    _warm_caches()

    start = time.perf_counter()
    one_shot = SweepRunner(
        settings=settings, prune_fraction=ONE_SHOT_PRUNE_FRACTION
    ).run(grid)
    one_shot_elapsed = time.perf_counter() - start
    one_shot_simulated = [cell for cell in grid if not one_shot.is_pruned(cell)]
    one_shot_top = _measured_top_k(one_shot, grid, FINAL_TOP_K)

    start = time.perf_counter()
    runner = HalvingRunner(settings=settings, config=HALVING_CONFIG)
    halved = runner.run(grid)
    halving_elapsed = time.perf_counter() - start
    finalists = [cell for cell in grid if not halved.is_pruned(cell)]

    # Equal final top-k: both pipelines hand back the same number of
    # measured full-fidelity finalists.
    assert len(finalists) == len(one_shot_top) == FINAL_TOP_K
    assert halved.drift_report is not None
    assert len(halved.drift_report.rungs) == HALVING_CONFIG.rungs

    # Finalists both pipelines kept are ordinary full-fidelity rows and
    # must agree byte for byte.
    overlap = [
        cell for cell in finalists if cell.key in {c.key for c in one_shot_top}
    ]
    for cell in overlap:
        assert pickle.dumps(halved[cell]) == pickle.dumps(one_shot[cell]), (
            f"finalist {cell.label()} diverged between pipelines"
        )

    speedup = one_shot_elapsed / halving_elapsed
    print(
        f"\nhalving sweep: one-shot {one_shot_elapsed:.2f}s "
        f"({len(one_shot_simulated)} full cells), "
        f"halving {halving_elapsed:.2f}s "
        f"({HALVING_CONFIG.min_requests}-request rung + {len(finalists)} full cells), "
        f"speedup {speedup:.2f}x, top-{FINAL_TOP_K} overlap {len(overlap)}"
    )
    record_bench_result(
        "sweep_halving",
        {
            "cells": len(grid),
            "one_shot_simulated": len(one_shot_simulated),
            "final_top_k": FINAL_TOP_K,
            "topk_overlap": len(overlap),
            "rungs": HALVING_CONFIG.rungs,
            "keep_fraction": HALVING_CONFIG.keep_fraction,
            "min_requests": HALVING_CONFIG.min_requests,
            "one_shot_seconds": round(one_shot_elapsed, 3),
            "halving_seconds": round(halving_elapsed, 3),
            "speedup": round(speedup, 3),
            "min_speedup_asserted": MIN_HALVING_SPEEDUP,
        },
        path=BENCH_SWEEPS_FILE,
    )
    assert speedup >= MIN_HALVING_SPEEDUP, (
        f"halving speedup regressed: {speedup:.2f}x < {MIN_HALVING_SPEEDUP}x "
        f"(one-shot {one_shot_elapsed:.2f}s, halving {halving_elapsed:.2f}s "
        f"at equal final top-{FINAL_TOP_K})"
    )


def _counted_settings() -> EvaluationSettings:
    return EvaluationSettings(
        full_scale=False,
        reduced_requests=COUNTED_REQUESTS,
        devices=("numa",),
        task_names=("B2",),
    )


def test_halving_simulates_only_its_finalists_at_full_fidelity():
    """Count the cells each pipeline simulates, and at how many requests.

    One-shot simulates its 25 rung-0 survivors once each at full
    fidelity.  Halving simulates the same 25 once each at the measured
    rung's request count, then only its 13 finalists at full fidelity,
    once each.  That difference in work is what the timed floor above
    measures.
    """
    grid = _large_grid()
    settings = _counted_settings()
    counts = []
    execute_cell = runner.execute_cell

    def counting_execute_cell(context, cell, *args, **kwargs):
        result = execute_cell(context, cell, *args, **kwargs)
        counts[-1][cell.key, result.num_requests] += 1
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner, "execute_cell", counting_execute_cell)
        counts.append(collections.Counter())
        one_shot = SweepRunner(
            settings=settings, prune_fraction=ONE_SHOT_PRUNE_FRACTION
        ).run(grid)
        counts.append(collections.Counter())
        halved = HalvingRunner(settings=settings, config=HALVING_CONFIG).run(grid)
    one_shot_simulated, halving_simulated = counts

    survivors = [cell for cell in grid if not one_shot.is_pruned(cell)]
    finalists = [cell for cell in grid if not halved.is_pruned(cell)]
    measured = HALVING_CONFIG.min_requests
    assert len(grid) == 49 and len(survivors) == 25 and len(finalists) == FINAL_TOP_K
    assert one_shot_simulated == collections.Counter(
        (cell.key, COUNTED_REQUESTS) for cell in survivors
    )
    assert halving_simulated == collections.Counter(
        [(cell.at_fidelity(measured).key, measured) for cell in survivors]
        + [(cell.key, COUNTED_REQUESTS) for cell in finalists]
    )


def test_final_rows_identical_across_backends():
    """Final-rung rows match an exhaustive run on every executor backend.

    Runs at a reduced request count — identity is scale-independent and
    the timed claim lives in the speedup benchmark above.
    """
    settings = _settings(reduced_requests=700)
    grid = _large_grid()

    serial = HalvingRunner(settings=settings, config=HALVING_CONFIG).run(grid)
    finalists = [cell for cell in grid if not serial.is_pruned(cell)]
    exhaustive = SweepRunner(settings=settings).run(
        SweepGrid.union(*(SweepGrid.single(cell) for cell in finalists))
    )

    pooled_runner = HalvingRunner(settings=settings, jobs=2, config=HALVING_CONFIG)
    try:
        pooled = pooled_runner.run(grid)
    finally:
        pooled_runner.close()
    with spawn_local_workers(2) as pool:
        distributed_runner = HalvingRunner(
            settings=settings, hosts=pool.hosts, config=HALVING_CONFIG
        )
        try:
            distributed = distributed_runner.run(grid)
        finally:
            distributed_runner.close()

    assert set(pooled.pruned_keys()) == set(serial.pruned_keys())
    assert set(distributed.pruned_keys()) == set(serial.pruned_keys())
    for cell in finalists:
        reference = pickle.dumps(exhaustive[cell])
        assert pickle.dumps(serial[cell]) == reference, cell.label()
        assert pickle.dumps(pooled[cell]) == reference, cell.label()
        assert pickle.dumps(distributed[cell]) == reference, cell.label()
