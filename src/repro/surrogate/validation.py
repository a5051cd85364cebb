"""Quantify surrogate error against the simulator, grid by grid.

The surrogate earns its place in the sweep pipeline only if its
*ranking* of cells agrees with the simulator's — pruning keeps the best
fraction of a grid, so rank correlation is the fidelity that matters —
and its absolute errors stay bounded enough for SLO-based pruning.
:func:`validate_grids` measures both on every registered experiment
grid: each cell is fully simulated (with per-request records, so true
latency percentiles are available) and scored by the surrogate, and the
per-grid report carries Spearman rank correlations plus relative-error
quantiles for throughput and tail latency.  ``tests/test_surrogate.py``
asserts the bounds; the numbers themselves feed ``docs/sweeps.md``.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.surrogate.features import extract_features
from repro.surrogate.model import QueueingSurrogate, SurrogateEstimate

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.base import EvaluationContext, EvaluationSettings
    from repro.simulation.results import SimulationResult
    from repro.sweeps.spec import SweepGrid


def _ranks(values: Sequence[float]) -> np.ndarray:
    """Average ranks (ties share the mean rank), as Spearman needs."""
    array = np.asarray(values, dtype=float)
    order = np.argsort(array, kind="mergesort")
    ranks = np.empty(len(array), dtype=float)
    i = 0
    while i < len(array):
        j = i
        while j + 1 < len(array) and array[order[j + 1]] == array[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman_rank_correlation(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman's rho between two metric vectors (ties averaged).

    Returns 1.0 for degenerate inputs (fewer than two points, or a
    constant vector): a ranking nothing can contradict is trivially
    preserved, and reports read better than a NaN.
    """
    if len(xs) != len(ys):
        raise ValueError("vectors must have equal length")
    if len(xs) < 2:
        return 1.0
    rx, ry = _ranks(xs), _ranks(ys)
    if np.allclose(rx, rx[0]) or np.allclose(ry, ry[0]):
        return 1.0
    return float(np.corrcoef(rx, ry)[0, 1])


def _agreement(measured: Sequence[float], predicted: Sequence[float]) -> Tuple[float, float, float]:
    """Spearman rho plus median and max relative error of ``predicted``.

    Relative errors are ``|predicted − measured| / measured``; a
    non-positive measurement contributes none (there is no meaningful
    relative error against zero), and with none left both read 0.
    Spearman is computed over every pair.
    """
    errors = [abs(p - m) / m for m, p in zip(measured, predicted) if m > 0.0] or [0.0]
    return (
        spearman_rank_correlation(measured, predicted),
        float(statistics.median(errors)),
        float(max(errors)),
    )


@dataclass(frozen=True)
class RungDrift:
    """Predicted-vs-measured agreement on one halving rung's rows.

    Errors are relative (``|predicted − measured| / measured``) over the
    rung's makespans and throughputs; the Spearman coefficients capture
    what rung escalation actually consumes (the *ranking* of the rows).
    ``num_requests`` is the rung's fidelity override (None at full
    fidelity) and ``recalibrated`` records whether the surrogate's
    calibration constants were refit from this rung's rows afterwards.
    """

    rung: int
    num_requests: Optional[int]
    cell_count: int
    makespan_spearman: float
    throughput_spearman: float
    median_makespan_error: float
    max_makespan_error: float
    median_throughput_error: float
    max_throughput_error: float
    recalibrated: bool = False

    def as_row(self) -> Dict[str, object]:
        """A flat dict form for figure tables and JSON output."""
        return {
            "rung": self.rung,
            "num_requests": "full" if self.num_requests is None else self.num_requests,
            "cells": self.cell_count,
            "makespan_spearman": round(self.makespan_spearman, 4),
            "throughput_spearman": round(self.throughput_spearman, 4),
            "median_makespan_error": round(self.median_makespan_error, 4),
            "max_makespan_error": round(self.max_makespan_error, 4),
            "median_throughput_error": round(self.median_throughput_error, 4),
            "max_throughput_error": round(self.max_throughput_error, 4),
            "recalibrated": self.recalibrated,
        }

    def summary(self) -> str:
        """One log-friendly line of the rung's drift numbers."""
        fidelity = "full" if self.num_requests is None else f"{self.num_requests} req"
        tail = " (surrogate recalibrated)" if self.recalibrated else ""
        return (
            f"rung {self.rung} ({fidelity}, {self.cell_count} cells): "
            f"spearman makespan={self.makespan_spearman:.2f} "
            f"thr={self.throughput_spearman:.2f}, "
            f"median err makespan={self.median_makespan_error:.0%} "
            f"thr={self.median_throughput_error:.0%}{tail}"
        )


@dataclass(frozen=True)
class DriftReport:
    """Predicted-vs-measured drift across a planned sweep's rungs.

    Built by the sweep planner (:func:`~repro.sweeps.halving.climb`)
    from each simulated rung's
    (estimate, measured result) pairs, surfaced on
    :class:`~repro.sweeps.results.SweepResults` and — via the
    experiments CLI — in the figure tables and ``--format json``
    output.  One :class:`RungDrift` per simulated rung, in rung order.
    """

    percentile: float
    rungs: Tuple[RungDrift, ...]

    def as_rows(self) -> List[Dict[str, object]]:
        """One flat dict per rung, ready for table/CSV/JSON rendering."""
        return [rung.as_row() for rung in self.rungs]

    def summary(self) -> str:
        """A multi-line log-friendly rendering of every rung's drift."""
        return "\n".join(rung.summary() for rung in self.rungs)


def rung_drift(
    rung: int,
    num_requests: Optional[int],
    pairs: Sequence[Tuple[SurrogateEstimate, "SimulationResult"]],
    recalibrated: bool = False,
) -> RungDrift:
    """Summarise one rung's (estimate, measured result) pairs.

    Pairs with a non-positive measurement contribute nothing to that
    metric's error quantiles (see :func:`_agreement`).
    """
    mk_rho, mk_median, mk_max = _agreement(
        [result.makespan_ms for _, result in pairs],
        [estimate.makespan_ms for estimate, _ in pairs],
    )
    thr_rho, thr_median, thr_max = _agreement(
        [result.throughput_rps for _, result in pairs],
        [estimate.throughput_rps for estimate, _ in pairs],
    )
    return RungDrift(
        rung=rung,
        num_requests=num_requests,
        cell_count=len(pairs),
        makespan_spearman=mk_rho,
        throughput_spearman=thr_rho,
        median_makespan_error=mk_median,
        max_makespan_error=mk_max,
        median_throughput_error=thr_median,
        max_throughput_error=thr_max,
        recalibrated=recalibrated,
    )


@dataclass(frozen=True)
class CellValidation:
    """One cell's simulated-vs-predicted comparison."""

    label: str
    simulated_throughput_rps: float
    predicted_throughput_rps: float
    simulated_latency_ms: float
    predicted_latency_ms: float
    estimate: SurrogateEstimate


@dataclass(frozen=True)
class GridValidationReport:
    """Surrogate fidelity over one experiment grid.

    Relative errors are ``|predicted − simulated| / simulated``; the
    median is the headline (tail cells can legitimately disagree — the
    simulator's transient effects are exactly what the surrogate
    abstracts away), and rank correlations capture what pruning relies
    on.
    """

    name: str
    percentile: float
    cells: Tuple[CellValidation, ...]
    throughput_spearman: float
    latency_spearman: float
    median_throughput_error: float
    median_latency_error: float
    max_throughput_error: float
    max_latency_error: float

    @property
    def cell_count(self) -> int:
        """Number of compared cells."""
        return len(self.cells)

    def summary(self) -> str:
        """One log-friendly line of the report's headline numbers."""
        return (
            f"{self.name}: {self.cell_count} cells, "
            f"spearman thr={self.throughput_spearman:.2f} "
            f"p{self.percentile:g}={self.latency_spearman:.2f}, "
            f"median err thr={self.median_throughput_error:.0%} "
            f"p{self.percentile:g}={self.median_latency_error:.0%}"
        )


def validate_grid(
    name: str,
    grid: "SweepGrid",
    context: "EvaluationContext",
    surrogate: Optional[QueueingSurrogate] = None,
    percentile: float = 99.0,
) -> GridValidationReport:
    """Compare surrogate predictions to full simulations on one grid.

    Every cell is simulated with per-request records kept, so the
    simulated latency percentile is exact; predictions come from
    :func:`~repro.surrogate.features.extract_features` +
    :meth:`~repro.surrogate.model.QueueingSurrogate.estimate` on the
    same shared context.
    """
    from repro.sweeps.runner import execute_cell

    surrogate = surrogate or QueueingSurrogate()
    cells: List[CellValidation] = []
    for cell in grid:
        estimate = surrogate.estimate(extract_features(context, cell))
        result = execute_cell(context, cell, keep_requests=True)
        latencies = [
            request.end_to_end_latency_ms
            for request in result.requests
            if request.end_to_end_latency_ms is not None
        ]
        simulated_latency = float(np.percentile(latencies, percentile)) if latencies else 0.0
        cells.append(
            CellValidation(
                label=cell.label(),
                simulated_throughput_rps=result.throughput_rps,
                predicted_throughput_rps=estimate.throughput_rps,
                simulated_latency_ms=simulated_latency,
                predicted_latency_ms=estimate.latency_ms(percentile),
                estimate=estimate,
            )
        )
    thr_rho, thr_median, thr_max = _agreement(
        [c.simulated_throughput_rps for c in cells],
        [c.predicted_throughput_rps for c in cells],
    )
    lat_rho, lat_median, lat_max = _agreement(
        [c.simulated_latency_ms for c in cells],
        [c.predicted_latency_ms for c in cells],
    )
    return GridValidationReport(
        name=name,
        percentile=percentile,
        cells=tuple(cells),
        throughput_spearman=thr_rho,
        latency_spearman=lat_rho,
        median_throughput_error=thr_median,
        median_latency_error=lat_median,
        max_throughput_error=thr_max,
        max_latency_error=lat_max,
    )


def validate_grids(
    settings: "EvaluationSettings",
    names: Optional[Sequence[str]] = None,
    context: Optional["EvaluationContext"] = None,
    surrogate: Optional[QueueingSurrogate] = None,
    percentile: float = 99.0,
) -> Dict[str, GridValidationReport]:
    """Run :func:`validate_grid` over registered experiment grids.

    Each grid is validated on the cells a sweep plan scores: sample
    cells (the offline tuning replays of Figures 17 and 18), which plans
    never score or cut, are left out.  ``names`` defaults to every
    registered experiment; one left with no cell under ``settings``
    (table analyses, profile figures, the tuning figures) is skipped.
    One shared context backs all grids, so boards, models and matrices
    are built once per (device, task).
    """
    from repro.experiments import EXPERIMENT_GRIDS
    from repro.experiments.base import EvaluationContext
    from repro.sweeps.spec import SweepGrid

    context = context or EvaluationContext(settings)
    surrogate = surrogate or QueueingSurrogate()
    reports: Dict[str, GridValidationReport] = {}
    for name in names if names is not None else sorted(EXPERIMENT_GRIDS):
        grid = SweepGrid(
            tuple(cell for cell in EXPERIMENT_GRIDS[name](settings) if cell.sample_size is None)
        )
        if not grid:
            continue
        reports[name] = validate_grid(
            name, grid, context, surrogate=surrogate, percentile=percentile
        )
    return reports
