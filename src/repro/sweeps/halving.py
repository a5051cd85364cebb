"""The sweep planner: one rung ladder behind every surrogate-guided sweep.

A plan (:class:`HalvingConfig`) decides which cells of a sweep are worth
simulating at full fidelity.  :class:`~repro.sweeps.runner.SweepRunner`
runs it between its cache preload and its executor:

1. **Rung 0 (free)** — every cell is scored by the
   :class:`~repro.surrogate.model.QueueingSurrogate`.  Cells predicted
   to miss the plan's ``slo_ms`` target are dropped; each (device, task)
   group then keeps its predicted-best ``keep_fraction``.
2. **Measured rungs** (``rungs > 1``) — survivors are simulated at a
   reduced request count (geometrically escalating from
   ``min_requests`` toward full fidelity).  Rung cells are ordinary
   :class:`~repro.sweeps.spec.SweepCell`s carrying a
   :meth:`~repro.sweeps.spec.SweepCell.at_fidelity` override, so they
   cache under their own identity and run on every backend.  After
   each rung the survivors are **re-ranked on measured makespans** and
   the surrogate's calibration constants are **refit from the rung's
   (predicted, measured) pairs**
   (:meth:`~repro.surrogate.model.QueueingSurrogate.recalibrated`).
3. **Final rung** — the remaining cells run at full fidelity with no
   override, byte-identical to an exhaustive run of the same cells.

A one-shot surrogate cut is the plan with ``rungs=1``: rung 0 followed
directly by the final rung (``SweepRunner(prune_fraction=f)`` builds
``HalvingConfig(rungs=1, keep_fraction=1 - f)``).  Every selection
point uses :func:`select_survivors`, so the keep count and the tie rule
are the same wherever cells are cut.

Dropped cells keep aborted placeholder rows (never cached) naming the
rung that dropped them; pinned cells ride through every rung.  A
:class:`~repro.surrogate.validation.DriftReport` recording
predicted-vs-measured error per simulated rung lands on the results
store (:attr:`~repro.sweeps.results.SweepResults.drift_report`) and
flows into the CLI's ``sweep_drift`` table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.simulation.results import SimulationResult
from repro.surrogate import (
    DriftReport,
    QueueingSurrogate,
    RungDrift,
    extract_features,
    rung_drift,
)
from repro.sweeps.cache import PRUNED_ABORT_PREFIX
from repro.sweeps.results import SweepResults
from repro.sweeps.spec import CellKey, SweepCell

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.surrogate.features import CellFeatures
    from repro.surrogate.model import SurrogateEstimate
    from repro.sweeps.runner import SweepRunner

#: Streams ``(cell, result)`` pairs, like ``SweepRunner.run_iter``.
_Rows = Iterator[Tuple[SweepCell, SimulationResult]]


@dataclass(frozen=True, slots=True)
class HalvingConfig:
    """A sweep plan: the shape of a successive-halving rung ladder.

    Parameters
    ----------
    rungs:
        Number of *simulated* rungs.  ``1`` is the one-shot surrogate
        cut followed by full-fidelity simulation; ``2`` (the default)
        inserts one measured low-fidelity rung between the surrogate
        and the final full-fidelity rung; higher values add
        intermediate fidelities on a geometric ramp.
    keep_fraction:
        Fraction of each (device, task) group's unpinned cells escalated
        past each selection point (one after the surrogate scoring, one
        after each low-fidelity rung).  At least one unpinned cell per
        group always survives; pinned cells are never dropped.
    min_requests:
        Request count of the cheapest simulated rung.  Later rungs
        escalate geometrically toward each task's full count; a rung
        whose computed count reaches the full count simply runs at full
        fidelity (no override), and its rows are carried into the final
        rung rather than re-simulated.
    percentile:
        Latency percentile the rung-0 surrogate ranking and ``slo_ms``
        read (the CLI's ``--prune-percentile``; measured rungs rank on
        makespan).
    slo_ms:
        Optional rung-0 target: unpinned cells whose predicted
        ``percentile`` latency exceeds it are dropped before the
        fractional cut, which then applies to what remains.  Composes
        with per-cell ``slo_target_ms`` overrides (surviving SLO cells
        still run under their early-abort monitor).
    """

    rungs: int = 2
    keep_fraction: float = 0.5
    min_requests: int = 150
    percentile: float = 99.0
    slo_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.rungs < 1:
            raise ValueError("rungs must be at least 1 (the full-fidelity rung)")
        if not 0.0 < self.keep_fraction <= 1.0:
            raise ValueError("keep_fraction must be within (0, 1]")
        if self.min_requests < 1:
            raise ValueError("min_requests must be a positive request count")
        if not 0.0 < self.percentile <= 100.0:
            raise ValueError("percentile must be within (0, 100]")
        if self.slo_ms is not None and self.slo_ms <= 0.0:
            raise ValueError("slo_ms must be positive")

    def request_count(self, rung: int, full_requests: int) -> Optional[int]:
        """The request count of ``rung`` (1-based) for a task's full count.

        Counts escalate geometrically from ``min_requests`` (rung 1) to
        the full count (the final rung, returned as ``None`` — no
        override).  A computed count at or above full fidelity also
        returns ``None``.
        """
        if rung < 1 or rung > self.rungs:
            raise ValueError(f"rung must be within [1, {self.rungs}]")
        if rung == self.rungs or self.min_requests >= full_requests:
            return None
        steps = self.rungs - 1
        ratio = (full_requests / self.min_requests) ** ((rung - 1) / steps)
        count = int(round(self.min_requests * ratio))
        if count >= full_requests:
            return None
        return max(self.min_requests, count)


@dataclass(frozen=True, slots=True)
class RungPlan:
    """One executed rung, for introspection and tests.

    ``cells`` are the cell keys alive when the rung started (rung 0 is
    the surrogate scoring pass over every to-run cell) and
    ``request_counts`` the per-cell fidelity each ran at — ``None``
    meaning no override: analytically scored on rung 0, full fidelity on
    later rungs.  Successive plans shrink monotonically: each rung's
    cell set is a subset of the previous rung's.
    """

    rung: int
    cells: Tuple[CellKey, ...]
    request_counts: Tuple[Optional[int], ...]


def select_survivors(
    alive: Sequence[SweepCell],
    scores: Mapping[CellKey, float],
    keep_fraction: float,
    limit: Optional[float] = None,
) -> Tuple[List[SweepCell], List[SweepCell]]:
    """Split ``alive`` into survivors and dropped cells, per group.

    Lower score is better.  Unpinned cells scoring above ``limit`` are
    dropped first.  Of the rest, each (device, task) group keeps its
    best ``ceil(n * keep_fraction)`` (at least one); the product is
    rounded to 1e-9 first, so float artefacts such as ``25 * 0.28 =
    7.000000000000001`` do not keep an extra cell.  Equal scores go to
    the cell earlier in ``alive``, so the selection is deterministic and
    backend-independent.  Pinned cells always survive.  Both lists keep
    ``alive``'s order.
    """
    groups: Dict[Tuple[str, str], List[Tuple[float, int, CellKey]]] = {}
    for index, cell in enumerate(alive):
        score = scores[cell.key]
        if not cell.pin and (limit is None or score <= limit):
            groups.setdefault((cell.device, cell.task), []).append((score, index, cell.key))
    kept: Set[CellKey] = set()
    for group in groups.values():
        group.sort()
        keep = max(1, math.ceil(round(len(group) * keep_fraction, 9)))
        kept.update(key for _, _, key in group[:keep])
    survivors = [cell for cell in alive if cell.pin or cell.key in kept]
    dropped = [cell for cell in alive if not cell.pin and cell.key not in kept]
    return survivors, dropped


def _pruned_placeholder(
    cell: SweepCell,
    features: "CellFeatures",
    estimate: "SurrogateEstimate",
    reason: str,
) -> SimulationResult:
    """A synthetic aborted result standing in for a dropped cell's run.

    The whole-run aggregates are the surrogate's predictions (so reports
    still show a ranked number for the cell) and the per-executor
    breakdown is empty — nothing was simulated.  The ``abort_reason``
    prefix is what :meth:`SweepCache.store` refuses, keeping placeholders
    out of the on-disk cache.
    """
    return SimulationResult(
        system_name=cell.system,
        device_name=cell.device,
        workload_name=cell.task,
        num_requests=features.num_requests,
        makespan_ms=estimate.makespan_ms,
        total_execution_ms=estimate.exec_work_ms,
        total_switching_ms=estimate.switch_work_ms,
        total_scheduling_ms=estimate.sched_work_ms,
        expert_loads=estimate.predicted_loads,
        expert_switches=estimate.predicted_loads,
        loads_from_ssd=0,
        loads_from_cache=0,
        executors=(),
        aborted=True,
        abort_reason=f"{PRUNED_ABORT_PREFIX}: {reason}",
    )


def climb(
    runner: "SweepRunner",
    plan: HalvingConfig,
    todo: List[SweepCell],
    results: SweepResults,
    execute: Callable[[List[SweepCell]], _Rows],
) -> _Rows:
    """Run ``plan`` over the cells ``todo``, yielding grid cells as resolved.

    ``todo`` are the cells the runner's cache preload missed.  Yields
    each selection point's dropped-cell placeholders as rungs complete,
    then the finalists' full-fidelity rows through ``execute`` (the
    runner's execute-and-store step).  Measured-rung rows stay internal
    (but cached, so a repeated sweep skips its cheap rungs too).  The
    executed ladder is left on ``runner.last_schedule`` and a
    :class:`~repro.surrogate.validation.DriftReport` on ``results``.
    """
    context = runner._scoring_context()
    surrogate = QueueingSurrogate()
    q = plan.percentile
    kept = f"ranks outside the kept {plan.keep_fraction:.0%} of its (device, task) group"
    features: Dict[CellKey, "CellFeatures"] = {}

    def drop(cell: SweepCell, rung: int, why: str) -> _Rows:
        reason = f"successive halving dropped it at rung {rung}: {why}"
        placeholder = _pruned_placeholder(
            cell, features[cell.key], results.estimate_for(cell), reason
        )
        if results.add(cell, placeholder):
            results.mark_pruned(cell)
            yield cell, placeholder

    # Rung 0: analytical scoring, free of simulation.
    scores: Dict[CellKey, float] = {}
    for cell in todo:
        features[cell.key] = extract_features(context, cell)
        estimate = surrogate.estimate(features[cell.key])
        results.record_estimate(cell, estimate)
        scores[cell.key] = estimate.latency_ms(q)
    runner.last_schedule.append(
        RungPlan(0, tuple(cell.key for cell in todo), (None,) * len(todo))
    )
    alive, dropped = select_survivors(todo, scores, plan.keep_fraction, plan.slo_ms)
    for cell in dropped:
        why = f"predicted p{q:g} latency {scores[cell.key]:.0f} ms"
        if plan.slo_ms is not None and scores[cell.key] > plan.slo_ms:
            yield from drop(cell, 0, f"{why} exceeds the {plan.slo_ms:g} ms target")
        else:
            yield from drop(cell, 0, f"{why} {kept}")

    # Measured rungs: simulate, refit the surrogate, re-rank on makespans.
    drift: List[RungDrift] = []
    carried: Dict[CellKey, SimulationResult] = {}
    for rung in range(1, plan.rungs):
        rung_cells: Dict[CellKey, SweepCell] = {}
        counts: List[Optional[int]] = []
        for cell in alive:
            full = runner.settings.requests_for(context.task(cell.task))
            count = plan.request_count(rung, full)
            counts.append(count)
            rung_cells[cell.key] = cell if count is None else cell.at_fidelity(count)
        runner.last_schedule.append(
            RungPlan(rung, tuple(cell.key for cell in alive), tuple(counts))
        )
        rung_results = SweepResults()
        for _ in runner._pipeline(list(rung_cells.values()), rung_results, None):
            pass
        pairs: List[Tuple["CellFeatures", SimulationResult]] = []
        for cell in alive:
            rung_cell = rung_cells[cell.key]
            row = rung_results[rung_cell]
            if rung_cell is cell:
                # The ramp reached full fidelity early for this task:
                # the row *is* the final-rung row; carry it forward
                # instead of re-simulating.
                carried[cell.key] = row
                pairs.append((features[cell.key], row))
            else:
                pairs.append((extract_features(context, rung_cell), row))
        estimates = [surrogate.estimate(rung_features) for rung_features, _ in pairs]
        refit = surrogate.recalibrated(pairs)
        recalibrated = refit is not surrogate
        surrogate = refit
        if recalibrated:
            for cell in alive:
                results.record_estimate(cell, surrogate.estimate(features[cell.key]))
        measured = [row for _, row in pairs]
        drift.append(
            rung_drift(
                rung,
                counts[0] if counts else None,
                list(zip(estimates, measured)),
                recalibrated=recalibrated,
            )
        )
        scores = {cell.key: row.makespan_ms for cell, row in zip(alive, measured)}
        alive, dropped = select_survivors(alive, scores, plan.keep_fraction)
        for cell in dropped:
            count = rung_cells[cell.key].fidelity
            at = "full fidelity" if count is None else f"{count} requests"
            why = f"measured makespan {scores[cell.key]:.0f} ms at {at} {kept}"
            yield from drop(cell, rung, why)

    # Final rung: full fidelity, byte-identical to an exhaustive run.
    runner.last_schedule.append(
        RungPlan(plan.rungs, tuple(cell.key for cell in alive), (None,) * len(alive))
    )
    for cell in alive:
        row = carried.get(cell.key)
        if row is not None and results.add(cell, row):
            yield cell, row
    yield from execute([cell for cell in alive if cell.key not in carried])
    final_pairs = [(results.estimate_for(cell), results[cell]) for cell in alive]
    drift.append(rung_drift(plan.rungs, None, final_pairs))
    results.set_drift_report(DriftReport(percentile=q, rungs=tuple(drift)))
