"""Execute sweep grids: one runner, three interchangeable executors.

:class:`SweepRunner` owns the *policy* of a sweep — which cells still
need results, how the cache is consulted and filled, how ``(cell,
result)`` pairs stream back to the caller — while the *mechanics* of
executing cells live behind the :class:`SweepExecutor` strategy
interface:

- :class:`SerialExecutor` runs every cell in-process on one
  :class:`~repro.experiments.base.EvaluationContext`, so boards, CoE
  models, request streams and profiled performance matrices are built
  once and shared — the behaviour the figure modules have always relied
  on.
- :class:`ProcessPoolExecutor` fans the grid out over a
  ``concurrent.futures`` process pool (the CLI's ``--jobs N``).  Each
  worker process builds its own ``EvaluationContext`` once (in the pool
  initializer) and keeps it for its whole lifetime, so a worker rebuilds
  the board / model / matrix for a given (device, task) at most once no
  matter how many cells it executes.
- :class:`~repro.sweeps.distributed.DistributedExecutor` shards the
  grid across ``coserve-sweep-worker`` processes on other hosts (the
  CLI's ``--hosts``), leasing (device, task)-batched cell groups over
  TCP and re-leasing them if a worker dies.

All three yield through the same :meth:`SweepRunner.run_iter` contract:
``(cell, result)`` pairs as cells complete — in grid order serially, in
completion order across processes or hosts — which is what the CLI's
``--progress`` reporting and any long-regeneration monitoring hang off.
:meth:`SweepRunner.run` is the drain-it-all convenience over the
iterator.  Because results land in a keyed
:class:`~repro.sweeps.results.SweepResults` store, rows assembled from
a serial run, a parallel run and a distributed run are byte-identical;
only arrival order differs.  Cell execution itself is deterministic
(the simulator is a seeded discrete-event engine), so this equivalence
is enforceable — ``tests/test_sweeps.py`` asserts it for every
registered experiment across all three executors.

Every run goes through one pipeline: cache preload, an optional plan,
execute and store.  With a :class:`~repro.sweeps.cache.SweepCache`
attached, cells already simulated under the same settings fingerprint
are loaded from disk (and yielded immediately) instead of re-executed,
and every newly computed cell is persisted — repeated figure
regenerations across processes skip all shared work.  A ``plan``
(:class:`~repro.sweeps.halving.HalvingConfig`) then has the surrogate
and any measured rungs cut the cache misses down to the finalists
before the executor runs them.
"""

from __future__ import annotations

import dataclasses
from concurrent import futures
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.serving.factory import build_system
from repro.simulation.engine import SimulationOptions
from repro.simulation.results import SimulationResult
from repro.simulation.session import SimulationAborted
from repro.simulation.slo import SLOMonitor
from repro.sweeps.cache import SweepCache
from repro.sweeps.halving import HalvingConfig, climb
from repro.sweeps.results import SweepResults
from repro.sweeps.spec import SLO_OVERRIDE_KEYS, CellKey, SweepCell, SweepGrid

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.base import EvaluationContext, EvaluationSettings
    from repro.sweeps.halving import RungPlan


def _experiments_base():
    """The experiments-layer types, imported lazily.

    ``repro.experiments`` imports ``repro.sweeps`` (every figure module
    declares a grid), so a module-level import here would close an
    import cycle and break any entry point that touches ``repro.sweeps``
    first — the ``coserve-sweep-worker`` console script does exactly
    that.  Deferring to call time keeps the package import-order
    independent.
    """
    from repro.experiments.base import EvaluationContext, EvaluationSettings

    return EvaluationContext, EvaluationSettings


def execute_cell(
    context: EvaluationContext, cell: SweepCell, keep_requests: bool = False
) -> SimulationResult:
    """Run one sweep cell on an evaluation context.

    This is the single serving primitive behind every executor, and
    the call for serving one cell ad hoc.  Its simulation keeps
    per-request records only if ``keep_requests``, and per-stage
    records only then or for an ``slo_metric="service"`` monitor,
    which reads them; the rest of a cell's ``options`` override is
    honoured.  Figures aggregate whole-run metrics, so records nobody
    reads are never built, results stay cheap to pickle back from
    worker processes (local or remote), and the sweep cache refuses
    results that carry requests.  Executors never keep them.

    Cells whose overrides declare ``slo_target_ms`` (optionally
    ``slo_percentile``, default 99, and ``slo_metric``, default
    ``"end_to_end"``) run under an SLO monitor: a doomed cell stops at
    the violation point instead of simulating to completion and its
    result carries ``aborted=True`` with the violation as the reason —
    the sweep-level early-abort path.

    Cells whose overrides declare ``num_requests`` (the
    :data:`~repro.sweeps.spec.FIDELITY_OVERRIDE_KEY`, usually via
    :meth:`SweepCell.at_fidelity`) simulate that many requests of the
    same workload instead of the settings-derived count — the
    low-fidelity rungs of a successive-halving sweep are exactly such
    cells, executed by this same primitive on every backend.
    """
    overrides = cell.system_overrides()
    num_requests = cell.fidelity
    slo = {key: value for key, value in cell.overrides if key in SLO_OVERRIDE_KEYS}
    slo_target_ms = slo.get("slo_target_ms")
    overrides["options"] = dataclasses.replace(
        overrides.get("options") or SimulationOptions(),
        keep_request_records=keep_requests,
        keep_stage_records=keep_requests or slo.get("slo_metric") == "service",
    )
    device = context.device(cell.device)
    _, model = context.board_and_model(cell.task)
    system = build_system(
        cell.system,
        device,
        model,
        context.usage_profile(cell.task, num_requests),
        performance_matrix=context.performance_matrix(cell.device, cell.task),
        **overrides,
    )
    stream = context.stream(cell.task, num_requests)
    if slo_target_ms is None:
        result = system.serve(stream)
    else:
        # Only forward the keys the cell actually set, so omitted ones
        # take the monitor's own defaults (one source of truth).
        monitor_kwargs = {}
        if slo.get("slo_percentile") is not None:
            monitor_kwargs["percentile"] = float(slo["slo_percentile"])
        if slo.get("slo_metric") is not None:
            monitor_kwargs["metric"] = str(slo["slo_metric"])
        monitor = SLOMonitor(target_ms=float(slo_target_ms), **monitor_kwargs)
        session = system.session(stream, observers=[monitor])
        try:
            result = session.run()
        except SimulationAborted:
            result = session.partial_result()
    return result


def batch_cells(cells: Sequence[SweepCell], parts: int) -> List[List[SweepCell]]:
    """Batch cells by (device, task), splitting when ``parts`` outnumber groups.

    Building the board / CoE model / performance matrix for a (device,
    task) pair is the expensive part of executing a cell, so keeping one
    pair per batch means the worker (process or host) executing it
    profiles that pair exactly once; splitting only happens when the
    grid has fewer groups than executing parts, trading some duplicated
    profiling for otherwise-idle workers.
    """
    groups: Dict[Tuple[str, str], List[SweepCell]] = {}
    for cell in cells:
        groups.setdefault((cell.device, cell.task), []).append(cell)
    if not groups:
        return []
    chunks_per_group = max(1, -(-max(1, parts) // len(groups)))
    batches: List[List[SweepCell]] = []
    for group in groups.values():
        splits = min(len(group), chunks_per_group)
        size = -(-len(group) // splits)
        batches.extend(group[i : i + size] for i in range(0, len(group), size))
    return batches


# ----------------------------------------------------------------------
# Worker-process plumbing.  The context lives in a module global set by
# the pool initializer, so one build of boards/models/matrices serves
# every batch the worker receives.
# ----------------------------------------------------------------------
_WORKER_CONTEXT: Optional[EvaluationContext] = None


def _init_worker(settings: EvaluationSettings) -> None:
    """Process-pool initializer: build this worker's long-lived context."""
    global _WORKER_CONTEXT
    context_cls, _ = _experiments_base()
    _WORKER_CONTEXT = context_cls(settings)


def _run_batch(cells: Sequence[SweepCell]) -> List[Tuple[SweepCell, SimulationResult]]:
    """Execute one (device, task) batch on the worker's cached context."""
    assert _WORKER_CONTEXT is not None, "worker initializer did not run"
    return [(cell, execute_cell(_WORKER_CONTEXT, cell)) for cell in cells]


# ----------------------------------------------------------------------
# Executors: the strategy interface behind SweepRunner.
# ----------------------------------------------------------------------
class SweepExecutor:
    """Strategy interface: *how* a sweep's cells get executed.

    Implementations receive the cells that still need results (the
    runner already removed present and cached ones) and yield ``(cell,
    result)`` pairs as they complete.  Every cell must be executed
    exactly as :func:`execute_cell` would — the byte-identical contract
    across executors rests on that — but implementations are free to
    choose ordering, placement and transport.
    """

    def run_iter(
        self, cells: Sequence[SweepCell]
    ) -> Iterator[Tuple[SweepCell, SimulationResult]]:
        """Execute ``cells``, yielding ``(cell, result)`` as each completes."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any held resources (idempotent; default: nothing held)."""


class SerialExecutor(SweepExecutor):
    """Run every cell in-process on one shared evaluation context.

    The context is built lazily on first use (or borrowed from the
    caller via ``context``) and kept for the executor's lifetime, so
    repeated ``run_iter`` calls reuse boards, models and matrices.
    """

    def __init__(
        self,
        settings: Optional[EvaluationSettings] = None,
        context: Optional[EvaluationContext] = None,
    ) -> None:
        if context is not None and settings is None:
            settings = context.settings
        self.settings = settings if settings is not None else _experiments_base()[1]()
        self._context = context

    def run_iter(
        self, cells: Sequence[SweepCell]
    ) -> Iterator[Tuple[SweepCell, SimulationResult]]:
        """Execute cells one by one, yielding in the given (grid) order."""
        if self._context is None:
            self._context = _experiments_base()[0](self.settings)
        for cell in cells:
            yield cell, execute_cell(self._context, cell)


class ProcessPoolExecutor(SweepExecutor):
    """Fan cells out over a local ``concurrent.futures`` process pool.

    Cells are batched by (device, task) via :func:`batch_cells` before
    submission, which keeps all cells sharing those expensive artefacts
    on the same worker; each worker process builds one
    ``EvaluationContext`` in its initializer and keeps it for its whole
    lifetime.  Results are yielded in completion order.
    """

    def __init__(self, settings: Optional[EvaluationSettings] = None, jobs: int = 2) -> None:
        self.settings = settings if settings is not None else _experiments_base()[1]()
        self.jobs = max(1, int(jobs))

    def run_iter(
        self, cells: Sequence[SweepCell]
    ) -> Iterator[Tuple[SweepCell, SimulationResult]]:
        """Execute cells across the pool, yielding in completion order."""
        if not cells:
            return
        batches = batch_cells(cells, self.jobs)
        workers = min(self.jobs, len(batches))
        with futures.ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(self.settings,)
        ) as pool:
            submitted = [pool.submit(_run_batch, batch) for batch in batches]
            for future in futures.as_completed(submitted):
                yield from future.result()


class SweepRunner:
    """Execute a :class:`SweepGrid` and collect :class:`SweepResults`.

    The runner picks an executor from the classic knobs — ``jobs`` for a
    local process pool, ``hosts`` for the distributed backend — or runs
    on an explicitly supplied :class:`SweepExecutor`.  Whatever executes
    the cells, rows assembled from the results are byte-identical.

    Parameters
    ----------
    settings:
        Evaluation settings used to build contexts.  Must be picklable
        when cells leave the process (workers rebuild their context
        from it).
    jobs:
        Number of local worker processes; ``1`` (the default) runs
        in-process.  Mutually exclusive with ``hosts`` and ``executor``.
    context:
        Optional existing context to run on (serial mode only); lets
        the runner share caches with surrounding code.
    cache:
        Optional on-disk :class:`~repro.sweeps.cache.SweepCache`.  Cells
        present under the runner's settings fingerprint are loaded
        instead of executed; newly executed cells are persisted.  The
        distributed executor additionally shares the cache directory
        with its workers (workers write, the coordinator
        verifies-on-load).
    hosts:
        Distributed backend: a comma-separated string or sequence of
        ``HOST:PORT`` addresses of running ``coserve-sweep-worker``
        processes.  Mutually exclusive with ``jobs > 1``.
    executor:
        Escape hatch: run on this pre-built :class:`SweepExecutor`
        instead of constructing one from ``jobs``/``hosts``.
    prune_fraction:
        One-shot cut: drop this fraction of each (device, task) group,
        the cells with the worst predicted tail latency.  Shorthand for
        ``plan=HalvingConfig(rungs=1, keep_fraction=1 - prune_fraction)``;
        ``0.0`` (the default) leaves ``plan`` in charge.
    plan:
        Optional :class:`~repro.sweeps.halving.HalvingConfig` run between
        the cache preload and the executor: the surrogate scores every
        still-missing cell, measured rungs (if any) re-rank survivors,
        and only the finalists are simulated at full fidelity.  Dropped
        cells receive an aborted placeholder result carrying the
        prediction; they are never cached.  Cells with ``pin=True`` are
        never dropped.
    """

    def __init__(
        self,
        settings: Optional[EvaluationSettings] = None,
        jobs: int = 1,
        context: Optional[EvaluationContext] = None,
        cache: Optional[SweepCache] = None,
        hosts: Optional[Sequence[str]] = None,
        executor: Optional[SweepExecutor] = None,
        prune_fraction: float = 0.0,
        plan: Optional[HalvingConfig] = None,
    ) -> None:
        if context is not None and settings is None:
            settings = context.settings
        self.settings = settings if settings is not None else _experiments_base()[1]()
        self.jobs = max(1, int(jobs))
        # An *empty* hosts value is rejected loudly (by parse_hosts, via
        # DistributedExecutor) rather than falling back to serial: a
        # dynamically built host list that resolves empty should never
        # silently run a multi-hour sweep on the coordinator.
        distributed = hosts is not None
        serial = executor is None and not distributed and self.jobs == 1
        if executor is not None and (self.jobs > 1 or distributed):
            raise ValueError("pass either an explicit executor or jobs/hosts, not both")
        if distributed and self.jobs > 1:
            raise ValueError(
                "jobs and hosts are mutually exclusive: the sweep either fans "
                "out over local processes or over worker hosts"
            )
        if context is not None and not serial:
            raise ValueError("an existing context can only back a serial (jobs=1) run")
        if prune_fraction:
            if plan is not None:
                raise ValueError("pass either prune_fraction or a plan, not both")
            plan = HalvingConfig(rungs=1, keep_fraction=1.0 - prune_fraction)
        self.plan = plan
        #: The rung ladder of the most recent planned ``run``/``run_iter``.
        self.last_schedule: List[RungPlan] = []
        self.cache = cache
        if executor is not None:
            self._executor = executor
        elif distributed:
            from repro.sweeps.distributed import DistributedExecutor

            self._executor = DistributedExecutor(hosts, settings=self.settings, cache=cache)
        elif self.jobs > 1:
            self._executor = ProcessPoolExecutor(self.settings, jobs=self.jobs)
        else:
            self._executor = SerialExecutor(self.settings, context=context)

    @property
    def executor(self) -> SweepExecutor:
        """The executor this runner drives (picked from jobs/hosts, or given)."""
        return self._executor

    # ------------------------------------------------------------------
    def _scoring_context(self) -> EvaluationContext:
        """A context for feature extraction (shared with serial executors).

        Feature extraction builds systems but runs no events, so it is
        milliseconds per cell; sharing the serial executor's context (or
        seeding it with ours) means the artefacts are built once either
        way.  Pool/distributed executors keep their own worker contexts
        — scoring just needs any local one.
        """
        executor = self._executor
        context = getattr(executor, "_context", None)
        if context is None:
            context = _experiments_base()[0](self.settings)
            if isinstance(executor, SerialExecutor):
                executor._context = context
        return context

    # ------------------------------------------------------------------
    def run(self, grid: SweepGrid, results: Optional[SweepResults] = None) -> SweepResults:
        """Execute every cell of ``grid`` not already present in ``results``."""
        results = results if results is not None else SweepResults()
        for _ in self.run_iter(grid, results=results):
            pass
        return results

    def run_iter(
        self, grid: SweepGrid, results: Optional[SweepResults] = None
    ) -> Iterator[Tuple[SweepCell, SimulationResult]]:
        """Execute a grid, yielding ``(cell, result)`` as cells complete.

        Exactly the cells missing from ``results`` at entry are yielded:
        cache hits first, then (with a ``plan``) each selection point's
        dropped-cell placeholders, then simulated rows — in grid order
        serially, in completion order across processes or hosts.  Every
        yielded pair has already been added to ``results``, so an
        abandoned iterator leaves a consistent store containing exactly
        the cells yielded so far.  Duplicate deliveries (a distributed
        worker died after sending results but before acknowledging its
        lease, so surviving workers re-executed the cells) are
        idempotent: the first result for a cell key wins and later
        copies are neither stored nor yielded.

        Dropped cells' placeholders are marked via
        :meth:`SweepResults.mark_pruned` and never cached; the
        finalists' results stay byte-identical to an exhaustive run's.
        """
        results = results if results is not None else SweepResults()
        self.last_schedule = []
        yield from self._pipeline(results.missing(grid), results, self.plan)

    def _pipeline(
        self,
        todo: List[SweepCell],
        results: SweepResults,
        plan: Optional[HalvingConfig],
    ) -> Iterator[Tuple[SweepCell, SimulationResult]]:
        """The one sweep pipeline: cache preload, optional plan, execute.

        Measured rungs of a plan re-enter here, without a plan, for
        their own reduced-fidelity cells.
        """
        repair: Set[CellKey] = set()
        if todo and self.cache is not None:
            remaining: List[SweepCell] = []
            for cell in todo:
                entry = self.cache.load_entry(cell)
                if entry is not None:
                    cached, estimate = entry
                    results.add(cell, cached)
                    if estimate is not None:
                        results.record_estimate(cell, estimate)
                    yield cell, cached
                else:
                    if self.cache.has(cell):
                        # An entry file exists but failed verification
                        # (corruption, stale format): remember it so the
                        # re-executed result overwrites the bad file —
                        # otherwise it would stay a permanent miss.
                        repair.add(cell.key)
                    remaining.append(cell)
            todo = remaining

        def execute(cells: List[SweepCell]) -> Iterator[Tuple[SweepCell, SimulationResult]]:
            if not cells:
                return
            for cell, result in self._executor.run_iter(cells):
                if results.add(cell, result):
                    # Store unless a (valid-at-preload-time-missing) entry
                    # appeared meanwhile — on a shared-filesystem
                    # distributed sweep the worker just wrote this very
                    # cell, and rewriting identical bytes doubles the
                    # cache I/O of large grids.
                    if self.cache is not None and (
                        cell.key in repair or not self.cache.has(cell)
                    ):
                        self.cache.store(cell, result, results.estimate_for(cell))
                    yield cell, result

        if todo and plan is not None:
            yield from climb(self, plan, todo, results, execute)
        else:
            yield from execute(todo)

    def close(self) -> None:
        """Shut the executor down (idempotent); serial runners hold nothing."""
        self._executor.close()


class HalvingRunner(SweepRunner):
    """A :class:`SweepRunner` planned by a successive-halving ladder.

    ``config`` is the runner's ``plan`` — by default
    :class:`~repro.sweeps.halving.HalvingConfig`'s two-rung ladder; every
    other knob is :class:`SweepRunner`'s.  After a run,
    :attr:`last_schedule` holds the executed
    :class:`~repro.sweeps.halving.RungPlan` ladder and the results store
    carries a :class:`~repro.surrogate.validation.DriftReport`.
    """

    def __init__(
        self,
        settings: Optional[EvaluationSettings] = None,
        jobs: int = 1,
        context: Optional[EvaluationContext] = None,
        cache: Optional[SweepCache] = None,
        hosts: Optional[Sequence[str]] = None,
        executor: Optional[SweepExecutor] = None,
        config: Optional[HalvingConfig] = None,
    ) -> None:
        super().__init__(
            settings=settings,
            jobs=jobs,
            context=context,
            cache=cache,
            hosts=hosts,
            executor=executor,
            plan=config if config is not None else HalvingConfig(),
        )


def ensure_results(
    grid: SweepGrid,
    results: Optional[SweepResults] = None,
    context: Optional[EvaluationContext] = None,
    settings: Optional[EvaluationSettings] = None,
) -> SweepResults:
    """Guarantee that every cell of ``grid`` has a result.

    Figure modules call this with whatever ``results`` the harness
    handed them: cells the harness already executed (typically the whole
    cross-figure union, possibly in parallel) are reused, and any
    stragglers run serially on the caller's context.
    """
    runner = SweepRunner(settings=settings, context=context)
    return runner.run(grid, results=results)
