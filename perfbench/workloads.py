"""The benchmark's three seeded batch workloads.

Every workload has the same shape, which ``run.py`` drives:

- ``setup()`` — the work a user pays before the first timed request;
  returns the :class:`Parts` it was measured in;
- ``iterate()`` — one timed operation; returns its :class:`Parts` and a
  byte string of its outputs, which must repeat exactly within a run;
- ``check()`` — output checks against an oracle, after the timed
  region; returns ``(name, passed)`` pairs;
- ``counters()`` — deterministic counts read off the outputs.

Inputs are fixed virtual-time arrival schedules generated from the
seed; there are no live clients, so there is neither an open nor a
closed loop.  Only public functions of ``src/repro`` are called.
"""

from __future__ import annotations

import json
import os
import pickle
import random
import resource
import secrets
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from calibration import REFERENCE_S, ReferenceKernel

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
WORKER_SCRIPT = Path(__file__).resolve().parent / "worker.py"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.experiments import EXPERIMENTS  # noqa: E402
from repro.experiments.base import EvaluationContext, EvaluationSettings  # noqa: E402
from repro.experiments.cli import collect_grid  # noqa: E402
from repro.serving import tuning  # noqa: E402
from repro.serving.base import ServingSystem  # noqa: E402
from repro.serving.coserve import CoServeSystem  # noqa: E402
from repro.simulation.engine import SimulationOptions  # noqa: E402
from repro.simulation.reference import preredesign_run  # noqa: E402
from repro.sweeps import (  # noqa: E402
    HalvingConfig,
    HalvingRunner,
    SweepCell,
    SweepGrid,
    SweepResults,
    SweepRunner,
)


@dataclass(frozen=True)
class Scale:
    """Input sizes of one benchmark configuration."""

    #: Shifts per iteration (one per sub-seed), requests per shift
    #: session, its tuning sample, and the prefix served through the
    #: pre-redesign oracle.
    shift_parts: int
    shift_requests: int
    shift_sample: int
    shift_check_requests: int
    #: ``None`` runs the paper's full request counts; otherwise the
    #: reduced per-task count.  ``figures_sample`` overrides the tuning
    #: sample of figures 17 and 18 (``None`` keeps the paper's).
    figures_requests: Optional[int]
    figures_sample: Optional[int]
    figures_check_cells: int
    #: Full-fidelity request count of the design space and its
    #: cheapest halving rung.
    design_requests: int
    design_min_requests: int
    min_iterations: int


FULL = Scale(
    shift_parts=8,
    shift_requests=25_000,
    shift_sample=1000,
    shift_check_requests=10_000,
    figures_requests=None,
    figures_sample=None,
    figures_check_cells=6,
    design_requests=3500,
    design_min_requests=150,
    min_iterations=3,
)

#: Scaled down for the benchmark's own test.
SMALL = Scale(
    shift_parts=2,
    shift_requests=3000,
    shift_sample=300,
    shift_check_requests=1500,
    figures_requests=150,
    figures_sample=200,
    figures_check_cells=3,
    design_requests=300,
    design_min_requests=40,
    min_iterations=1,
)


def _null_span(name, ident=None):
    return nullcontext()


def warm_context(context: EvaluationContext, device: str, task: str, extra_counts=()) -> None:
    """Build every artefact a cell on (device, task) reads from ``context``."""
    context.device(device)
    context.board_and_model(task)
    context.performance_matrix(device, task)
    for count in (None, *extra_counts):
        context.stream(task, count)
        context.usage_profile(task, count)


def peak_rss_mb() -> float:
    """This process's peak resident memory."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def result_counters(results) -> Dict[str, int]:
    """Deterministic counters summed over simulation results."""
    totals = {
        "simulation.expert_switches": 0,
        "simulation.loads_from_ssd": 0,
        "simulation.loads_from_cache": 0,
        "simulation.batches": 0,
        "simulation.scheduling_decisions": 0,
    }
    for result in results:
        totals["simulation.expert_switches"] += result.expert_switches
        totals["simulation.loads_from_ssd"] += result.loads_from_ssd
        totals["simulation.loads_from_cache"] += result.loads_from_cache
        totals["simulation.batches"] += sum(e.batches_executed for e in result.executors)
        totals["simulation.scheduling_decisions"] += result.scheduling_decisions
    return totals


class Parts(dict):
    """Raw seconds per named part of a set-up or an iteration.

    Every part is bracketed by timings of the reference kernel (the one
    after a part is the one before the next), and ``scaled[name]`` is
    the part's seconds at reference speed: its raw seconds times
    ``REFERENCE_S`` over the mean of the two kernel timings beside it.
    ``references`` keeps every kernel timing, in order.
    """

    def __init__(self, kernel: ReferenceKernel) -> None:
        super().__init__()
        self.kernel = kernel
        self.scaled: Dict[str, float] = {}
        self.references: List[float] = [kernel.seconds()]

    def measure(self, name: str, action):
        """Run ``action`` as the part ``name``; return what it returns."""
        start = time.perf_counter()
        value = action()
        elapsed = time.perf_counter() - start
        self.references.append(self.kernel.seconds())
        self[name] = elapsed
        self.scaled[name] = elapsed * REFERENCE_S * 2.0 / (self.references[-2] + self.references[-1])
        return value


class Workload:
    """Common state: seed, scale, the reference kernel and the tracer.

    ``setup()`` and ``iterate()`` measure their work as named
    :class:`Parts`.  A run repeats set-up plus iteration several times;
    each part's median scaled time is its cost, and a metric is the sum
    of its parts' costs.
    """

    name = ""

    def __init__(self, seed: int, scale: Scale) -> None:
        self.seed = seed
        self.scale = scale
        self.kernel = ReferenceKernel()
        self.tracer = None
        self.span = _null_span

    def parts(self) -> Parts:
        """A fresh :class:`Parts` on this workload's reference kernel."""
        return Parts(self.kernel)

    def attach_tracer(self, tracer) -> None:
        """Record the workload's own spans into ``tracer`` (None detaches)."""
        self.tracer = tracer
        self.span = tracer.span if tracer is not None else _null_span

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def extra_metrics(self, costs: Dict[str, float]) -> Dict[str, float]:
        """Workload-specific figures, given each timed part's cost."""
        return {}

    def close(self) -> None:
        """Stop anything the workload started."""


# ----------------------------------------------------------------------
# shift: CoServe's deployment flow on (numa, B2)
# ----------------------------------------------------------------------
class Shift(Workload):
    """Offline tuning, then a long lazily streamed session, per sub-seed."""

    name = "shift"
    DEVICE, TASK = "numa", "B2"

    def __init__(self, seed: int, scale: Scale) -> None:
        super().__init__(seed, scale)
        # One shift per sub-seed: the cost of a single shift depends on
        # which components its seed activates, so a run averages several.
        self.sub_seeds = [seed * 1000 + part for part in range(scale.shift_parts)]
        self.settings = EvaluationSettings(
            full_scale=True, devices=(self.DEVICE,), task_names=(self.TASK,), seed=seed
        )
        self.options = SimulationOptions(keep_request_records=False, keep_stage_records=False)
        self.results: List[object] = []

    def setup(self) -> Parts:
        parts = self.parts()
        context = EvaluationContext(self.settings)

        def profile():
            with self.span("experiments.context", f"{self.DEVICE}/{self.TASK}"):
                return (
                    context.device(self.DEVICE),
                    context.board_and_model(self.TASK),
                    context.performance_matrix(self.DEVICE, self.TASK),
                )

        device, (board, model), matrix = parts.measure("profile", profile)
        self.task, self.board, self.model = context.task(self.TASK), board, model
        self.system_args = []
        for sub_seed in self.sub_seeds:

            def tune():
                sample = self.task.request_stream(
                    board, model, num_requests=self.scale.shift_sample, seed=sub_seed
                )
                usage = ServingSystem.usage_profile_from_stream(model, sample)
                tuned = tuning.tune_configuration(device, model, usage, sample, performance_matrix=matrix)
                return dict(
                    device=device,
                    model=model,
                    usage_profile=usage,
                    gpu_executors=tuned.gpu_executors,
                    cpu_executors=tuned.cpu_executors,
                    gpu_expert_count=tuned.gpu_expert_count,
                    performance_matrix=matrix,
                )

            self.system_args.append(parts.measure(f"tune {sub_seed}", tune))
        return parts

    def _stream(self, part: int, count: int, streaming: bool = True):
        return self.task.request_stream(
            self.board, self.model, num_requests=count, seed=self.sub_seeds[part], streaming=streaming
        )

    def _system(self, part: int) -> CoServeSystem:
        return CoServeSystem(options=self.options, **self.system_args[part])

    def iterate(self) -> Tuple[Parts, bytes]:
        parts = self.parts()
        results = []
        for part, sub_seed in enumerate(self.sub_seeds):
            stream = self._stream(part, self.scale.shift_requests)
            results.append(parts.measure(f"session {sub_seed}", lambda: self._system(part).serve(stream)))
        self.results = results
        return parts, pickle.dumps(results)

    def check(self) -> List[Tuple[str, bool]]:
        count = self.scale.shift_check_requests
        session_result = self._system(0).serve(self._stream(0, count))
        oracle = preredesign_run(self._system(0).build_simulation(), self._stream(0, count, False))
        return [(f"session == preredesign_run on {count} requests", session_result == oracle)]

    def counters(self) -> Dict[str, int]:
        return result_counters(self.results)

    def drain_lazy_stream(self) -> float:
        """Specs per second realised by draining the shift's streams alone."""
        start = time.perf_counter()
        drained = sum(
            sum(1 for _ in self._stream(part, self.scale.shift_requests))
            for part in range(len(self.sub_seeds))
        )
        return drained / (time.perf_counter() - start)


# ----------------------------------------------------------------------
# figures: every experiment through the distributed backend
# ----------------------------------------------------------------------
class WorkerFleet:
    """Sweep workers started through the benchmark's own entry point."""

    def __init__(self, count: int, traced: bool) -> None:
        OUT.mkdir(parents=True, exist_ok=True)
        environment = dict(os.environ)
        existing = environment.get("PYTHONPATH")
        environment["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
        environment.setdefault("COSERVE_SWEEP_AUTHKEY", secrets.token_hex(16))
        # The coordinator's DistributedExecutor reads the key from here.
        os.environ["COSERVE_SWEEP_AUTHKEY"] = environment["COSERVE_SWEEP_AUTHKEY"]
        self.processes: List[subprocess.Popen] = []
        self.reports: List[Path] = []
        self.hosts: List[str] = []
        try:
            for index in range(count):
                report = OUT / f"worker-{os.getpid()}-{secrets.token_hex(4)}.pkl"
                self.reports.append(report)
                command = [sys.executable, str(WORKER_SCRIPT), "--report", str(report)]
                if traced:
                    command.append("--trace")
                self.processes.append(
                    subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=environment, cwd=ROOT)
                )
            for process in self.processes:
                line = process.stdout.readline()
                marker = "listening on "
                if marker not in line:
                    raise RuntimeError(f"sweep worker failed to start: {line!r}")
                self.hosts.append(line.rsplit(marker, 1)[1].strip())
        except BaseException:
            self.stop()
            raise

    def stop(self) -> List[dict]:
        """Terminate every worker, wait for it, and return its exit report."""
        for process in self.processes:
            if process.poll() is None:
                process.terminate()
        for process in self.processes:
            try:
                process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=20)
            if process.stdout is not None:
                process.stdout.close()
        reports = []
        for path in self.reports:
            if path.exists():
                with open(path, "rb") as handle:
                    reports.append(pickle.load(handle))
                path.unlink()
        self.processes, self.reports = [], []
        return reports


class Figures(Workload):
    """All 13 experiments, sweep on two fresh local workers, rows assembled here."""

    name = "figures"
    WORKERS = 2

    def __init__(self, seed: int, scale: Scale) -> None:
        super().__init__(seed, scale)
        self.settings = EvaluationSettings(
            full_scale=scale.figures_requests is None,
            reduced_requests=scale.figures_requests or 1000,
            seed=seed,
        )
        self.names = sorted(EXPERIMENTS)
        self.grid = collect_grid(self.names, self.settings)
        self.kwargs = {}
        if scale.figures_sample is not None:
            self.kwargs = {name: {"sample_size": scale.figures_sample} for name in ("figure17", "figure18")}
        self.fleet: Optional[WorkerFleet] = None
        self.worker_rss_mb = 0.0
        self.worker_traces: List[dict] = []
        self.sweep_walls: List[float] = []
        self.results: Optional[SweepResults] = None

    def _stop_fleet(self) -> None:
        if self.fleet is None:
            return
        reports = self.fleet.stop()
        self.fleet = None
        self.worker_rss_mb = max(
            self.worker_rss_mb, sum(report["peak_rss_kb"] for report in reports) / 1024.0
        )
        self.worker_traces.extend(report["trace"] for report in reports if report["trace"])

    def setup(self) -> Parts:
        self._stop_fleet()
        parts = self.parts()
        self.fleet = parts.measure("workers", lambda: WorkerFleet(self.WORKERS, traced=self.tracer is not None))
        self.context = EvaluationContext(self.settings)

        def contexts():
            for device in self.settings.devices:
                for task in self.settings.task_names:
                    with self.span("experiments.context", f"{device}/{task}"):
                        warm_context(self.context, device, task)

        parts.measure("contexts", contexts)
        return parts

    def iterate(self) -> Tuple[Parts, bytes]:
        parts = self.parts()
        results = SweepResults()
        runner = SweepRunner(settings=self.settings, hosts=self.fleet.hosts)

        def sweep():
            with self.span("sweeps.sweep"):
                runner.run(self.grid, results=results)

        try:
            parts.measure("sweep", sweep)
        finally:
            runner.close()

        def assemble():
            assembled = {}
            for name in self.names:
                with self.span("experiments.assembly", name):
                    assembled[name] = EXPERIMENTS[name](
                        context=self.context, results=results, **self.kwargs.get(name, {})
                    )
            return assembled

        assembled = parts.measure("assembly", assemble)
        rows = {name: result.to_payload() for name, result in assembled.items()}
        self.sweep_walls.append(parts["sweep"])
        self.results = results
        return parts, json.dumps(rows, sort_keys=True, default=str).encode()

    def check(self) -> List[Tuple[str, bool]]:
        cells = random.Random(self.seed).sample(list(self.grid), self.scale.figures_check_cells)
        serial = SweepRunner(settings=self.settings).run(SweepGrid(tuple(cells)))
        return [
            (f"serial row == distributed row for {cell.label()}",
             pickle.dumps(serial[cell]) == pickle.dumps(self.results[cell]))
            for cell in cells
        ]

    def counters(self) -> Dict[str, int]:
        results = [self.results[cell] for cell in self.grid]
        totals = result_counters(results)
        totals["sweeps.cells_simulated"] = len(results)
        totals["sweeps.requests_simulated"] = sum(result.num_requests for result in results)
        return totals

    def peak_rss_mb(self) -> float:
        return peak_rss_mb() + self.worker_rss_mb

    def extra_metrics(self, costs: Dict[str, float]) -> Dict[str, float]:
        results = [self.results[cell] for cell in self.grid]
        sweep_wall = self.sweep_walls[-1]
        return {
            "sweeps.results_per_s": len(results) / sweep_wall,
            "sweeps.result_bytes": sum(len(pickle.dumps(r)) for r in results) / len(results),
            "sweeps.sweep_s": sweep_wall,
        }

    def close(self) -> None:
        self._stop_fleet()


# ----------------------------------------------------------------------
# design-search: one-shot cut vs successive halving, with ground truth
# ----------------------------------------------------------------------
DESIGN_GROUPS: Tuple[Tuple[str, str], ...] = (("numa", "B2"), ("uma", "B2"))
TOP_K = 13
PRUNE_FRACTION = 0.49


def design_grid(device: str, task: str) -> SweepGrid:
    """The 49-cell design space of ``benchmarks/test_bench_sweep_halving.py``."""
    cells = [
        SweepCell.make(system, device, task)
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
    for latency in (0.0, 1.0, 2.0, 4.0, 8.0):
        for gpus in (1, 2, 3, 4):
            cells.append(
                SweepCell.make("coserve-best", device, task, scheduling_latency_ms=latency, gpu_executors=gpus)
            )
    for fraction in (0.25, 0.5, 0.6, 0.75, 0.9):
        for cpus in (1, 2):
            cells.append(
                SweepCell.make("coserve-casual", device, task, gpu_expert_fraction=fraction, cpu_executors=cpus)
            )
    for system in ("coserve-none", "coserve-em"):
        for gpus in (1, 2, 3, 4):
            cells.append(SweepCell.make(system, device, task, gpu_executors=gpus))
    for latency in (0.0, 2.0):
        cells.append(SweepCell.make("coserve", device, task, scheduling_latency_ms=latency))
    return SweepGrid.union(*(SweepGrid.single(cell) for cell in cells))


def top_k(grid: SweepGrid, results: SweepResults, cells=None) -> List:
    """Keys of the k lowest-makespan cells (ties broken by grid order)."""
    cells = list(grid) if cells is None else cells
    ranked = sorted(enumerate(cells), key=lambda pair: (results[pair[1]].makespan_ms, pair[0]))
    return [cell.key for _, cell in ranked[:TOP_K]]


class DesignSearch(Workload):
    """Each planner, from a fresh context, to a measured top-13 per group."""

    name = "design-search"
    PLANNERS = ("prune", "halving")

    def __init__(self, seed: int, scale: Scale) -> None:
        super().__init__(seed, scale)
        self.settings = EvaluationSettings(
            full_scale=False,
            reduced_requests=scale.design_requests,
            devices=tuple(sorted({device for device, _ in DESIGN_GROUPS})),
            task_names=tuple(sorted({task for _, task in DESIGN_GROUPS})),
            seed=seed,
        )
        self.grids = {group: design_grid(*group) for group in DESIGN_GROUPS}
        self.config = HalvingConfig(rungs=2, keep_fraction=0.51, min_requests=scale.design_min_requests)
        self.picked: Dict[Tuple[str, Tuple[str, str]], List] = {}
        self.last: Dict[Tuple[str, Tuple[str, str]], SweepResults] = {}
        self.schedules: Dict[Tuple[str, str], list] = {}
        self.truth: Dict[Tuple[str, str], List] = {}
        self.exhaustive: Optional[SweepResults] = None

    def ground_truth(self) -> None:
        """Exhaustive rows of every group, outside the timed region."""
        runner = SweepRunner(settings=self.settings, jobs=len(DESIGN_GROUPS))
        try:
            self.exhaustive = runner.run(SweepGrid.union(*self.grids.values()))
        finally:
            runner.close()
        self.truth = {group: top_k(grid, self.exhaustive) for group, grid in self.grids.items()}

    def setup(self) -> Parts:
        parts = self.parts()
        self.contexts = {}

        def contexts():
            for planner in self.PLANNERS:
                extra = (self.scale.design_min_requests,) if planner == "halving" else ()
                for device, task in DESIGN_GROUPS:
                    context = EvaluationContext(self.settings)
                    with self.span("experiments.context", f"{device}/{task}"):
                        warm_context(context, device, task, extra)
                    self.contexts[planner, (device, task)] = context

        parts.measure("contexts", contexts)
        return parts

    def _prune(self, group) -> Tuple[SweepResults, List]:
        grid = self.grids[group]
        runner = SweepRunner(context=self.contexts["prune", group], prune_fraction=PRUNE_FRACTION)
        results = runner.run(grid)
        survivors = [cell for cell in grid if not results.is_pruned(cell)]
        return results, top_k(grid, results, survivors)

    def _halving(self, group) -> Tuple[SweepResults, List]:
        grid = self.grids[group]
        runner = HalvingRunner(context=self.contexts["halving", group], config=self.config)
        results = runner.run(grid)
        self.schedules[group] = runner.last_schedule
        return results, [cell.key for cell in grid if not results.is_pruned(cell)]

    def iterate(self) -> Tuple[Parts, bytes]:
        parts = self.parts()
        outputs = []
        for group in DESIGN_GROUPS:
            for planner, plan in (("prune", self._prune), ("halving", self._halving)):

                def run_planner():
                    with self.span(f"sweeps.{planner}", "/".join(group)):
                        return plan(group)

                results, picked = parts.measure(f"{planner} {'/'.join(group)}", run_planner)
                self.picked[planner, group] = picked
                self.last[planner, group] = results
                rows = [
                    (cell.key, pickle.dumps(results[cell]))
                    for cell in self.grids[group]
                    if not results.is_pruned(cell)
                ]
                outputs.append((planner, group, picked, rows))
        return parts, pickle.dumps(outputs)

    def check(self) -> List[Tuple[str, bool]]:
        checks = []
        for (planner, group), results in self.last.items():
            simulated = [cell for cell in self.grids[group] if not results.is_pruned(cell)]
            same = all(
                pickle.dumps(results[cell]) == pickle.dumps(self.exhaustive[cell]) for cell in simulated
            )
            checks.append((f"{planner} rows == exhaustive rows on {'/'.join(group)}", same))
        return checks

    def recalls(self) -> Dict[str, float]:
        """Share of the true top-13 each planner returns, over all groups."""
        shares = {}
        for planner in self.PLANNERS:
            hits = sum(
                len(set(self.picked[planner, group]) & set(self.truth[group])) for group in DESIGN_GROUPS
            )
            shares[planner] = hits / (TOP_K * len(DESIGN_GROUPS))
        return shares

    def group_hits(self) -> Dict[str, int]:
        return {
            f"{planner} {'/'.join(group)}": len(set(self.picked[planner, group]) & set(self.truth[group]))
            for planner in self.PLANNERS
            for group in DESIGN_GROUPS
        }

    def counters(self) -> Dict[str, int]:
        totals = {"sweeps.prune_cells": 0, "sweeps.prune_requests": 0}
        rows = []
        for group in DESIGN_GROUPS:
            results = self.last["prune", group]
            simulated = [results[c] for c in self.grids[group] if not results.is_pruned(c)]
            totals["sweeps.prune_cells"] += len(simulated)
            totals["sweeps.prune_requests"] += sum(r.num_requests for r in simulated)
            rows.extend(simulated)
            for plan in self.schedules[group][1:]:
                full = self.scale.design_requests
                cells = f"sweeps.halving_rung{plan.rung}_cells"
                requests = f"sweeps.halving_rung{plan.rung}_requests"
                totals[cells] = totals.get(cells, 0) + len(plan.cells)
                totals[requests] = totals.get(requests, 0) + sum(
                    full if count is None else count for count in plan.request_counts
                )
        totals.update(result_counters(rows))
        totals["sweeps.cells_simulated"] = totals["sweeps.prune_cells"] + sum(
            value for key, value in totals.items() if key.startswith("sweeps.halving") and key.endswith("_cells")
        )
        totals["sweeps.requests_simulated"] = totals["sweeps.prune_requests"] + sum(
            value for key, value in totals.items() if key.startswith("sweeps.halving") and key.endswith("_requests")
        )
        return totals

    def extra_metrics(self, costs: Dict[str, float]) -> Dict[str, float]:
        recalls = self.recalls()
        walls = {
            planner: sum(value for part, value in costs.items() if part.split()[0] == planner)
            for planner in self.PLANNERS
        }
        spearman = [
            self.last["halving", group].drift_report.rungs[0].makespan_spearman for group in DESIGN_GROUPS
        ]
        return {
            "sweeps.prune_wall_s": walls["prune"],
            "sweeps.halving_wall_s": walls["halving"],
            "sweeps.prune_topk_recall": recalls["prune"],
            "sweeps.halving_topk_recall": recalls["halving"],
            "surrogate.rung_spearman": sum(spearman) / len(spearman),
        }


WORKLOADS = {workload.name: workload for workload in (Shift, Figures, DesignSearch)}
