"""Command-line entry point: regenerate the paper's tables and figures.

Examples
--------
Run everything at reduced scale::

    coserve-experiments --all

Run specific experiments at the paper's full request counts::

    coserve-experiments figure13 figure14 --full-scale

Fan the serving grid out over four worker processes and emit JSON (a
single object for one experiment, a single array for several)::

    coserve-experiments --all --jobs 4 --format json

Write one CSV file per experiment into a directory::

    coserve-experiments figure13 figure15 --format csv --output results/

Regenerate everything with live progress, a pinned workload seed and an
on-disk cell cache (a second identical invocation simulates nothing)::

    coserve-experiments --all --progress --seed 7 --cache ~/.cache/coserve-sweeps

Shard the sweep across worker hosts (start one ``coserve-sweep-worker``
per host first; ``docs/sweeps.md`` walks through it)::

    coserve-experiments --all --hosts hostA:7071,hostB:7071

Guided multi-fidelity sweep: free surrogate scoring, a measured
150-request rung that re-ranks survivors and recalibrates the
surrogate, then full fidelity for the finalists — predicted-vs-measured
drift lands in an extra ``sweep_drift`` table::

    coserve-experiments --all --halving-rungs 2 --halving-keep-fraction 0.5

Before any experiment runs, the CLI unions the sweep grids declared by
the selected experiments and executes the deduplicated union once (with
``--jobs N`` the grid is spread over N worker processes; with
``--hosts`` it is leased out to the worker hosts); each figure then
assembles its rows from the shared results, so cells required by
several figures are simulated exactly once per invocation.  With
``--cache DIR`` they are simulated at most once per *settings
fingerprint*, across invocations and processes.  Rows are byte-identical
whichever execution backend ran the sweep.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.experiments import EXPERIMENT_GRIDS, EXPERIMENTS
from repro.experiments.base import EvaluationContext, EvaluationSettings, ExperimentResult
from repro.sweeps import (
    HalvingConfig,
    SweepCache,
    SweepGrid,
    SweepResults,
    SweepRunner,
    parse_hosts,
)

#: File suffix per output format.
_FORMAT_SUFFIX = {"table": "txt", "json": "json", "csv": "csv"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coserve-experiments",
        description="Regenerate the tables and figures of the CoServe paper (ASPLOS 2025).",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help=f"Experiments to run, out of: {', '.join(sorted(EXPERIMENTS))}. "
        "Default (or with --all): every experiment.",
    )
    parser.add_argument("--all", action="store_true", help="Run every experiment.")
    parser.add_argument(
        "--full-scale",
        action="store_true",
        help="Use the paper's full request counts (2,500/3,500 per task) instead of the "
        "reduced default.",
    )
    parser.add_argument(
        "--requests",
        type=int,
        default=1000,
        help="Request count per task when not running at full scale (default: 1000).",
    )
    parser.add_argument(
        "--devices",
        nargs="+",
        default=["numa", "uma"],
        choices=["numa", "uma"],
        help="Devices to evaluate (default: both).",
    )
    parser.add_argument(
        "--tasks",
        nargs="+",
        default=["A1", "A2", "B1", "B2"],
        choices=["A1", "A2", "B1", "B2"],
        help="Tasks to evaluate (default: all four).",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="Worker processes for the serving sweep (default: 1 = in-process). "
        "Rows are identical to a serial run; only wall-clock time changes.",
    )
    parser.add_argument(
        "--hosts",
        metavar="HOST:PORT,...",
        default=None,
        help="Distribute the sweep across running coserve-sweep-worker "
        "processes at these addresses instead of local worker processes "
        "(mutually exclusive with --jobs). Rows are identical to a serial "
        "run; a dead worker's cells are re-leased to the survivors.",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="N",
        help="Override the tasks' built-in workload seeds with one global seed, "
        "making a full regeneration reproducible end to end from a single number "
        "(default: the per-task seeds).",
    )
    parser.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="Persist sweep-cell results under DIR and reuse them across "
        "invocations (key: cell identity + a fingerprint of the evaluation "
        "settings, so changed knobs never reuse stale cells).",
    )
    parser.add_argument(
        "--prune-fraction",
        type=float,
        default=0.0,
        metavar="F",
        help="One-shot sweep: score every cell with the queueing surrogate "
        "first and skip the fraction F of each (device, task) group with the "
        "worst predicted tail latency (a one-rung plan). Pruned cells keep an "
        "aborted placeholder row carrying the prediction (default: 0 = "
        "simulate everything).",
    )
    parser.add_argument(
        "--prune-slo-ms",
        type=float,
        default=None,
        metavar="MS",
        help="Rung-0 SLO cut: skip any cell whose surrogate-predicted p99 "
        "latency exceeds MS before the fractional cut. Composes with "
        "--prune-fraction or --halving-rungs and with per-cell SLO early "
        "aborts.",
    )
    parser.add_argument(
        "--prune-percentile",
        type=float,
        default=99.0,
        metavar="P",
        help="Latency percentile the surrogate's rung-0 ranking and the SLO "
        "cut read (default: 99, the paper's SLO percentile). Must be within "
        "(0, 100].",
    )
    parser.add_argument(
        "--halving-rungs",
        type=int,
        default=None,
        metavar="N",
        help="Guided sweep: run the grid through a successive-halving ladder "
        "of N simulated rungs instead of one-shot pruning. Rung 0 scores "
        "every cell with the queueing surrogate for free; rungs 1..N-1 "
        "simulate survivors at reduced request counts, re-rank them on "
        "measured makespans and recalibrate the surrogate; rung N runs the "
        "finalists at full fidelity, byte-identical to an exhaustive run. "
        "Mutually exclusive with --prune-fraction.",
    )
    parser.add_argument(
        "--halving-keep-fraction",
        type=float,
        default=None,
        metavar="F",
        help="Fraction of each (device, task) group's unpinned cells kept at "
        "every halving selection point (default: 0.5). Requires "
        "--halving-rungs; must be within (0, 1].",
    )
    parser.add_argument(
        "--halving-min-requests",
        type=int,
        default=None,
        metavar="K",
        help="Request count of the cheapest halving rung; later rungs "
        "escalate geometrically toward the full count (default: 150). "
        "Requires --halving-rungs.",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="Report live sweep cell counts and per-experiment row counts on "
        "stderr while the regeneration runs.",
    )
    parser.add_argument(
        "--format",
        choices=sorted(_FORMAT_SUFFIX),
        default="table",
        help="Output format: human-readable table (default), json, or csv.",
    )
    parser.add_argument(
        "--output",
        metavar="DIR",
        default=None,
        help="Write one file per experiment into DIR instead of printing results.",
    )
    return parser


def render_result(result: ExperimentResult, output_format: str) -> str:
    if output_format == "json":
        return result.to_json()
    if output_format == "csv":
        return result.to_csv()
    return result.to_text()


def collect_grid(
    names: Sequence[str],
    settings: EvaluationSettings,
    experiment_kwargs: Optional[Mapping[str, Mapping[str, object]]] = None,
) -> SweepGrid:
    """Union (and thereby deduplicate) the grids of the named experiments.

    Each experiment's ``experiment_kwargs`` that its grid function also
    takes (Figure 17's ``candidates``, the tuning figures'
    ``sample_size``) shape its grid as they shape its rows.
    """
    grids = []
    for name in names:
        grid_fn = EXPERIMENT_GRIDS[name]
        accepted = inspect.signature(grid_fn).parameters
        kwargs = (experiment_kwargs or {}).get(name, {})
        grids.append(grid_fn(settings, **{k: v for k, v in kwargs.items() if k in accepted}))
    return SweepGrid.union(*grids)


def run_experiments(
    names: Sequence[str],
    settings: EvaluationSettings,
    jobs: int = 1,
    experiment_kwargs: Optional[Mapping[str, Mapping[str, object]]] = None,
    cache_dir: Optional[str] = None,
    progress: bool = False,
    hosts: Optional[Sequence[str]] = None,
    plan: Optional[HalvingConfig] = None,
    results: Optional[SweepResults] = None,
) -> List[Tuple[str, ExperimentResult, float]]:
    """Run experiments over one shared sweep execution.

    Returns ``(name, result, seconds)`` triples in input order.  This is
    the programmatic equivalent of the CLI (and what the determinism
    tests drive): the unioned grid runs once — across ``jobs`` worker
    processes when ``jobs > 1``, or leased out to the
    ``coserve-sweep-worker`` addresses in ``hosts`` — and every
    experiment reads from the same result store, so rows are
    byte-identical whichever backend executed the cells.
    ``experiment_kwargs`` optionally forwards extra keyword arguments to
    individual run functions (e.g. a smaller ``sample_size`` for the
    offline-tuning figures), and to their grid functions where those
    take them, so the sweep runs the cells the figures read.
    ``cache_dir`` backs the sweep with an
    on-disk cell cache; ``progress`` streams live cell/row counts to
    stderr via the runner's ``run_iter``.  ``plan`` (a
    :class:`~repro.sweeps.halving.HalvingConfig`) has the queueing
    surrogate score every cell, optionally re-ranks survivors on measured
    low-fidelity rungs, and fully simulates only the finalists (dropped
    cells keep aborted placeholder rows carrying predictions).  Passing
    ``results`` lets the caller keep the shared store afterwards — a
    planned sweep leaves its
    :attr:`~repro.sweeps.results.SweepResults.drift_report` there.
    """
    context = EvaluationContext(settings)
    grid = collect_grid(names, settings, experiment_kwargs)
    cache = SweepCache(cache_dir, settings) if cache_dir else None
    # jobs is forwarded alongside hosts so a conflicting jobs>1 raises the
    # runner's mutual-exclusion error instead of being silently dropped,
    # and an *empty* hosts value is rejected loudly by the runner rather
    # than falling back to a serial sweep.  Only a serial sweep runs on
    # the shared context; pools and worker hosts build their own.
    runner = SweepRunner(
        settings=settings,
        jobs=jobs,
        hosts=hosts,
        context=context if hosts is None and jobs <= 1 else None,
        cache=cache,
        plan=plan,
    )
    results = results if results is not None else SweepResults()
    if progress:
        total = len(grid)
        for done, _ in enumerate(runner.run_iter(grid, results=results), start=1):
            print(f"\r[sweep {done}/{total} cells]", end="", file=sys.stderr, flush=True)
        if total:
            hint = ""
            if cache is not None and cache.hits:
                hint = f" ({cache.hits} from cache)"
            pruned = len(results.pruned_keys())
            if pruned:
                hint += f" ({pruned} pruned by surrogate)"
            print(f"\r[sweep {total}/{total} cells]{hint}", file=sys.stderr)
    else:
        runner.run(grid, results=results)
    if progress and results.drift_report is not None:
        for line in results.drift_report.summary().splitlines():
            print(f"[drift] {line}", file=sys.stderr)

    outcomes: List[Tuple[str, ExperimentResult, float]] = []
    for name in names:
        kwargs = dict((experiment_kwargs or {}).get(name, {}))
        start = time.perf_counter()
        result = EXPERIMENTS[name](context=context, results=results, **kwargs)
        outcomes.append((name, result, time.perf_counter() - start))
        if progress:
            print(f"[{name}: {len(result.rows)} rows]", file=sys.stderr)
    return outcomes


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    arguments = parser.parse_args(argv)

    names: List[str] = list(arguments.experiments)
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment(s) {unknown}; choose from {sorted(EXPERIMENTS)}")
    if arguments.all or not names:
        names = sorted(EXPERIMENTS)
    if arguments.jobs < 1:
        parser.error("--jobs must be a positive integer")
    if arguments.hosts and arguments.jobs > 1:
        parser.error(
            "--jobs and --hosts are mutually exclusive: the sweep either fans "
            "out over local processes or over worker hosts"
        )
    if arguments.hosts is not None:
        try:
            parse_hosts(arguments.hosts)
        except ValueError as exc:
            # Surface malformed addresses as a usage error, not a
            # traceback from deep inside the sweep.
            parser.error(f"--hosts: {exc}")
    if not 0.0 <= arguments.prune_fraction < 1.0:
        parser.error("--prune-fraction must be within [0, 1)")
    if not 0.0 < arguments.prune_percentile <= 100.0:
        parser.error("--prune-percentile must be within (0, 100]")
    if arguments.halving_rungs is not None and arguments.prune_fraction > 0.0:
        parser.error(
            "--halving-rungs and --prune-fraction are mutually exclusive: the "
            "ladder's rung-0 surrogate cut is the one-shot cut"
        )
    # Both flag families build one plan: a one-shot cut is a one-rung
    # ladder, and ladder flags left out fall back to HalvingConfig's
    # defaults.
    one_shot_keep = 1.0 - arguments.prune_fraction
    ladder: Optional[Dict[str, float]] = None
    if arguments.halving_rungs is not None:
        ladder = {
            name: value
            for name, value in (
                ("rungs", arguments.halving_rungs),
                ("keep_fraction", arguments.halving_keep_fraction),
                ("min_requests", arguments.halving_min_requests),
            )
            if value is not None
        }
    elif (
        arguments.halving_keep_fraction is not None
        or arguments.halving_min_requests is not None
    ):
        parser.error("--halving-keep-fraction and --halving-min-requests require --halving-rungs")
    elif one_shot_keep < 1.0 or arguments.prune_slo_ms is not None:
        ladder = {"rungs": 1, "keep_fraction": one_shot_keep}
    plan: Optional[HalvingConfig] = None
    if ladder is not None:
        try:
            plan = HalvingConfig(
                percentile=arguments.prune_percentile,
                slo_ms=arguments.prune_slo_ms,
                **ladder,
            )
        except ValueError as exc:
            parser.error(f"invalid sweep plan: {exc}")

    settings = EvaluationSettings(
        full_scale=arguments.full_scale,
        reduced_requests=arguments.requests,
        devices=tuple(arguments.devices),
        task_names=tuple(arguments.tasks),
        seed=arguments.seed,
    )

    start = time.perf_counter()
    results = SweepResults()
    outcomes = run_experiments(
        names,
        settings,
        jobs=arguments.jobs,
        cache_dir=arguments.cache,
        progress=arguments.progress,
        hosts=arguments.hosts,
        plan=plan,
        results=results,
    )
    total_elapsed = time.perf_counter() - start
    if results.drift_report is not None:
        # Planned sweeps surface their per-rung predicted-vs-measured
        # drift as an extra pseudo-experiment so every output path
        # (table, json, csv, --output) carries it.
        drift = results.drift_report
        outcomes.append(
            (
                "sweep_drift",
                ExperimentResult(
                    name="sweep_drift",
                    description=(
                        "Guided sweep: surrogate predicted-vs-measured drift "
                        f"per successive-halving rung (rung-0 ranking at "
                        f"p{drift.percentile:g})"
                    ),
                    rows=tuple(drift.as_rows()),
                ),
                0.0,
            )
        )
    grid_size = len(collect_grid(names, settings))
    # The serving work happens in one shared sweep before row assembly,
    # so per-experiment timings only cover assembly; report both parts.
    assembly_elapsed = sum(elapsed for _, _, elapsed in outcomes)

    # Results go to stdout; progress/timing lines go to stderr so stdout
    # stays machine-readable and byte-identical across serial/parallel runs.
    def notice(*args: object) -> None:
        print(*args, file=sys.stderr)

    if arguments.output:
        os.makedirs(arguments.output, exist_ok=True)
    suffix = _FORMAT_SUFFIX[arguments.format]
    emit_json_array = arguments.format == "json" and not arguments.output and len(outcomes) > 1
    if emit_json_array:
        # One parseable document instead of concatenated objects.
        print(json.dumps([result.to_payload() for _, result, _ in outcomes], indent=2, default=str))
    for name, result, elapsed in outcomes:
        if arguments.output:
            rendered = render_result(result, arguments.format)
            path = os.path.join(arguments.output, f"{name}.{suffix}")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(rendered if rendered.endswith("\n") else rendered + "\n")
            print(f"[{name} -> {path}]", file=sys.stderr)
        elif not emit_json_array:
            print(render_result(result, arguments.format))
            if arguments.format == "table":
                print()
            notice(f"[{name}: rows assembled in {elapsed:.1f}s]")
    backend = f"hosts={arguments.hosts}" if arguments.hosts else f"jobs={arguments.jobs}"
    notice(
        f"[{len(names)} experiment(s), {grid_size} unique sweep cell(s), {backend}: "
        f"sweep {max(total_elapsed - assembly_elapsed, 0.0):.1f}s "
        f"+ row assembly {assembly_elapsed:.1f}s = {total_elapsed:.1f}s]"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
