"""Benchmark of the CoServe simulator: one command, three seeded workloads.

Run from the repository root::

    python3 perfbench/run.py --workload shift --seed 22 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced iteration and reports the per-layer metrics and
the tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full result, with the
seed and the machine it ran on, is also written to ``perfbench/out/``.
See ``perfbench/README.md`` for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

#: Per-layer metrics (``--trace 1``): name -> unit.  A layer a workload
#: does not exercise reads 0.
PER_LAYER = {
    "workload.lazy_specs_per_s": "1/s",
    "workload.eager_stream_s": "s",
    "workload.eager_streams": "count",
    "experiments.context_s": "s",
    "experiments.contexts": "count",
    "experiments.assembly_s": "s",
    "experiments.assembly_figure17_s": "s",
    "experiments.assembly_figure18_s": "s",
    "core.profile_matrix_ms": "ms",
    "core.profile_matrix_calls": "count",
    "core.tune_s": "s",
    "core.tune_replays": "count",
    "core.scheduler_us": "us",
    "core.scheduler_tail_us": "us",
    "core.scheduler_calls": "count",
    "core.victim_order_us": "us",
    "core.victim_order_tail_us": "us",
    "core.victim_order_calls": "count",
    "policies.select_victims_us": "us",
    "policies.select_victims_tail_us": "us",
    "policies.select_victims_calls": "count",
    "policies.victims_per_call": "count",
    "serving.build_ms": "ms",
    "serving.build_tail_ms": "ms",
    "serving.builds": "count",
    "simulation.run_s": "s",
    "simulation.runs": "count",
    "simulation.events": "count",
    "simulation.events.arrival": "count",
    "simulation.events.dispatch": "count",
    "simulation.events.batch_start": "count",
    "simulation.events.expert_load": "count",
    "simulation.events.expert_evict": "count",
    "simulation.events.tier_migration": "count",
    "simulation.events.completion": "count",
    "simulation.events_per_s": "1/s",
    "simulation.requests_per_s": "1/s",
    "simulation.queue_us": "us",
    "simulation.queue_tail_us": "us",
    "simulation.queue_ops": "count",
    "simulation.queue_append_us": "us",
    "simulation.queue_insert_grouped_us": "us",
    "simulation.queue_pop_head_run_us": "us",
    "simulation.peak_live_requests": "count",
    "simulation.peak_pending_events": "count",
    "simulation.expert_switches": "count",
    "simulation.loads_from_ssd": "count",
    "simulation.loads_from_cache": "count",
    "simulation.batches": "count",
    "simulation.scheduling_decisions": "count",
    "metrics.hook_us": "us",
    "metrics.hook_tail_us": "us",
    "metrics.hook_calls": "count",
    "surrogate.features_ms": "ms",
    "surrogate.features_calls": "count",
    "surrogate.estimate_ms": "ms",
    "surrogate.estimate_calls": "count",
    "surrogate.recalibrate_ms": "ms",
    "surrogate.recalibrate_calls": "count",
    "surrogate.rung_spearman": "rho",
    "sweeps.cells_simulated": "count",
    "sweeps.requests_simulated": "count",
    "sweeps.prune_cells": "count",
    "sweeps.prune_requests": "count",
    "sweeps.halving_rung1_cells": "count",
    "sweeps.halving_rung1_requests": "count",
    "sweeps.halving_rung2_cells": "count",
    "sweeps.halving_rung2_requests": "count",
    "sweeps.cell_overhead_ms": "ms",
    "sweeps.cell_overhead_tail_ms": "ms",
    "sweeps.results_per_s": "1/s",
    "sweeps.result_bytes": "bytes",
    "sweeps.worker_busy_share": "share",
    "sweeps.prune_wall_s": "s",
    "sweeps.halving_wall_s": "s",
    "sweeps.prune_topk_recall": "share",
    "sweeps.halving_topk_recall": "share",
    "workload.self_s": "s",
    "experiments.self_s": "s",
    "core.self_s": "s",
    "policies.self_s": "s",
    "serving.self_s": "s",
    "simulation.self_s": "s",
    "metrics.self_s": "s",
    "surrogate.self_s": "s",
    "sweeps.self_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
}

LAYERS = ("workload", "experiments", "core", "policies", "serving", "simulation", "metrics", "surrogate", "sweeps")


class Operations:
    """Operations attempted and failed; an exception or a mismatch fails."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def record(self, name: str, passed: bool) -> None:
        self.attempted += 1
        if not passed:
            self.failures.append(name)
            print(f"FAILED: {name}", file=sys.stderr)

    def attempt(self, name: str, action: Callable):
        """Run ``action``; an exception counts as a failed operation."""
        try:
            value = action()
        except Exception:  # noqa: BLE001 - a failed operation is a result, not a crash
            traceback.print_exc()
            self.record(f"{name} raised", False)
            return None
        return value


def machine(seed: int) -> Dict[str, object]:
    """Seed, revision and the machine a result was measured on."""
    import numpy

    revision = None
    if (ROOT / ".git").exists():
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        revision = completed.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    cpu_model = platform.processor() or "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "seed": seed,
        "git_revision": revision,
        "source_sha256": digest.hexdigest(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _medians(samples: Dict[str, List[float]]) -> Dict[str, float]:
    return {part: statistics.median(values) for part, values in samples.items()}


def run_untraced(workload, seconds: float, ops: Operations) -> Dict[str, object]:
    """Repeat set-up plus iteration until ``seconds`` of timed work.

    ``setup_s`` and ``wall_s`` are sums, over the parts of the set-up
    and of the iteration, of each part's median time at reference speed
    (see ``calibration.py``).  The same sums over raw times are kept as
    ``raw_metrics``.
    """
    if hasattr(workload, "ground_truth"):
        workload.ground_truth()
    # kind -> part -> one value per repeat
    samples: Dict[str, Dict[str, List[float]]] = {
        kind: {} for kind in ("setup", "wall", "setup_raw", "wall_raw")
    }
    references: List[float] = []
    reference = None
    measured = 0.0
    iterations = 0
    while iterations < workload.scale.min_iterations or measured < seconds:
        setup_parts = ops.attempt(f"{workload.name} set-up", workload.setup)
        outcome = None
        if setup_parts is not None:
            outcome = ops.attempt(f"{workload.name} iteration", workload.iterate)
        if outcome is None:
            break
        parts, output = outcome
        for kind, new in (("setup", setup_parts), ("wall", parts)):
            for name, value in new.items():
                samples[kind].setdefault(name, []).append(new.scaled[name])
                samples[f"{kind}_raw"].setdefault(name, []).append(value)
            references.extend(new.references)
        measured += sum(parts.values())
        iterations += 1
        if reference is None:
            reference = output
        ops.record(f"{workload.name} iteration", output == reference)
    if not iterations:
        raise RuntimeError(f"no {workload.name} iteration completed")
    for name, passed in ops.attempt(f"{workload.name} checks", workload.check) or ():
        ops.record(name, passed)
    costs = _medians(samples["wall"])
    return {
        "metrics": {
            "setup_s": sum(_medians(samples["setup"]).values()),
            "wall_s": sum(costs.values()),
            "peak_rss_mb": workload.peak_rss_mb(),
        },
        "raw_metrics": {
            "setup_s": sum(_medians(samples["setup_raw"]).values()),
            "wall_s": sum(_medians(samples["wall_raw"]).values()),
        },
        "iterations": iterations,
        "samples": samples,
        "reference_kernel_s": references,
        "counters": workload.counters(),
        "extra": workload.extra_metrics(costs),
        "output_sha256": hashlib.sha256(reference).hexdigest(),
    }


def run_traced(workload, ops: Operations) -> Dict[str, object]:
    """One untraced iteration, then one traced; per-layer metrics."""
    from tracing import Tracer, instrument

    if hasattr(workload, "ground_truth"):
        workload.ground_truth()
    workload.setup()
    untraced_parts, reference = workload.iterate()
    tracer = Tracer()
    restore = instrument(tracer)
    workload.attach_tracer(tracer)
    try:
        workload.setup()
        traced_parts, output = workload.iterate()
        drained = workload.drain_lazy_stream() if hasattr(workload, "drain_lazy_stream") else 0.0
    finally:
        restore()
        workload.attach_tracer(None)
    ops.record("traced output == untraced output", output == reference)
    ops.record("session fast paths unchanged by tracing", tracer.fast_path_mismatches == 0)
    for name, passed in ops.attempt(f"{workload.name} checks", workload.check) or ():
        ops.record(name, passed)
    workload.close()
    for exported in getattr(workload, "worker_traces", ()):
        tracer.merge(exported)
    metrics = layer_metrics(tracer, workload, untraced_parts)
    metrics["workload.lazy_specs_per_s"] = drained
    untraced, traced = sum(untraced_parts.values()), sum(traced_parts.values())
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.traced_wall_s"] = traced
    metrics["trace.overhead_s"] = traced - untraced
    return {
        "metrics": metrics,
        "counters": workload.counters(),
        "output_sha256": hashlib.sha256(reference).hexdigest(),
        "spans": len(tracer.spans),
    }


def layer_metrics(tracer, workload, untraced_parts: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics from a tracer (zeros for layers not exercised)."""
    from tracing import summarize

    samples = tracer.samples
    metrics: Dict[str, float] = {name: 0.0 for name in PER_LAYER}

    def per_call(prefix: str, names: Tuple[str, ...], scale: float, unit: str, calls: str) -> None:
        values = [value for name in names for value in samples.get(name, ())]
        median, _, tail, count = summarize(values)
        metrics[f"{prefix}_{unit}"] = median * scale
        metrics[f"{prefix}_tail_{unit}"] = tail * scale
        metrics[calls] = count

    eager = samples.get("workload.eager_stream", ())
    metrics["workload.eager_stream_s"] = sum(eager)
    metrics["workload.eager_streams"] = len(eager)
    contexts = samples.get("experiments.context", ())
    metrics["experiments.context_s"] = summarize(contexts)[0]
    metrics["experiments.contexts"] = len(contexts)
    for name, start, end, _, ident in tracer.spans:
        if name == "experiments.assembly":
            metrics["experiments.assembly_s"] += end - start
            if ident in ("figure17", "figure18"):
                metrics[f"experiments.assembly_{ident}_s"] += end - start
    matrices = samples.get("core.profile_matrix", ())
    metrics["core.profile_matrix_ms"] = summarize(matrices)[0] * 1e3
    metrics["core.profile_matrix_calls"] = len(matrices)
    metrics["core.tune_s"] = sum(samples.get("core.tune", ()))
    metrics["core.tune_replays"] = tracer.counts.get("core.tune_replays", 0)
    per_call("core.scheduler", ("core.scheduler",), 1e6, "us", "core.scheduler_calls")
    per_call("core.victim_order", ("core.victim_order",), 1e6, "us", "core.victim_order_calls")
    per_call("policies.select_victims", ("policies.select_victims",), 1e6, "us", "policies.select_victims_calls")
    if metrics["policies.select_victims_calls"]:
        metrics["policies.victims_per_call"] = (
            tracer.counts.get("policies.victims", 0) / metrics["policies.select_victims_calls"]
        )
    per_call("serving.build", ("serving.build",), 1e3, "ms", "serving.builds")
    runs = samples.get("simulation.run", ())
    metrics["simulation.run_s"] = sum(runs)
    metrics["simulation.runs"] = len(runs)
    from tracing import EVENT_KINDS

    for kind in EVENT_KINDS:
        metrics[f"simulation.events.{kind}"] = tracer.counts.get(f"simulation.events.{kind}", 0)
    metrics["simulation.events"] = sum(metrics[f"simulation.events.{kind}"] for kind in EVENT_KINDS)
    if metrics["simulation.run_s"] > 0:
        metrics["simulation.events_per_s"] = metrics["simulation.events"] / metrics["simulation.run_s"]
        metrics["simulation.requests_per_s"] = (
            metrics["simulation.events.completion"] / metrics["simulation.run_s"]
        )
    queue_ops = ("append", "insert_grouped", "pop_head_run")
    per_call("simulation.queue", tuple(f"simulation.queue.{op}" for op in queue_ops), 1e6, "us", "simulation.queue_ops")
    for op in queue_ops:
        metrics[f"simulation.queue_{op}_us"] = summarize(samples.get(f"simulation.queue.{op}", ()))[0] * 1e6
    for name in ("simulation.peak_live_requests", "simulation.peak_pending_events"):
        metrics[name] = tracer.peaks.get(name, 0)
    per_call("metrics.hook", ("metrics.hook",), 1e6, "us", "metrics.hook_calls")
    for name in ("features", "estimate", "recalibrate"):
        values = samples.get(f"surrogate.{name}", ())
        metrics[f"surrogate.{name}_ms"] = summarize(values)[0] * 1e3
        metrics[f"surrogate.{name}_calls"] = len(values)
    metrics.update(cell_overheads(tracer))
    if getattr(workload, "WORKERS", 0) and getattr(workload, "sweep_walls", None):
        busy = sum(samples.get("sweeps.cell", ()))
        metrics["sweeps.worker_busy_share"] = busy / (workload.WORKERS * workload.sweep_walls[-1])
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            value for name, value in tracer.self_time.items() if name.split(".", 1)[0] == layer
        )
    for name, value in {**workload.counters(), **workload.extra_metrics(untraced_parts)}.items():
        if name in metrics:
            metrics[name] = value
    return metrics


def cell_overheads(tracer) -> Dict[str, float]:
    """``execute_cell`` time minus the session runs inside it, per cell."""
    from tracing import summarize

    spans = tracer.spans
    inner: Dict[int, float] = {}
    for index, (name, start, end, parent, _) in enumerate(spans):
        if name != "simulation.run":
            continue
        while parent >= 0 and spans[parent][0] != "sweeps.cell":
            parent = spans[parent][3]
        if parent >= 0:
            inner[parent] = inner.get(parent, 0.0) + (end - start)
    overheads = [
        (end - start) - inner.get(index, 0.0)
        for index, (name, start, end, _, _) in enumerate(spans)
        if name == "sweeps.cell"
    ]
    median, _, tail, _ = summarize(overheads)
    return {"sweeps.cell_overhead_ms": median * 1e3, "sweeps.cell_overhead_tail_ms": tail * 1e3}


def report(workload, outcome: Dict[str, object], ops: Operations, units: Dict[str, str]) -> None:
    """Human-readable lines that precede the JSON result."""
    print(f"# workload {workload.name}: {type(workload).__doc__.strip()}")
    for name, value in outcome["metrics"].items():
        print(f"  {name:36s} {value:16.6g} {units[name]}")
    if "samples" in outcome:
        from calibration import REFERENCE_S

        kernel = outcome["reference_kernel_s"]
        raw = outcome["raw_metrics"]
        print(f"  unscaled: setup_s {raw['setup_s']:.4f} s, wall_s {raw['wall_s']:.4f} s")
        print(
            f"  reference kernel: median {statistics.median(kernel) * 1e3:.3f} ms of {len(kernel)} timings, "
            f"{min(kernel) * 1e3:.3f}-{max(kernel) * 1e3:.3f} ms (REFERENCE_S {REFERENCE_S * 1e3:.3f} ms)"
        )
        print(f"  {outcome['iterations']} iterations; each part's median scaled repeat counts:")
        samples = outcome["samples"]
        for kind in ("setup", "wall"):
            for part, scaled in samples[kind].items():
                raw_part = samples[f"{kind}_raw"][part]
                print(
                    f"    {kind:5s} {part:28s} scaled {statistics.median(scaled):8.4f} s, raw median "
                    f"{statistics.median(raw_part):8.4f} s, fastest {min(raw_part):8.4f} s, of {len(raw_part)}"
                )
        for name, value in outcome["extra"].items():
            print(f"  {name:36s} {value:16.6g}")
        if hasattr(workload, "group_hits"):
            print(f"  true top-13 hits per planner and group: {workload.group_hits()}")
    succeeded = ops.attempted - len(ops.failures)
    print(f"# operations: attempted {ops.attempted}, succeeded {succeeded}, failed {len(ops.failures)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("shift", "figures", "design-search"))
    parser.add_argument(
        "--seed", type=int, default=22,
        help="Workload seed (default 22: task B2's built-in seed).",
    )
    parser.add_argument("--seconds", type=float, default=15.0, help="Timed work per run.")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(HERE))
    from workloads import FULL, OUT, WORKLOADS

    workload = WORKLOADS[arguments.workload](arguments.seed, FULL)
    ops = Operations()
    try:
        if arguments.trace:
            outcome = run_traced(workload, ops)
            units = PER_LAYER
        else:
            outcome = run_untraced(workload, arguments.seconds, ops)
            units = END_TO_END
    finally:
        workload.close()
    outcome["machine"] = machine(arguments.seed)
    outcome["operations"] = {"attempted": ops.attempted, "failed": ops.failures}
    report(workload, outcome, ops, units)
    print(f"# machine: {json.dumps(outcome['machine'])}")
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{arguments.workload}-seed{arguments.seed}-trace{arguments.trace}.json"
    path.write_text(json.dumps(outcome, indent=2, default=str) + "\n")
    result = {
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": {
            name: {"value": outcome["metrics"][name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
