"""The benchmark's own test: scaled-down workloads, three runs each.

Each workload runs twice untraced and once traced at the ``SMALL``
scale; the test asserts that every run passes its output checks, that
the three runs produce identical outputs and identical deterministic
counters, and that ``BENCHMARK.json`` names exactly the metrics
``run.py`` reports.  Run it from the repository root with either::

    python3 perfbench/selftest.py
    python3 -m pytest perfbench/selftest.py

It is not named ``test_*.py`` on purpose: the repository's tier-1
suite collects every such file, and this benchmark adds nothing to it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import SMALL, WORKLOADS  # noqa: E402

SEED = 5


def _three_runs(name: str):
    outcomes = []
    for traced in (False, False, True):
        workload = WORKLOADS[name](SEED, SMALL)
        ops = run.Operations()
        try:
            if traced:
                outcome = run.run_traced(workload, ops)
            else:
                outcome = run.run_untraced(workload, 0.0, ops)
        finally:
            workload.close()
        assert not ops.failures, f"{name}: failed operations {ops.failures}"
        outcomes.append(outcome)
    return outcomes


def _check_workload(name: str) -> None:
    first, second, traced = _three_runs(name)
    assert first["output_sha256"] == second["output_sha256"] == traced["output_sha256"], name
    assert first["counters"] == second["counters"] == traced["counters"], name
    assert set(first["metrics"]) == set(run.END_TO_END), name
    assert all(value > 0 for value in first["metrics"].values()), first["metrics"]
    assert set(traced["metrics"]) == set(run.PER_LAYER), name
    layer = traced["metrics"]
    # Every layer the workload exercises shows up in the traced run.
    assert layer["simulation.events.completion"] > 0
    if name == "shift":
        assert layer["core.scheduler_calls"] > 0 and layer["simulation.queue_ops"] > 0
        assert layer["workload.lazy_specs_per_s"] > 0 and layer["core.tune_replays"] > 0
    if name == "figures":
        assert 0 < layer["sweeps.worker_busy_share"] <= 1
        assert layer["experiments.assembly_figure17_s"] > 0
    if name == "design-search":
        assert layer["surrogate.estimate_calls"] > 0 and layer["sweeps.halving_rung1_cells"] > 0


def test_shift() -> None:
    _check_workload("shift")


def test_figures() -> None:
    _check_workload("figures")


def test_design_search() -> None:
    _check_workload("design-search")


def test_benchmark_json_matches_run() -> None:
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in declared["workloads"]} == set(WORKLOADS)


if __name__ == "__main__":
    for test in (test_benchmark_json_matches_run, test_shift, test_figures, test_design_search):
        test()
        print(f"{test.__name__}: ok", flush=True)
