"""Sample cells: the offline tuning replays of Figures 17 and 18 as sweep cells.

A sample cell (``sample_requests``) replays a task's offline sample
through a CoServe system built with the deployment's usage profile,
which is the replay ``repro.serving.tuning`` runs in-process.  These
tests pin that the cell is that replay, that the figures read it from
the sweep's results instead of replaying in the calling process, and
that sweep plans and the cache leave it as an unplanned run would.
"""

import pickle

import pytest

from repro.experiments import run_figure17, run_figure18
from repro.experiments.base import EvaluationContext, EvaluationSettings
from repro.experiments.cli import collect_grid
from repro.serving.tuning import measure_throughput, sweep_executor_configurations
from repro.simulation.session import SimulationSession
from repro.surrogate import extract_features
from repro.sweeps import (
    HalvingConfig,
    SweepCache,
    SweepCell,
    SweepGrid,
    SweepResults,
    SweepRunner,
    execute_cell,
)

TINY_SETTINGS = EvaluationSettings(
    full_scale=False,
    reduced_requests=120,
    devices=("numa",),
    task_names=("A1", "A2"),
)

SAMPLE = 200

#: Figure 17 at two executor mixes and Figure 18's declared windows,
#: both on a 200-request sample: 4 + 8 sample cells.
SAMPLE_KWARGS = {
    "figure17": {"sample_size": SAMPLE, "candidates": ((1, 1), (3, 1))},
    "figure18": {"sample_size": SAMPLE},
}

#: Cells a plan scores and cuts, beside the sample cells.
PLANNED = SweepGrid.union(
    *(
        SweepGrid.single(SweepCell.make(system, "numa", "A1"))
        for system in ("coserve", "samba-coe", "samba-coe-fifo", "coserve-none", "coserve-em")
    )
)

PLANS = {
    "one-shot": HalvingConfig(rungs=1, keep_fraction=0.5),
    "two-rung": HalvingConfig(rungs=2, keep_fraction=0.5, min_requests=40),
}


def _sample_grid(settings=TINY_SETTINGS):
    return collect_grid(["figure17", "figure18"], settings, SAMPLE_KWARGS)


@pytest.fixture(scope="module")
def context():
    return EvaluationContext(TINY_SETTINGS)


@pytest.fixture
def session_runs(monkeypatch):
    """Counts every ``SimulationSession.run`` in this process."""
    runs = []
    run = SimulationSession.run

    def counted(session):
        runs.append(session)
        return run(session)

    monkeypatch.setattr(SimulationSession, "run", counted)
    return runs


def test_grids_declare_only_sample_cells():
    grid = _sample_grid()
    assert len(grid) == 4 + 8
    assert {cell.sample_size for cell in grid} == {SAMPLE}
    assert {cell.system for cell in grid} == {"coserve"}


def test_sample_cell_is_the_tuning_replay(context):
    device = context.device("numa")
    _, model = context.board_and_model("A1")
    replay = dict(
        device=device,
        model=model,
        usage_profile=context.usage_profile("A1"),
        sample_stream=context.sample_stream("A1", SAMPLE),
        performance_matrix=context.performance_matrix("numa", "A1"),
    )
    mix = SweepCell.make(
        "coserve", "numa", "A1", sample_requests=SAMPLE, gpu_executors=3, cpu_executors=1
    )
    (point,) = sweep_executor_configurations(candidates=[(3, 1)], **replay)
    result = execute_cell(context, mix)
    assert result.num_requests == SAMPLE
    assert (result.throughput_rps, result.expert_switches) == (
        point.throughput_rps,
        point.expert_switches,
    )
    window = SweepCell.make("coserve", "numa", "A1", sample_requests=SAMPLE, gpu_expert_count=28)
    assert execute_cell(context, window).throughput_rps == measure_throughput(
        gpu_expert_count=28, **replay
    )


def test_features_describe_the_sample(context):
    cell = SweepCell.make("coserve", "numa", "B1", sample_requests=SAMPLE, gpu_expert_count=39)
    features = extract_features(context, cell)
    sample = context.sample_stream("B1", SAMPLE)
    assert features.num_requests == SAMPLE
    assert features.total_stages == sample.total_stage_count


def test_figures_start_no_session_when_handed_the_registered_grid(session_runs):
    """Figures 17 and 18 read every replay from the sweep's results.

    At full scale and seed 22 both decay-window searches stop inside
    the windows Figure 18 declares and select a measured count, so the
    calling process replays nothing.
    """
    settings = EvaluationSettings(full_scale=True, devices=("numa",), seed=22)
    results = SweepRunner(settings=settings).run(collect_grid(["figure17", "figure18"], settings))
    sweep_sessions = len(session_runs)
    session_runs.clear()
    context = EvaluationContext(settings)
    figure17 = run_figure17(context=context, results=results)
    figure18 = run_figure18(context=context, results=results)
    assert session_runs == []
    assert sweep_sessions == len(results) == 12 + 8
    assert len(figure17.rows) == 12 and len(figure18.rows) == 2 * (4 + 1)


def test_figure18_runs_windows_outside_the_grid_on_its_context(context, session_runs):
    """A search past the declared windows replays each later count once, into ``results``."""
    declared = collect_grid(["figure18"], TINY_SETTINGS, SAMPLE_KWARGS)
    results = SweepRunner(context=context).run(declared)
    session_runs.clear()
    # No trend deviation reaches this margin: both searches slide to the memory limit.
    kwargs = dict(context=context, sample_size=SAMPLE, error_margin=10.0, results=results)
    figure = run_figure18(**kwargs)
    assert sum(row["point"] == "window" for row in figure.rows) > len(declared)
    assert len(session_runs) == len(results) - len(declared) > 0
    session_runs.clear()
    assert run_figure18(**kwargs).rows == figure.rows
    assert session_runs == []


@pytest.fixture(scope="module")
def unplanned(context):
    return SweepRunner(context=context).run(_sample_grid() | PLANNED)


@pytest.mark.parametrize("plan_name", sorted(PLANS))
def test_plans_never_touch_sample_cells(context, unplanned, plan_name):
    plan = PLANS[plan_name]
    samples = _sample_grid()
    runner = SweepRunner(context=context, plan=plan)
    results = runner.run(samples | PLANNED)
    alone = SweepRunner(context=context, plan=plan)
    planned_alone = alone.run(PLANNED)

    sample_keys = {cell.key for cell in samples}
    for cell in samples:
        assert not results.is_pruned(cell)
        assert results.estimate_for(cell) is None
        assert pickle.dumps(results[cell]) == pickle.dumps(unplanned[cell])
    assert all(not sample_keys & set(rung.cells) for rung in runner.last_schedule)
    assert runner.last_schedule == alone.last_schedule
    assert results.drift_report == planned_alone.drift_report
    assert [results.is_pruned(cell) for cell in PLANNED] == [
        planned_alone.is_pruned(cell) for cell in PLANNED
    ]


def test_second_cached_run_executes_no_sample_cell(tmp_path, session_runs):
    grid = _sample_grid()
    first = SweepRunner(settings=TINY_SETTINGS, cache=SweepCache(tmp_path, TINY_SETTINGS)).run(
        grid
    )
    assert len(session_runs) == len(grid)
    session_runs.clear()
    cache = SweepCache(tmp_path, TINY_SETTINGS)
    second = SweepRunner(settings=TINY_SETTINGS, cache=cache).run(grid, results=SweepResults())
    assert session_runs == []
    assert cache.hits == len(grid)
    for cell in grid:
        assert pickle.dumps(second[cell]) == pickle.dumps(first[cell])
