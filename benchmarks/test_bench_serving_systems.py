"""Per-system serving benchmarks.

While the figure benchmarks time whole experiments, these benchmarks
time a single serve() call per system on Task A1 (NUMA device), which
is the granularity most useful when optimising the simulator or a
policy implementation.
"""

import pytest

from repro.serving.factory import SYSTEM_NAMES
from repro.sweeps import SweepCell, execute_cell


@pytest.mark.parametrize("system_name", SYSTEM_NAMES)
def test_bench_serve_task_a1_numa(benchmark, context, system_name):
    """Serve Task A1 on the NUMA device with one system."""
    cell = SweepCell.make(system_name, "numa", "A1")
    result = benchmark.pedantic(
        execute_cell,
        args=(context, cell),
        kwargs={"keep_requests": True},
        rounds=1,
        iterations=1,
    )
    assert result.num_requests == len(context.stream("A1"))
    assert result.throughput_rps > 0
