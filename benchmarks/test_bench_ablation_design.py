"""Ablation benchmarks for substrate choices the paper does not ablate.

Beyond the paper's own ablation (Figures 15/16), these benchmarks
quantify two choices of this reproduction's serving substrate:

* sharing one model pool per processor vs. private per-executor pools;
* pre-populating the NUMA host-memory cache vs. starting it cold.

Each benchmark serves Task A1 on the NUMA device once and reports both
the wall time and, via the returned result, the effect on throughput.
"""

import pytest

from repro.simulation.engine import SimulationOptions
from repro.sweeps import SweepCell, execute_cell


def _serve(context, **overrides):
    cell = SweepCell.make("coserve-best", "numa", "A1", **overrides)
    return execute_cell(context, cell, keep_requests=True)


def test_bench_shared_pool_per_processor(benchmark, context):
    """CoServe with the default shared per-processor model pools."""
    result = benchmark.pedantic(_serve, args=(context,), rounds=1, iterations=1)
    assert result.throughput_rps > 0


def test_bench_private_pool_per_executor(benchmark, context):
    """CoServe with private per-executor pools (ablation)."""
    result = benchmark.pedantic(
        _serve,
        args=(context,),
        kwargs={"options": SimulationOptions(share_pool_per_processor=False)},
        rounds=1,
        iterations=1,
    )
    assert result.throughput_rps > 0


def test_bench_cold_host_cache(benchmark, context):
    """CoServe without pre-populating the CPU-memory expert cache (ablation)."""
    result = benchmark.pedantic(
        _serve,
        args=(context,),
        kwargs={"preload_host_cache": False},
        rounds=1,
        iterations=1,
    )
    assert result.throughput_rps > 0


@pytest.mark.parametrize("batching", [True, False])
def test_bench_batch_splitter_effect(benchmark, context, batching):
    """CoServe with and without the batch splitter (request splitting)."""
    result = benchmark.pedantic(
        _serve,
        args=(context,),
        kwargs={"enable_batching": batching},
        rounds=1,
        iterations=1,
    )
    assert result.throughput_rps > 0
