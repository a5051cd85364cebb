"""Sample datasets for offline profiling.

The offline phase (§4.4, §4.5) never touches the full production
workload: microbenchmarks and the decay-window memory-allocation search
run on "a smaller, representative dataset sampled from the application
scenario".  :class:`SampleDataset` provides exactly that — a downsized
request stream drawn from the same board with the same category mix.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.coe.model import CoEModel
from repro.workload.circuit_board import CircuitBoard
from repro.workload.generator import (
    DEFAULT_ARRIVAL_INTERVAL_MS,
    RequestStream,
    generate_request_stream,
)


@dataclass(frozen=True)
class SampleDataset:
    """A small representative dataset for offline profiling."""

    board: CircuitBoard
    model: CoEModel
    stream: RequestStream

    @property
    def size(self) -> int:
        return len(self.stream)

    def category_weights(self) -> dict:
        """Empirical category mix of the sample (used for probabilities)."""
        return {name: float(count) for name, count in self.stream.category_counts().items()}


def make_sample_dataset(
    board: CircuitBoard,
    model: CoEModel,
    size: int = 500,
    seed: int = 7,
    arrival_interval_ms: float = DEFAULT_ARRIVAL_INTERVAL_MS,
    order: str = "scan",
) -> SampleDataset:
    """Draw a small representative sample of the board's workload."""
    if size <= 0:
        raise ValueError("size must be positive")
    stream = generate_request_stream(
        board=board,
        model=model,
        num_requests=size,
        arrival_interval_ms=arrival_interval_ms,
        seed=seed,
        name=f"{board.name}-sample-{size}",
        order=order,
    )
    return SampleDataset(board=board, model=model, stream=stream)
