"""Memory allocation between expert loading and intermediate results (§4.4).

Two strategies are provided, matching the paper:

* **Limited computational performance** — the processor's maximum batch
  size is small, so its activation memory is sized for that batch and
  everything else is used to hold experts
  (:func:`limited_compute_plan`).
* **Sufficient computational performance** — inference at the maximum
  batch size could consume most of the memory, so the right split is
  found with the CDF **decay-window search**
  (:class:`DecayWindowSearch`, Equations 1–3, Figure 11/18): slide a
  shrinking window over the expert-usage CDF, measure throughput with
  the window's upper bound of experts loaded, fit the upward trend, and
  stop when the measured throughput deviates from the trend (memory
  contention has kicked in).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.core.config import ExpertPerformanceRecord


@dataclass(frozen=True)
class MemoryPlan:
    """A split of one memory budget between experts and activations."""

    total_bytes: int
    expert_pool_bytes: int
    activation_bytes: int

    def __post_init__(self) -> None:
        if self.total_bytes < 0 or self.expert_pool_bytes < 0 or self.activation_bytes < 0:
            raise ValueError("memory plan components must be non-negative")
        if self.expert_pool_bytes + self.activation_bytes > self.total_bytes:
            raise ValueError("memory plan exceeds the total budget")


def limited_compute_plan(
    records: Sequence[ExpertPerformanceRecord], capacity_bytes: int
) -> MemoryPlan:
    """Memory allocation for processors with limited compute (§4.4).

    The activation budget is sized for the largest maximum batch among
    the profiled architectures; the remaining memory holds experts.
    """
    if capacity_bytes <= 0:
        raise ValueError("capacity_bytes must be positive")
    if not records:
        raise ValueError("at least one performance record is required")
    activation = max(
        record.max_batch_size * record.activation_bytes_per_sample for record in records
    )
    activation = min(activation, capacity_bytes)
    return MemoryPlan(
        total_bytes=capacity_bytes,
        expert_pool_bytes=capacity_bytes - activation,
        activation_bytes=activation,
    )


def split_capacity_by_expert_count(
    capacity_bytes: int, expert_count: int, mean_expert_bytes: float
) -> MemoryPlan:
    """Memory allocation given a target number of resident experts.

    Used once the decay-window search has selected how many experts to
    keep loaded: that many (average-sized) experts are reserved, the
    rest of the budget goes to batch intermediate results.
    """
    if capacity_bytes <= 0:
        raise ValueError("capacity_bytes must be positive")
    if expert_count < 0:
        raise ValueError("expert_count must be non-negative")
    if mean_expert_bytes <= 0:
        raise ValueError("mean_expert_bytes must be positive")
    expert_pool = min(capacity_bytes, int(round(expert_count * mean_expert_bytes)))
    return MemoryPlan(
        total_bytes=capacity_bytes,
        expert_pool_bytes=expert_pool,
        activation_bytes=capacity_bytes - expert_pool,
    )


def split_capacity_by_fraction(capacity_bytes: int, expert_fraction: float) -> MemoryPlan:
    """Memory allocation from a user-configured expert-memory fraction.

    This is how the "CoServe Casual" configuration allocates memory
    (75 % of GPU memory for expert loading, 25 % for batch inference).
    """
    if capacity_bytes <= 0:
        raise ValueError("capacity_bytes must be positive")
    if not 0.0 < expert_fraction < 1.0:
        raise ValueError("expert_fraction must be in (0, 1)")
    expert_pool = int(capacity_bytes * expert_fraction)
    return MemoryPlan(
        total_bytes=capacity_bytes,
        expert_pool_bytes=expert_pool,
        activation_bytes=capacity_bytes - expert_pool,
    )


@dataclass(frozen=True)
class DecayWindowResult:
    """Outcome of one decay-window search (Figure 18)."""

    window_lower: int
    window_upper: int
    selected_count: int
    selected_throughput: float
    trace: Tuple[Tuple[int, float], ...]
    linear_error: float


class DecayWindowSearch:
    """The sliding decay-window search over the expert-usage CDF (§4.4).

    Parameters
    ----------
    initial_window:
        Size of the first window (the paper's evaluation uses 15).
    error_margin:
        Relative deviation from the fitted upward trend that stops the
        search (Equation 3; 5 % in the paper's evaluation).
    min_fit_points:
        Minimum number of measurements before the deviation test is
        applied.
    seed:
        Seed for the final in-window selection (the paper selects a
        value within the final window at random because the decayed
        window is already narrow).
    """

    def __init__(
        self,
        initial_window: int = 15,
        error_margin: float = 0.05,
        min_fit_points: int = 3,
        seed: int = 0,
    ) -> None:
        if initial_window <= 0 or initial_window >= 100:
            raise ValueError("initial_window must be in (0, 100)")
        if error_margin <= 0:
            raise ValueError("error_margin must be positive")
        if min_fit_points < 2:
            raise ValueError("min_fit_points must be at least 2")
        self.initial_window = initial_window
        self.error_margin = error_margin
        self.min_fit_points = min_fit_points
        self.seed = seed

    @property
    def decay_factor(self) -> float:
        """Equation 1: ``1 - initial_window / 100``."""
        return 1.0 - self.initial_window / 100.0

    def _fit_and_predict(self, throughputs: Sequence[float]) -> float:
        """Fit Equation 2 on all but the last point and predict the last."""
        history = throughputs[:-1]
        xs = np.arange(1, len(history) + 1, dtype=float)
        ys = np.asarray(history, dtype=float)
        k, b = np.polyfit(xs, ys, 1)
        return float(k * (len(history) + 1) + b)

    def search(
        self,
        throughput_fn: Callable[[int], float],
        max_expert_count: int,
        min_expert_count: int = 1,
    ) -> DecayWindowResult:
        """Run the search.

        Parameters
        ----------
        throughput_fn:
            Callable that loads ``count`` experts, replays the sample
            dataset and returns the measured throughput.
        max_expert_count:
            Largest number of experts that can possibly be loaded (the
            hard memory limit).
        min_expert_count:
            Smallest number of experts worth evaluating.
        """
        if max_expert_count < min_expert_count:
            raise ValueError("max_expert_count must be >= min_expert_count")

        lower = 0.0
        size = float(self.initial_window)
        counts: List[int] = []
        throughputs: List[float] = []
        window_bounds: List[Tuple[int, int]] = []
        linear_error = 0.0

        while True:
            upper = lower + size
            count = int(round(upper))
            count = max(min_expert_count, min(count, max_expert_count))
            if counts and count <= counts[-1]:
                # The decayed window has collapsed onto the previous
                # measurement (or the memory limit); stop sliding.
                break
            throughput = float(throughput_fn(count))
            counts.append(count)
            throughputs.append(throughput)
            window_bounds.append((int(round(lower)), count))

            if len(throughputs) > self.min_fit_points:
                predicted = self._fit_and_predict(throughputs)
                if predicted > 0:
                    deviation = (predicted - throughput) / predicted
                    if deviation > self.error_margin:
                        linear_error = deviation
                        break
            if count >= max_expert_count:
                break
            lower = upper
            size *= self.decay_factor

        window_lower, window_upper = window_bounds[-1]
        window_lower = max(min_expert_count, window_lower)
        rng = np.random.default_rng(self.seed)
        if window_upper > window_lower:
            selected = int(rng.integers(window_lower, window_upper + 1))
        else:
            selected = window_upper
        trace = tuple(zip(counts, throughputs))
        # The slide may already have measured the selected count.
        selected_throughput = dict(trace).get(selected)
        if selected_throughput is None:
            selected_throughput = float(throughput_fn(selected))
        return DecayWindowResult(
            window_lower=window_lower,
            window_upper=window_upper,
            selected_count=selected,
            selected_throughput=selected_throughput,
            trace=trace,
            linear_error=linear_error,
        )
