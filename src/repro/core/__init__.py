"""CoServe core techniques (§4 of the paper).

* :mod:`repro.core.config` — the expert performance matrix produced by
  the offline phase (§4.5).
* :mod:`repro.core.profiler` — the offline profiler that measures the
  performance matrix through microbenchmarks and pre-assesses expert
  usage probabilities.
* :mod:`repro.core.scheduler` — dependency-aware request scheduling
  (§4.2): additional-latency prediction, request assigning, request
  arranging and the batch splitter.
* :mod:`repro.core.expert_manager` — dependency-aware expert management
  (§4.3): the two-stage eviction strategy.
* :mod:`repro.core.memory` — memory allocation between expert loading
  and intermediate results (§4.4), including the CDF decay-window
  search.
* :mod:`repro.core.initializer` — expert initialisation: round-robin
  distribution of experts by descending usage probability (§4.1).
"""

from repro.core.config import ExpertPerformanceRecord, PerformanceMatrix
from repro.core.profiler import MicrobenchmarkResult, OfflineProfiler
from repro.core.scheduler import BatchSplitter, CoServeScheduler, LatencyPredictor
from repro.core.expert_manager import DependencyAwareEvictionPolicy
from repro.core.memory import (
    DecayWindowSearch,
    DecayWindowResult,
    MemoryPlan,
    limited_compute_plan,
    split_capacity_by_expert_count,
)
from repro.core.initializer import round_robin_preload_plan

__all__ = [
    "ExpertPerformanceRecord",
    "PerformanceMatrix",
    "MicrobenchmarkResult",
    "OfflineProfiler",
    "BatchSplitter",
    "CoServeScheduler",
    "LatencyPredictor",
    "DependencyAwareEvictionPolicy",
    "DecayWindowSearch",
    "DecayWindowResult",
    "MemoryPlan",
    "limited_compute_plan",
    "split_capacity_by_expert_count",
    "round_robin_preload_plan",
]
