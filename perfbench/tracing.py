"""In-memory span tracer for the benchmark's traced run.

:func:`instrument` replaces public functions and methods of the
simulator's layers with timing wrappers, from outside, and returns a
callable that puts the originals back.  Nothing under ``src/`` is
edited.  Two kinds of record are kept:

- **spans** for coarse boundaries (a cell, a session run, a system
  build, a tuning search, a context build): name, start, end, parent
  span and the cell id they belong to;
- **per-call samples** for hot operations (scheduler decisions, queue
  operations, observer hooks, eviction choices), one float per call, so
  million-call runs stay a few megabytes.

Both share one stack, so every record also yields a self time (its
duration minus the time of the records nested inside it).

Wrappers go on class attributes only where the class overrides the
method itself, so the session's method-identity fast paths (FCFS
selection and batch cap, the default scheduling hooks) take the same
branch traced and untraced; :class:`Tracer` counts any session whose
fast-path flags differ from the untraced expectation.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Percentiles tried, highest first, for the tail figure of a per-call
#: cost: the highest one with at least ten samples beyond it is used.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)


def summarize(samples: Sequence[float]) -> Tuple[float, float, float, int]:
    """``(median, tail percentile, tail value, count)`` of ``samples``.

    The tail percentile is the highest of :data:`TAIL_PERCENTILES` that
    leaves at least ten samples above it; with fewer than twenty samples
    it is the median itself.  Empty input gives zeros.
    """
    count = len(samples)
    if count == 0:
        return 0.0, 0.0, 0.0, 0
    ordered = sorted(samples)

    def quantile(q: float) -> float:
        position = q * (count - 1)
        low = int(position)
        high = min(low + 1, count - 1)
        return ordered[low] + (ordered[high] - ordered[low]) * (position - low)

    tail = 50.0
    for percentile in TAIL_PERCENTILES:
        if count * (1.0 - percentile / 100.0) >= 10.0:
            tail = percentile
            break
    return quantile(0.5), tail, quantile(tail / 100.0), count


class Tracer:
    """Spans, per-call samples, counters and peaks of one process."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index, ident]`` per span.
        self.spans: List[list] = []
        self.samples: Dict[str, array] = defaultdict(lambda: array("d"))
        self.self_time: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.peaks: Dict[str, int] = defaultdict(int)
        self.fast_path_mismatches = 0
        self._active: Dict[str, int] = defaultdict(int)
        # Frames are [time of nested records, span index or -1].
        self._stack: List[list] = []

    # ------------------------------------------------------------------
    def _parent(self) -> Tuple[int, Optional[str]]:
        for frame in reversed(self._stack):
            if frame[1] >= 0:
                span = self.spans[frame[1]]
                return frame[1], span[4]
        return -1, None

    @contextlib.contextmanager
    def span(self, name: str, ident: Optional[str] = None) -> Iterator[None]:
        """Record one span around the ``with`` body."""
        parent, inherited = self._parent()
        index = len(self.spans)
        record = [name, 0.0, 0.0, parent, ident if ident is not None else inherited]
        self.spans.append(record)
        frame = [0.0, index]
        stack = self._stack
        stack.append(frame)
        self._active[name] += 1
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            elapsed = end - start
            self._active[name] -= 1
            stack.pop()
            record[1] = start
            record[2] = end
            self.samples[name].append(elapsed)
            self.self_time[name] += elapsed - frame[0]
            if stack:
                stack[-1][0] += elapsed

    def active(self, name: str) -> bool:
        """Whether a span called ``name`` is open."""
        return self._active[name] > 0

    def spanned(
        self,
        name: str,
        function: Callable,
        ident: Optional[Callable[..., Optional[str]]] = None,
        on_result: Optional[Callable[[object], None]] = None,
    ) -> Callable:
        """``function`` wrapped in a span (for coarse, rare calls)."""

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            with self.span(name, ident(*args, **kwargs) if ident else None):
                result = function(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def timed(
        self,
        name: str,
        function: Callable,
        on_result: Optional[Callable[[object], None]] = None,
    ) -> Callable:
        """``function`` wrapped to keep one duration sample per call."""
        samples = self.samples[name]
        self_time = self.self_time
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            frame = [0.0, -1]
            stack.append(frame)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                samples.append(elapsed)
                self_time[name] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    # ------------------------------------------------------------------
    def export(self) -> dict:
        """Picklable state, for a worker's exit report."""
        return {
            "spans": self.spans,
            "samples": dict(self.samples),
            "self_time": dict(self.self_time),
            "counts": dict(self.counts),
            "peaks": dict(self.peaks),
            "fast_path_mismatches": self.fast_path_mismatches,
        }

    def merge(self, exported: dict) -> None:
        """Fold another process's :meth:`export` into this tracer.

        Spans keep their parents (indices are shifted); their clocks are
        the other process's, so only durations compare across processes.
        """
        offset = len(self.spans)
        for name, start, end, parent, ident in exported["spans"]:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1, ident])
        for name, values in exported["samples"].items():
            self.samples[name].extend(values)
        for name, value in exported["self_time"].items():
            self.self_time[name] += value
        for name, value in exported["counts"].items():
            self.counts[name] += value
        for name, value in exported["peaks"].items():
            self.peaks[name] = max(self.peaks[name], value)
        self.fast_path_mismatches += exported["fast_path_mismatches"]


# ----------------------------------------------------------------------
# Session-level counting
# ----------------------------------------------------------------------
#: Counting-observer hooks, in the order of :attr:`CountingObserver.counts`.
EVENT_KINDS = (
    "arrival",
    "dispatch",
    "batch_start",
    "expert_load",
    "expert_evict",
    "tier_migration",
    "completion",
)


class CountingObserver:
    """Counts a session's events by kind and samples its live state.

    Pure: it reads the session through public properties only and
    touches nothing the run depends on.  Peaks are sampled at arrivals
    and completions; the live heap is the pending-event count minus the
    arrivals the cursor has not consumed yet.
    """

    def __init__(self, tracer: Tracer, session) -> None:
        self.tracer = tracer
        self.session = session
        self.counts = [0] * len(EVENT_KINDS)
        self.peak_live = 0
        self.peak_heap = 0

    def _sample(self) -> None:
        session = self.session
        live = session.live_requests
        if live > self.peak_live:
            self.peak_live = live
        heap = session.pending_events - (session.total_requests - self.counts[0])
        if heap > self.peak_heap:
            self.peak_heap = heap

    def on_request_arrival(self, event) -> None:
        self.counts[0] += 1
        self._sample()

    def on_job_dispatch(self, event) -> None:
        self.counts[1] += 1

    def on_batch_start(self, event) -> None:
        self.counts[2] += 1

    def on_expert_load(self, event) -> None:
        self.counts[3] += 1

    def on_expert_evict(self, event) -> None:
        self.counts[4] += 1

    def on_tier_migration(self, event) -> None:
        self.counts[5] += 1

    def on_request_completion(self, event) -> None:
        self.counts[6] += 1
        self._sample()

    def on_finish(self, event) -> None:
        tracer = self.tracer
        for kind, count in zip(EVENT_KINDS, self.counts):
            tracer.counts[f"simulation.events.{kind}"] += count
        tracer.peaks["simulation.peak_live_requests"] = max(
            tracer.peaks["simulation.peak_live_requests"], self.peak_live
        )
        tracer.peaks["simulation.peak_pending_events"] = max(
            tracer.peaks["simulation.peak_pending_events"], self.peak_heap
        )


def fast_path_flags(policy_cls: type) -> Tuple[bool, ...]:
    """The session's method-identity checks for a scheduling policy class."""
    from repro.scheduling.fcfs import FCFSScheduling
    from repro.simulation.interfaces import SchedulingPolicy

    return (
        getattr(policy_cls, "select_executor", None) is FCFSScheduling.select_executor,
        getattr(policy_cls, "max_batch_size", None) is FCFSScheduling.max_batch_size,
        getattr(policy_cls, "scheduling_latency_ms", None) is SchedulingPolicy.scheduling_latency_ms,
        getattr(policy_cls, "predicted_additional_latency_ms", None)
        is SchedulingPolicy.predicted_additional_latency_ms,
        getattr(policy_cls, "enqueue", None) is SchedulingPolicy.enqueue
        and getattr(policy_cls, "insertion_index", None) is SchedulingPolicy.insertion_index,
    )


def session_flags(session) -> Tuple[bool, ...]:
    """The fast-path branch a constructed session actually took."""
    return (
        session._first_executor is not None,
        session._fixed_max_batch is not None,
        session._default_scheduling_latency,
        session._default_predicted_latency,
        session._default_enqueue,
    )


# ----------------------------------------------------------------------
# Instrumentation
# ----------------------------------------------------------------------
def _cell_label(context, cell, *args, **kwargs) -> str:
    return cell.label()


def instrument(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer's public entry points; return the undo callable."""
    # Import every module whose names get patched first: a module that
    # imports a name from another after the patch would copy the
    # wrapper, and wrapping that copy again would record calls twice.
    for module in ("repro.experiments", "repro.sweeps.halving", "repro.sweeps.worker", "repro.surrogate"):
        importlib.import_module(module)
    from repro.core.expert_manager import DependencyAwareEvictionPolicy
    from repro.core.profiler import OfflineProfiler
    from repro.core.scheduler import CoServeScheduler
    from repro.metrics.collector import MetricsObserver
    from repro.policies.fifo import FIFOPolicy
    from repro.policies.lfu import LFUPolicy
    from repro.policies.lru import LRUPolicy
    from repro.policies.random_policy import RandomPolicy
    from repro.scheduling.fcfs import FCFSScheduling
    from repro.scheduling.round_robin import RoundRobinScheduling
    from repro.serving.coserve import CoServeSystem
    from repro.serving.samba_coe import SambaCoESystem
    from repro.simulation.engine import ServingSimulation
    from repro.simulation.queueing import RequestQueue
    from repro.simulation.session import SimulationSession
    from repro.surrogate.model import QueueingSurrogate

    expected = {
        cls: fast_path_flags(cls)
        for cls in (CoServeScheduler, FCFSScheduling, RoundRobinScheduling)
    }
    undo: List[Tuple[object, str, object]] = []

    def patch(owner, attribute: str, make: Callable[[Callable], Callable]) -> None:
        if isinstance(owner, type):
            # Patch where the method is defined, once: a subclass that
            # only inherits it must keep reading the base attribute.
            owner = next(klass for klass in owner.__mro__ if attribute in vars(klass))
            if any(o is owner and a == attribute for o, a, _ in undo):
                return
            original = vars(owner)[attribute]
        else:
            original = getattr(owner, attribute)
        undo.append((owner, attribute, original))
        setattr(owner, attribute, make(original))

    def timed(name: str, on_result=None):
        return lambda function: tracer.timed(name, function, on_result)

    def spanned(name: str, ident=None, on_result=None):
        return lambda function: tracer.spanned(name, function, ident, on_result)

    def count(name: str, value: Callable[[object], int] = lambda _: 1):
        def on_result(result) -> None:
            tracer.counts[name] += value(result)

        return on_result

    # workload
    patch(importlib.import_module("repro.workload.tasks"), "generate_request_stream", timed("workload.eager_stream"))
    # experiments: tuning replays behind figures 17 and 18
    for module, function in (
        ("repro.experiments.figure17", "sweep_executor_configurations"),
        ("repro.experiments.figure18", "run_memory_allocation_search"),
        ("repro.serving.tuning", "tune_configuration"),
    ):
        patch(importlib.import_module(module), function, spanned("core.tune"))
    # core
    patch(OfflineProfiler, "build_performance_matrix", spanned("core.profile_matrix"))
    for method in ("select_executor", "enqueue", "max_batch_size", "predicted_additional_latency_ms"):
        patch(CoServeScheduler, method, timed("core.scheduler"))
    patch(DependencyAwareEvictionPolicy, "victim_order", timed("core.victim_order"))
    # policies
    victims = count("policies.victims", len)
    for policy in (LRUPolicy, FIFOPolicy, LFUPolicy, RandomPolicy):
        patch(policy, "victim_order", timed("policies.select_victims", victims))
    # serving
    for system in (CoServeSystem, SambaCoESystem):
        patch(system, "build_simulation", spanned("serving.build"))

    # simulation
    def open_session(function):
        @functools.wraps(function)
        def wrapper(simulation, *args, **kwargs):
            session = function(simulation, *args, **kwargs)
            policy_cls = type(simulation.scheduling_policy)
            flags = expected.get(policy_cls)
            if flags is None:
                flags = expected[policy_cls] = fast_path_flags(policy_cls)
            if session_flags(session) != flags:
                tracer.fast_path_mismatches += 1
            session.add_observer(CountingObserver(tracer, session))
            return session

        return wrapper

    def session_run(function):
        run = tracer.spanned("simulation.run", function)

        @functools.wraps(function)
        def wrapper(session):
            if tracer.active("core.tune"):
                tracer.counts["core.tune_replays"] += 1
            return run(session)

        return wrapper

    patch(ServingSimulation, "session", open_session)
    patch(SimulationSession, "run", session_run)
    for method in ("append", "insert_grouped", "pop_head_run"):
        patch(RequestQueue, method, timed(f"simulation.queue.{method}"))
    # metrics
    for hook in ("on_job_dispatch", "on_batch_start", "on_expert_load"):
        patch(MetricsObserver, hook, timed("metrics.hook"))
    # surrogate
    for module in ("repro.surrogate", "repro.sweeps.halving"):
        patch(importlib.import_module(module), "extract_features", timed("surrogate.features"))
    patch(QueueingSurrogate, "estimate", timed("surrogate.estimate"))
    patch(QueueingSurrogate, "recalibrated", timed("surrogate.recalibrate"))
    # sweeps
    cells = count("sweeps.requests", lambda result: result.num_requests)
    for module in ("repro.sweeps.runner", "repro.sweeps.worker"):
        patch(importlib.import_module(module), "execute_cell", spanned("sweeps.cell", _cell_label, cells))

    def restore() -> None:
        while undo:
            owner, attribute, original = undo.pop()
            setattr(owner, attribute, original)

    return restore
