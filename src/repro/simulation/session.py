"""Steppable simulation sessions: the engine's primary API.

A :class:`SimulationSession` owns the discrete-event loop that
:class:`~repro.simulation.engine.ServingSimulation` used to hide inside
its monolithic ``run()``.  Instead of a single run-to-completion call,
a session exposes

* :meth:`~SimulationSession.step` — process exactly one engine event,
* :meth:`~SimulationSession.run_until` — advance virtual time to a
  deadline,
* :meth:`~SimulationSession.events` — an iterator of typed
  :class:`SimEvent` objects as they happen, and
* :meth:`~SimulationSession.run` — drain to completion and return the
  :class:`~repro.simulation.results.SimulationResult` (what the legacy
  ``ServingSimulation.run()`` shim delegates to).

Observers are the one way a run is observed.  Every session
subscribes ``repro.metrics.MetricsObserver``, which sums the result's
metric totals; timelines (``repro.metrics.TimelineObserver``), SLO
monitors, progress reporters and early aborts attach through the same
:class:`SimObserver` hook surface, and :meth:`SimulationSession.events`
yields the typed events themselves.  Results are bit-identical to the
pre-session engine (enforced against :mod:`repro.simulation.reference`).

Observer dispatch is pay-for-what-you-use: the session keeps one
callback list per hook and every emission site first checks that list
for emptiness, so a hook nobody subscribed to costs a single truth test
and never materialises an event object.  Hook methods inherited
unchanged from :class:`SimObserver` are recognised as no-ops and are
not subscribed at all.

Million-request event core
--------------------------

Request streams guarantee arrival-sorted specs, so arrivals never
enter the event heap: the session consumes them through an *arrival
cursor* (one spec held at a time) and each step picks the earlier of
the next arrival and the heap top.  The heap holds only *live* events —
executor dispatches and batch finishes plus the next-stage jobs they
spawn — so construction is O(1) instead of O(N log N), heap size is
O(active) instead of O(N + active), and no per-arrival event tuple is
ever allocated.  Requests and their first stage jobs materialise from
the :class:`~repro.workload.generator.RequestSpec` at arrival time, so
with ``keep_request_records=False`` peak live objects track in-flight
requests rather than stream length — the regime million-request
production-shift sweeps run in (feed those a
:class:`~repro.workload.generator.LazyRequestStream` and the specs
themselves stream too).

Tie-breaks are bit-identical to the former all-in-heap core: events
ordered by ``(time, kind, sequence)`` with arrivals carrying the
stream-order sequence numbers ``0..N-1`` and every live event numbered
from ``N`` upward, exactly as when construction seeded the heap.

One event loop
--------------

``step``, ``run_until`` and ``run`` are thin wrappers over one private
drain loop that takes a deadline and a stop-after-one flag.  That loop
alone holds the arrival-vs-heap tie-break (only a same-time FINISH
precedes an arrival), the sorted-arrival check, abort and
finalise-on-drain.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace as dataclass_replace
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.hardware.memory import MemoryTier
from repro.hardware.processor import ProcessorKind
from repro.policies.base import EvictionContext
from repro.simulation.request import SimRequest, StageJob, StageRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.engine import ServingSimulation
    from repro.simulation.executor import Executor
    from repro.simulation.results import SimulationResult
    from repro.workload.generator import RequestSpec, RequestStreamLike


class SimulationError(RuntimeError):
    """Raised when a run cannot proceed (e.g. an expert cannot fit)."""


class SimulationAborted(SimulationError):
    """Raised by :meth:`SimulationSession.run` when an observer aborted.

    Carries where the simulation stopped so early-abort scenarios (an
    :class:`~repro.simulation.slo.SLOMonitor` proving a latency target
    unreachable) can report how far the cell got.
    """

    def __init__(self, reason: str, time_ms: float, completed_requests: int) -> None:
        super().__init__(
            f"simulation aborted at {time_ms:.3f} ms after "
            f"{completed_requests} completed request(s): {reason}"
        )
        self.reason = reason
        self.time_ms = time_ms
        self.completed_requests = completed_requests


# ----------------------------------------------------------------------
# Typed events
# ----------------------------------------------------------------------
# Events are slotted (they are created on the engine's hot path) and
# treated as immutable by convention; ``frozen=True`` would roughly
# double construction cost for no behavioural gain.


@dataclass(slots=True)
class SimEvent:
    """Base of every session event; ``time_ms`` is virtual time."""

    time_ms: float


@dataclass(slots=True)
class RequestArrival(SimEvent):
    """A workload request entered the system (its first stage job)."""

    request: SimRequest


@dataclass(slots=True)
class JobDispatch(SimEvent):
    """The scheduler placed one stage job on an executor's queue.

    Fired for every pipeline stage (a request's later stages dispatch
    when the preceding stage finishes); ``scheduling_latency_ms`` is the
    CPU cost of the decision itself (Figure 19's metric).
    """

    job: StageJob
    executor_name: str
    scheduling_latency_ms: float


@dataclass(slots=True)
class BatchStart(SimEvent):
    """An executor began executing a batch (``time_ms`` = start)."""

    executor_name: str
    expert_id: str
    batch_size: int
    latency_ms: float
    end_ms: float
    switch_wait_ms: float


@dataclass(slots=True)
class ExpertLoad(SimEvent):
    """An expert was loaded into an executor's model pool.

    ``latency_ms`` includes any wait for the (serial) source tier, so it
    matches the switching time the metrics collector accounts.
    """

    executor_name: str
    expert_id: str
    source_tier: str
    latency_ms: float
    evicted: bool


@dataclass(slots=True)
class ExpertEvict(SimEvent):
    """A resident expert was evicted to make room for ``incoming_expert_id``."""

    executor_name: str
    pool_name: str
    expert_id: str
    bytes_freed: int
    incoming_expert_id: str


@dataclass(slots=True)
class TierMigration(SimEvent):
    """An evicted expert migrated to a slower memory tier (GPU → host cache)."""

    expert_id: str
    weight_bytes: int
    from_tier: str
    to_tier: str


@dataclass(slots=True)
class RequestCompletion(SimEvent):
    """A request finished its last pipeline stage."""

    request: SimRequest


@dataclass(slots=True)
class SimulationFinish(SimEvent):
    """The session finished (drained the stream, or was aborted)."""

    completed_requests: int
    aborted: bool
    reason: Optional[str]


class SimObserver:
    """Typed hook surface of a :class:`SimulationSession`.

    Subclass and override only the hooks you need — hooks left as the
    base no-ops are never subscribed, so an observer pays only for what
    it watches.  The protocol is structural: any object defining a
    subset of these methods (no inheritance required) works, which is
    how ``repro.metrics`` attaches without importing this module.
    """

    def on_attach(self, session: "SimulationSession") -> None:
        """Called once when the observer is added to a session."""

    def on_request_arrival(self, event: RequestArrival) -> None:
        """A workload request entered the system."""

    def on_job_dispatch(self, event: JobDispatch) -> None:
        """A stage job was assigned to an executor queue."""

    def on_batch_start(self, event: BatchStart) -> None:
        """An executor started executing a batch."""

    def on_expert_load(self, event: ExpertLoad) -> None:
        """An expert was loaded into a model pool."""

    def on_expert_evict(self, event: ExpertEvict) -> None:
        """A resident expert was evicted from a model pool."""

    def on_tier_migration(self, event: TierMigration) -> None:
        """An expert moved to a slower memory tier (e.g. the host cache)."""

    def on_request_completion(self, event: RequestCompletion) -> None:
        """A request finished its last pipeline stage."""

    def on_finish(self, event: SimulationFinish) -> None:
        """The session drained its stream (or was aborted)."""


#: Hook method name → session dispatch-list attribute.
_HOOK_LISTS: Tuple[Tuple[str, str], ...] = (
    ("on_request_arrival", "_on_request_arrival"),
    ("on_job_dispatch", "_on_job_dispatch"),
    ("on_batch_start", "_on_batch_start"),
    ("on_expert_load", "_on_expert_load"),
    ("on_expert_evict", "_on_expert_evict"),
    ("on_tier_migration", "_on_tier_migration"),
    ("on_request_completion", "_on_request_completion"),
    ("on_finish", "_on_finish"),
)


class _EventRecorder:
    """Internal observer that buffers every event for :meth:`events`."""

    def __init__(self, buffer: List[SimEvent]) -> None:
        self._buffer = buffer

    def _record(self, event: SimEvent) -> None:
        self._buffer.append(event)

    on_request_arrival = _record
    on_job_dispatch = _record
    on_batch_start = _record
    on_expert_load = _record
    on_expert_evict = _record
    on_tier_migration = _record
    on_request_completion = _record
    on_finish = _record


#: Event kinds, ordered so that finishes at time t are handled before
#: arrivals at the same instant (freeing executors first is both
#: realistic and deterministic).
_EVENT_FINISH = 0
_EVENT_JOB = 1
_EVENT_DISPATCH = 2

#: Shared empty protected-set for single-executor eviction contexts.
_EMPTY_FROZENSET: frozenset = frozenset()

#: Module-local alias: the handlers push an event per job/batch, and
#: the attribute hop through the module object is measurable there.
_heappush = heapq.heappush

#: Deadline of ``step()`` and ``run()``: no event time lies past it.
_NO_DEADLINE = float("inf")


class SimulationSession:
    """A steppable serving run over one request stream.

    Parameters
    ----------
    simulation:
        A freshly built :class:`~repro.simulation.engine.ServingSimulation`.
        A simulation can back at most one session (its pools, stats and
        resources are mutated by the run); build a new simulation per
        session, exactly as ``ServingSystem.serve`` always has.
    stream:
        The request stream to serve.
    observers:
        Observers subscribed before the first event.  More can be added
        mid-run with :meth:`add_observer`.

    Every session first subscribes the built-in
    :class:`~repro.metrics.collector.MetricsObserver`, feeding
    ``simulation.metrics``: it is where the result's metric totals come
    from.
    """

    def __init__(
        self,
        simulation: "ServingSimulation",
        stream: "RequestStreamLike",
        observers: Sequence[object] = (),
    ) -> None:
        if getattr(simulation, "_session", None) is not None:
            raise SimulationError(
                "simulation is already driven by a session; "
                "build a fresh simulation for every run"
            )
        self.simulation = simulation
        self.stream = stream
        self.now_ms = 0.0
        self.completed_requests = 0
        self._finished = False
        self._aborted = False
        self._abort_reason: Optional[str] = None
        self._result: Optional["SimulationResult"] = None

        # Hot references, bound once.  Resolved *after* any method
        # rebinding (e.g. reference.referencify) so the session drives
        # whatever implementation the simulation currently carries.
        self._policy = simulation.scheduling_policy
        self._eviction = simulation.eviction_policy
        self._model = simulation.model
        self._device = simulation.device
        self._executors = simulation._executors
        self._host_cache = simulation.host_cache
        self._compute_resources = simulation._compute_resources
        self._io_resources = simulation._io_resources
        self._options = simulation.options
        self._locate_source_tier = simulation._locate_source_tier
        # Hot *methods*, pre-bound: the handlers call these once or more
        # per event, and creating a bound-method object per call is
        # measurable at million-request scale.
        policy = self._policy
        self._scheduling_latency_ms = policy.scheduling_latency_ms
        self._select_executor = policy.select_executor
        self._predicted_additional_latency_ms = policy.predicted_additional_latency_ms
        self._policy_enqueue = policy.enqueue
        self._max_batch_size = policy.max_batch_size
        self._expert = self._model.expert
        self._execution_latency_ms = self._device.execution_latency_ms
        self._expert_load_latency_ms = self._device.expert_load_latency_ms
        # Execution latency is a pure function of (architecture,
        # processor, batch size) — a closed-form profile lookup — and a
        # serving run asks for the same handful of keys tens of
        # thousands of times, so _dispatch memoises the three-call
        # chain behind one dict probe.
        self._execution_latency_cache: Dict[tuple, float] = {}
        self._load_latency_cache: Dict[tuple, float] = {}
        self._record_access = self._eviction.record_access
        self._victim_order = self._eviction.victim_order
        # Policies that inherit the base-class defaults for a decision
        # get that decision constant-folded out of the per-job handler:
        # the defaults are pure no-ops (zero scheduling latency, zero
        # predicted latency, tail insertion), so recognising them — the
        # class attribute *is* the base class's function — removes up to
        # three Python calls per stage job.  Deferred import: interfaces
        # imports this module for the SimObserver re-export.
        from repro.simulation.interfaces import SchedulingPolicy
        from repro.scheduling.fcfs import FCFSScheduling

        policy_cls = type(policy)
        # FCFS's selector is "the first executor", independent of the
        # job; recognising the exact method lets the per-job handler
        # use the prebound executor instead of a Python call.
        self._first_executor = (
            self._executors[0]
            if getattr(policy_cls, "select_executor", None)
            is FCFSScheduling.select_executor
            else None
        )
        # Likewise FCFS's batch cap is a constant, independent of the
        # executor and expert: folding it lets _dispatch skip the
        # policy call *and* the head-expert probe it would feed.
        if getattr(policy_cls, "max_batch_size", None) is FCFSScheduling.max_batch_size:
            self._fixed_max_batch: Optional[int] = max(
                1, policy.max_batch_size(self._executors[0], "")
            )
        else:
            self._fixed_max_batch = None
        self._default_scheduling_latency = (
            getattr(policy_cls, "scheduling_latency_ms", None)
            is SchedulingPolicy.scheduling_latency_ms
        )
        self._default_predicted_latency = (
            getattr(policy_cls, "predicted_additional_latency_ms", None)
            is SchedulingPolicy.predicted_additional_latency_ms
        )
        self._default_enqueue = (
            getattr(policy_cls, "enqueue", None) is SchedulingPolicy.enqueue
            and getattr(policy_cls, "insertion_index", None)
            is SchedulingPolicy.insertion_index
        )

        # One callback list per hook; emission sites check emptiness
        # before materialising an event.
        self._on_request_arrival: List[Callable] = []
        self._on_job_dispatch: List[Callable] = []
        self._on_batch_start: List[Callable] = []
        self._on_expert_load: List[Callable] = []
        self._on_expert_evict: List[Callable] = []
        self._on_tier_migration: List[Callable] = []
        self._on_request_completion: List[Callable] = []
        self._on_finish: List[Callable] = []
        self._observers: List[object] = []

        self._policy.attach(simulation)
        # Arrival cursor: streams guarantee arrival-sorted specs, so the
        # heap never sees an arrival.  One spec is held at a time;
        # requests and their first stage jobs materialise when the
        # arrival is processed.  ``requests`` fills lazily (only the
        # in-flight map is kept when request records are disabled).
        self._spec_iter: Iterator["RequestSpec"] = iter(stream)
        self._next_spec: Optional["RequestSpec"] = next(self._spec_iter, None)
        self._total_requests = len(stream)
        self._arrivals_consumed = 0
        self.requests: List[SimRequest] = []
        self._inflight: Optional[Dict[int, SimRequest]] = (
            None if simulation.options.keep_request_records else {}
        )
        self._keep_stage_records = simulation.options.keep_stage_records
        # Heap entries are ``(time, kind, sequence, *rest)``: JOB and
        # DISPATCH carry one payload element, FINISH events flatten
        # their five fields straight into the entry (no nested payload
        # tuple on the hot path).  Sequences are unique, so ordering
        # never compares past index 2.
        self._events: List[tuple] = []
        # Live events are numbered after every arrival (the cursor owns
        # sequences 0..N-1), preserving the pre-cursor tie-breaks.
        self._sequence = self._total_requests
        self._last_completion_ms = 0.0

        # Subscribe observers last: at attach time they see a fully
        # seeded session (stream length, pending events, time zero).
        from repro.metrics.collector import MetricsObserver

        self.add_observer(MetricsObserver(simulation.metrics))
        for observer in observers:
            self.add_observer(observer)

        # Claim the simulation only once construction can no longer
        # fail, so a raising observer attach (or a bad stream) does not
        # poison the simulation for a retry.
        simulation._session = self

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def total_requests(self) -> int:
        """Length of the request stream this session serves."""
        return self._total_requests

    @property
    def is_finished(self) -> bool:
        """Whether the session finalised (drained its stream, or aborted)."""
        return self._finished

    @property
    def aborted(self) -> bool:
        """Whether the session stopped early via :meth:`abort`."""
        return self._aborted

    @property
    def abort_reason(self) -> Optional[str]:
        """The first reason passed to :meth:`abort`, or None while healthy."""
        return self._abort_reason

    @property
    def pending_events(self) -> int:
        """Engine events still queued (arrivals, dispatches, finishes).

        Counts arrivals the cursor has not yet consumed plus the live
        heap, so it reads exactly as it did when every arrival was
        heap-seeded: ``len(stream)`` at construction, 0 when drained.
        """
        return len(self._events) + (self._total_requests - self._arrivals_consumed)

    @property
    def next_event_time_ms(self) -> Optional[float]:
        """Virtual time of the next engine event, or None when drained."""
        heap_time = self._events[0][0] if self._events else None
        spec = self._next_spec
        if spec is None:
            return heap_time
        if heap_time is None or spec.arrival_ms < heap_time:
            return spec.arrival_ms
        return heap_time

    @property
    def observers(self) -> Tuple[object, ...]:
        """The currently subscribed observers, in attach order."""
        return tuple(self._observers)

    @property
    def live_requests(self) -> int:
        """Materialised requests currently held by the session.

        With request records kept (the default) this counts every
        request arrived so far; with ``keep_request_records=False``
        completed requests are released, so it is the in-flight count —
        the quantity the engine-scale benchmark bounds.
        """
        if self._inflight is None:
            return len(self.requests)
        return len(self._inflight)

    @property
    def result(self) -> "SimulationResult":
        """The finished run's result (raises until the session finishes)."""
        if self._result is None:
            state = "was aborted" if self._aborted else "has not finished"
            raise SimulationError(f"no result available: the session {state}")
        return self._result

    def partial_result(self) -> "SimulationResult":
        """Aggregate result of an aborted session, up to the abort point.

        Only available after an abort (a cleanly finished session's
        result is :attr:`result`).  The result is flagged ``aborted``
        and carries the abort reason; ``num_requests`` is the number of
        requests that *completed* before the stop, so rate metrics
        describe the work actually served.  Sweep-level early aborts
        store exactly this as the doomed cell's outcome.
        """
        if not self._aborted:
            raise SimulationError(
                "partial_result is only available after an abort"
                + ("" if self._finished else " (the session is still running)")
            )
        result = self.simulation._build_result(
            self.stream, self.requests, self._last_completion_ms
        )
        return dataclass_replace(
            result,
            num_requests=self.completed_requests,
            aborted=True,
            abort_reason=self._abort_reason,
        )

    # ------------------------------------------------------------------
    # Observer management
    # ------------------------------------------------------------------
    def add_observer(self, observer: object) -> None:
        """Subscribe an observer's overridden hooks (any time before finish)."""
        if self._finished:
            raise SimulationError("cannot add observers to a finished session")
        self._observers.append(observer)
        for hooks, bound in self._overridden_hooks(observer):
            hooks.append(bound)
        on_attach = getattr(type(observer), "on_attach", None)
        if on_attach is not None and on_attach is not SimObserver.on_attach:
            observer.on_attach(self)

    def _remove_observer(self, observer: object) -> None:
        """Unsubscribe an observer's hooks (internal; used by events())."""
        if observer not in self._observers:
            return
        self._observers.remove(observer)
        for hooks, bound in self._overridden_hooks(observer):
            if bound in hooks:
                hooks.remove(bound)

    def _overridden_hooks(self, observer: object) -> Iterator[Tuple[List[Callable], Callable]]:
        """(dispatch list, bound hook) for every hook ``observer`` overrides."""
        cls = type(observer)
        for hook_name, list_name in _HOOK_LISTS:
            implementation = getattr(cls, hook_name, None)
            if implementation is None or implementation is getattr(SimObserver, hook_name):
                continue
            yield getattr(self, list_name), getattr(observer, hook_name)

    def abort(self, reason: str) -> None:
        """Request an early stop; the session finishes on the next step.

        Called by observers (e.g. the SLO monitor) from inside a hook;
        the event being processed completes normally, remaining queued
        events are discarded, and :meth:`run` raises
        :class:`SimulationAborted`.
        """
        if self._finished:
            raise SimulationError("cannot abort a finished session")
        if self._abort_reason is None:
            self._abort_reason = str(reason)

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Process exactly one engine event.

        Returns True while the simulation advanced; the call that finds
        the event queue drained (or an abort requested) finalises the
        session — emitting ``on_finish`` and building the result — and
        returns False.
        """
        return self._drain(_NO_DEADLINE, True) > 0

    def run_until(self, time_ms: float) -> int:
        """Process every event up to and including virtual time ``time_ms``.

        Returns the number of engine events processed.  If the stream
        drains (or an observer aborts) before the deadline, the session
        finalises exactly as :meth:`run` would.
        """
        return self._drain(time_ms, False)

    def events(self) -> Iterator[SimEvent]:
        """Iterate over typed events as the simulation advances.

        Stepping and yielding interleave: each :meth:`step` call's
        events are yielded before the next event is processed, ending
        with the :class:`SimulationFinish` event.  Abandoning the
        iterator leaves the session paused at the last yielded point;
        its internal recorder unsubscribes when the generator is closed
        (or collected), so later stepping pays no recording cost.
        """
        buffer: List[SimEvent] = []
        recorder = _EventRecorder(buffer)
        self.add_observer(recorder)
        try:
            while True:
                advanced = self.step()
                if buffer:
                    for event in buffer:
                        yield event
                    buffer.clear()
                if not advanced:
                    return
        finally:
            self._remove_observer(recorder)

    def run(self) -> "SimulationResult":
        """Drain the session and return the result (the legacy contract).

        Raises :class:`SimulationAborted` if an observer aborted the run.
        """
        self._drain(_NO_DEADLINE, False)
        if self._aborted:
            raise SimulationAborted(
                self._abort_reason or "aborted", self.now_ms, self.completed_requests
            )
        return self.result

    def _drain(self, deadline: float, single: bool) -> int:
        """The session's one event loop; returns the events it processed.

        Processes engine events in ``(time, kind, sequence)`` order while
        the next one is due at or before ``deadline`` (stopping after the
        first when ``single``), and finalises the session once the stream
        and the heap are drained or an observer has aborted.  Stopping at
        the deadline or after one event leaves the session paused.

        The hot references (event heap, arrival cursor, handlers) are
        bound once per call: draining is the million-request path, and
        per-event attribute reloads are measurable at that scale.
        """
        events = self._events
        heappop = heapq.heappop
        handle_job = self._handle_job
        dispatch = self._dispatch
        handle_finish = self._handle_finish
        inflight = self._inflight
        requests = self.requests
        spec_iter = self._spec_iter
        make_request = SimRequest
        make_job = StageJob
        processed = 0
        while not self._finished and self._abort_reason is None:
            spec = self._next_spec
            if spec is not None:
                # The cursor wins ties against same-time JOB/DISPATCH
                # heap events: arrivals carry the stream-order sequence
                # numbers 0..N-1, below every live event's (numbered from
                # N), so the original (time, kind, sequence) ordering is
                # reproduced exactly.  Only a FINISH (kind 0) at the same
                # instant precedes an arrival.  Consecutive arrivals are
                # admitted in one inner loop: the heap head only changes
                # when _handle_job pushes a DISPATCH, which a length
                # check detects, so the head is re-read only when it
                # actually moved.
                heap_length = len(events)
                if heap_length:
                    head = events[0]
                    head_time = head[0]
                    head_is_finish = head[1] == _EVENT_FINISH
                else:
                    head_time = None
                    head_is_finish = False
                while (
                    head_time is None
                    or spec.arrival_ms < head_time
                    or (spec.arrival_ms == head_time and not head_is_finish)
                ):
                    arrival_ms = spec.arrival_ms
                    if arrival_ms > deadline:
                        return processed
                    self.now_ms = arrival_ms
                    request = make_request(spec)
                    if inflight is None:
                        requests.append(request)
                    else:
                        inflight[spec.request_id] = request
                    self._arrivals_consumed += 1
                    # The cursor's correctness rests on arrival-sorted
                    # specs.  A custom LazyRequestStream spec factory
                    # could yield anything, and an out-of-order arrival
                    # would silently send virtual time backwards; one
                    # float compare per arrival buys the loud error.
                    next_spec = next(spec_iter, None)
                    if next_spec is not None and next_spec.arrival_ms < arrival_ms:
                        raise SimulationError(
                            f"request stream is not sorted by arrival time: request "
                            f"{next_spec.request_id} arrives at {next_spec.arrival_ms} ms "
                            f"after one at {arrival_ms} ms"
                        )
                    self._next_spec = next_spec
                    handle_job(
                        make_job(request, 0, spec.realized_pipeline[0], arrival_ms),
                        arrival_ms,
                    )
                    processed += 1
                    if single:
                        return processed
                    spec = next_spec
                    if spec is None or self._abort_reason is not None:
                        break
                    if len(events) != heap_length:
                        heap_length = len(events)
                        head = events[0]
                        head_time = head[0]
                        head_is_finish = head[1] == _EVENT_FINISH
                if spec is None or self._abort_reason is not None:
                    continue
                # The heap head precedes the next arrival (so the heap is
                # non-empty): fall through to process it.
            elif not events:
                break
            event = events[0]
            now = event[0]
            if now > deadline:
                return processed
            heappop(events)
            kind = event[1]
            self.now_ms = now
            if kind == _EVENT_FINISH:
                # (end, kind, seq, executor, batch, dispatch_ms,
                #  start_ms, switch_wait)
                handle_finish(event[3], event[4], event[5], event[6], now, event[7])
                if now > self._last_completion_ms:
                    self._last_completion_ms = now
            elif kind == _EVENT_JOB:
                handle_job(event[3], now)
            elif kind == _EVENT_DISPATCH:
                dispatch(event[3], now)
            else:  # pragma: no cover - defensive
                raise SimulationError(f"unknown event kind {kind}")
            processed += 1
            if single:
                return processed
        self._finalize()
        return processed

    def _finalize(self) -> None:
        if self._finished:
            return
        self._finished = True
        self._aborted = self._abort_reason is not None
        if not self._aborted:
            # Validate before telling observers the run finished: an
            # engine/policy bug that stranded requests must not let an
            # on_finish hook durably record a clean completion.
            if self._inflight is None:
                incomplete = [request for request in self.requests if not request.is_completed]
            else:
                incomplete = list(self._inflight.values())
            if incomplete:
                raise SimulationError(
                    f"{len(incomplete)} requests did not complete "
                    f"(first: {incomplete[0].request_id})"
                )
        if self._on_finish:
            event = SimulationFinish(
                self._last_completion_ms,
                self.completed_requests,
                self._aborted,
                self._abort_reason,
            )
            for hook in self._on_finish:
                hook(event)
        if self._aborted:
            # Release the live heap and the arrival cursor: an aborted
            # million-request session must not pin its spec generator.
            # Unconsumed arrivals are discarded with the heap, so
            # pending_events reads 0 — as it did pre-cursor, when the
            # abort cleared them out of the heap itself.
            self._events.clear()
            self._next_spec = None
            self._spec_iter = iter(())
            self._arrivals_consumed = self._total_requests
            return
        self._result = self.simulation._build_result(
            self.stream, self.requests, self._last_completion_ms
        )

    # ------------------------------------------------------------------
    # Event handlers (the engine hot path)
    # ------------------------------------------------------------------
    def _handle_job(self, job: StageJob, now: float) -> None:
        """Schedule a newly arrived stage job onto an executor queue."""
        if self._on_request_arrival and job.stage_index == 0:
            event = RequestArrival(now, job.request)
            for hook in self._on_request_arrival:
                hook(event)
        if self._default_scheduling_latency:
            scheduling_latency = 0.0
        else:
            scheduling_latency = self._scheduling_latency_ms(job, now)
        executor = self._first_executor
        if executor is None:
            executor = self._select_executor(job, self._executors, now)
        if not self._default_predicted_latency:
            job.predicted_latency_ms = self._predicted_additional_latency_ms(
                executor, job, now
            )
        if self._default_enqueue:
            executor.queue.append(job)
        else:
            self._policy_enqueue(executor, job, now)
        if self._on_job_dispatch:
            event = JobDispatch(now, job, executor.name, scheduling_latency)
            for hook in self._on_job_dispatch:
                hook(event)

        if executor.idle:
            executor.idle = False
            _heappush(self._events, (now, _EVENT_DISPATCH, self._sequence, executor))
            self._sequence += 1

    def _dispatch(self, executor: "Executor", now: float) -> None:
        """Form and start the next batch on an executor."""
        queue = executor.queue
        max_batch = self._fixed_max_batch
        if max_batch is None:
            if queue.is_empty:
                executor.idle = True
                executor.current_expert_id = None
                return
            max_batch = self._max_batch_size(executor, queue.head_expert_id())
            if max_batch < 1:
                max_batch = 1
            batch = queue.pop_head_run(max_batch)
        else:
            # Constant cap: popping first folds the emptiness probe and
            # the head-expert lookup into the one queue call.
            batch = queue.pop_head_run(max_batch)
            if not batch:
                executor.idle = True
                executor.current_expert_id = None
                return
        expert = self._expert(batch[0].expert_id)
        executor.current_expert_id = expert.expert_id

        ready_ms = now
        switch_wait = 0.0
        if not executor.pool.contains(expert.expert_id):
            ready_ms = self._load_expert(executor, expert, now)
            switch_wait = ready_ms - now

        latency_key = (expert.architecture_name, executor.kind, len(batch))
        execution_latency = self._execution_latency_cache.get(latency_key)
        if execution_latency is None:
            execution_latency = self._execution_latency_ms(*latency_key)
            self._execution_latency_cache[latency_key] = execution_latency
        compute = self._compute_resources[executor.kind]
        start_ms, end_ms = compute.acquire(ready_ms, execution_latency)

        executor.busy_until_ms = end_ms
        executor.idle = False
        self._record_access(executor.pool.name, expert.expert_id)
        stats = executor.stats
        stats.batches_executed += 1
        stats.stages_executed += len(batch)
        stats.execution_busy_ms += execution_latency
        if self._on_batch_start:
            event = BatchStart(
                start_ms,
                executor.name,
                expert.expert_id,
                len(batch),
                execution_latency,
                end_ms,
                switch_wait,
            )
            for hook in self._on_batch_start:
                hook(event)

        _heappush(
            self._events,
            (end_ms, _EVENT_FINISH, self._sequence, executor, batch, now, start_ms, switch_wait),
        )
        self._sequence += 1

    def _load_expert(self, executor: "Executor", expert, now: float) -> float:
        """Evict as needed, load the expert, and return the ready time."""
        pool = executor.pool
        needed = expert.weight_bytes
        evicted_any = False

        if not pool.can_fit(needed):
            # With a single executor there is never a peer to protect;
            # skip the per-eviction comprehension (this branch runs on
            # nearly every load in switching-heavy regimes).
            if len(self._executors) == 1:
                protected = _EMPTY_FROZENSET
            else:
                protected = frozenset(
                    other.current_expert_id
                    for other in self._executors
                    if other is not executor and other.pool is pool and other.current_expert_id
                )
            context = EvictionContext(
                pool_name=pool.name,
                incoming_expert_id=expert.expert_id,
                protected_expert_ids=protected,
                bytes_to_free=needed - pool.free_bytes,
                resident_bytes=pool.resident_sizes(),
            )
            for victim in self._victim_order(context):
                if pool.can_fit(needed):
                    break
                freed = pool.evict(victim)
                evicted_any = True
                if self._on_expert_evict:
                    event = ExpertEvict(
                        now, executor.name, pool.name, victim, freed, expert.expert_id
                    )
                    for hook in self._on_expert_evict:
                        hook(event)
                if self._host_cache is not None and executor.kind is ProcessorKind.GPU:
                    # False when the cache already held the victim and only
                    # refreshed its recency: nothing migrated.
                    migrated = self._host_cache.put(victim, freed)
                    if migrated and self._on_tier_migration:
                        event = TierMigration(
                            now,
                            victim,
                            freed,
                            self._device.memory_tier_for(executor.kind).value,
                            MemoryTier.CPU.value,
                        )
                        for hook in self._on_tier_migration:
                            hook(event)
            if not pool.can_fit(needed):
                raise SimulationError(
                    f"executor '{executor.name}' cannot free enough memory for expert "
                    f"'{expert.expert_id}' ({needed} bytes, {pool.free_bytes} free)"
                )

        source_tier = self._locate_source_tier(executor, expert.expert_id)

        # Load latency is pure in (bytes, architecture, tier, kind);
        # memoised for the same reason as execution latency.
        load_key = (expert.weight_bytes, expert.architecture_name, source_tier, executor.kind)
        load_latency = self._load_latency_cache.get(load_key)
        if load_latency is None:
            load_latency = self._expert_load_latency_ms(*load_key)
            self._load_latency_cache[load_key] = load_latency
        io_resource = self._io_resources.get(source_tier, self._io_resources[MemoryTier.SSD])
        _, ready_ms = io_resource.acquire(now, load_latency)

        pool.load(expert.expert_id, expert.weight_bytes)

        stats = executor.stats
        stats.expert_loads += 1
        stats.load_busy_ms += load_latency
        if evicted_any:
            stats.expert_switches += 1
        if source_tier is MemoryTier.SSD:
            stats.loads_from_ssd += 1
        else:
            stats.loads_from_cache += 1
        if self._on_expert_load:
            event = ExpertLoad(
                now, executor.name, expert.expert_id, source_tier.value, ready_ms - now, evicted_any
            )
            for hook in self._on_expert_load:
                hook(event)
        return ready_ms

    def _handle_finish(
        self,
        executor: "Executor",
        batch: Sequence[StageJob],
        dispatch_ms: float,
        start_ms: float,
        end_ms: float,
        switch_wait: float,
    ) -> None:
        """Record batch completion, spawn subsequent stages, keep dispatching.

        The per-job bookkeeping (``SimRequest.record_stage`` plus the
        remaining-stage probes) is inlined against the request slots:
        this loop runs once per stage of every request, and the method
        and property indirection it replaces was a measurable slice of
        million-request runs.  Semantics are identical — the engine
        always feeds stages in pipeline order, which is what the
        ``record_stage`` validation asserted.
        """
        batch_size = len(batch)
        executor_name = executor.name
        events = self._events
        heappush = _heappush
        inflight = self._inflight
        keep_stage_records = self._keep_stage_records
        on_request_completion = self._on_request_completion
        make_job = StageJob
        sequence = self._sequence
        for job in batch:
            request = job.request
            stage_index = job.stage_index
            if keep_stage_records:
                request.records.append(
                    StageRecord(
                        stage_index,
                        job.expert_id,
                        executor_name,
                        job.enqueue_ms,
                        dispatch_ms,
                        end_ms,
                        batch_size,
                        switch_wait,
                    )
                )
            next_stage = stage_index + 1
            request.next_stage = next_stage
            spec = request.spec
            pipeline = spec.realized_pipeline
            if next_stage < len(pipeline):
                next_job = make_job(request, next_stage, pipeline[next_stage], end_ms)
                heappush(events, (end_ms, _EVENT_JOB, sequence, next_job))
                sequence += 1
            else:
                request.completed_ms = end_ms
                self.completed_requests += 1
                if inflight is not None:
                    # Request records are disabled: nothing downstream
                    # reads the finished request, so let it go — peak
                    # live requests track in-flight, not stream length.
                    inflight.pop(spec.request_id, None)
                if on_request_completion:
                    event = RequestCompletion(end_ms, request)
                    for hook in on_request_completion:
                        hook(event)
        self._sequence = sequence
        self._dispatch(executor, end_ms)
