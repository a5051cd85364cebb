"""Tests for the session API: stepping, typed events, observers, aborts.

The session is the engine's primary interface; the legacy
``ServingSimulation.run`` is a shim over it.  These tests pin down the
stepping semantics (``step`` / ``run_until`` / ``events``), the
observer hook surface (dispatch only for overridden hooks, structural
observers, mid-run attachment), and the early-abort path the SLO
monitor drives, plus a property over random interleavings of the
three drives, which all run the session's one event loop.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware.units import GB
from repro.hardware.processor import ProcessorKind
from repro.metrics import ExecutorTimeline, MetricsObserver, TimelineObserver
from repro.policies.lru import LRUPolicy
from repro.scheduling.fcfs import FCFSScheduling
from repro.serving import build_system
from repro.simulation import (
    BatchStart,
    ExpertLoad,
    JobDispatch,
    RequestArrival,
    RequestCompletion,
    SimEvent,
    SimObserver,
    SimulationAborted,
    SimulationError,
    SimulationFinish,
    SimulationSession,
    SLOMonitor,
)
from repro.simulation.engine import ServingSimulation, SimulationOptions
from repro.simulation.executor import ExecutorConfig
from repro.simulation.reference import preredesign_run
from repro.workload.generator import RequestStream, generate_request_stream


def make_simulation(device, model, **kwargs):
    return ServingSimulation(
        device=device,
        model=model,
        executor_configs=[ExecutorConfig("gpu-0", ProcessorKind.GPU, 4 * GB, 1 * GB)],
        scheduling_policy=FCFSScheduling(),
        eviction_policy=LRUPolicy(),
        **kwargs,
    )


class CountingObserver(SimObserver):
    """Counts every hook invocation (all hooks overridden)."""

    def __init__(self):
        self.counts = {}
        self.attached_to = None
        self.finish_event = None

    def _bump(self, name):
        self.counts[name] = self.counts.get(name, 0) + 1

    def on_attach(self, session):
        self.attached_to = session

    def on_request_arrival(self, event):
        self._bump("request_arrival")

    def on_job_dispatch(self, event):
        self._bump("job_dispatch")

    def on_batch_start(self, event):
        self._bump("batch_start")

    def on_expert_load(self, event):
        self._bump("expert_load")

    def on_expert_evict(self, event):
        self._bump("expert_evict")

    def on_tier_migration(self, event):
        self._bump("tier_migration")

    def on_request_completion(self, event):
        self._bump("request_completion")

    def on_finish(self, event):
        self._bump("finish")
        self.finish_event = event


class TestStepping:
    def test_stepped_session_matches_legacy_run(self, numa_device, small_model, small_stream):
        legacy = make_simulation(numa_device, small_model).run(small_stream)
        session = make_simulation(numa_device, small_model).session(small_stream)
        steps = 0
        while session.step():
            steps += 1
        assert steps > 0
        assert session.is_finished
        assert session.result == legacy

    def test_step_after_finish_returns_false(self, numa_device, small_model, small_stream):
        session = make_simulation(numa_device, small_model).session(small_stream)
        while session.step():
            pass
        assert session.step() is False
        assert session.is_finished

    def test_now_advances_monotonically_over_steps(self, numa_device, small_model, small_stream):
        session = make_simulation(numa_device, small_model).session(small_stream)
        previous = 0.0
        while session.step():
            assert session.now_ms >= previous
            previous = session.now_ms

    def test_run_until_respects_the_deadline(self, numa_device, small_model, small_stream):
        session = make_simulation(numa_device, small_model).session(small_stream)
        assert session.run_until(-1.0) == 0
        assert session.completed_requests == 0
        session.run_until(small_stream[10].arrival_ms)
        assert not session.is_finished
        assert session.now_ms <= small_stream[10].arrival_ms
        assert session.next_event_time_ms > small_stream[10].arrival_ms
        # a deadline past the last event drains and finalises the session
        session.run_until(float("inf"))
        assert session.is_finished
        assert session.completed_requests == len(small_stream)
        assert session.result == make_simulation(numa_device, small_model).run(small_stream)

    def test_result_unavailable_before_finish(self, numa_device, small_model, small_stream):
        session = make_simulation(numa_device, small_model).session(small_stream)
        with pytest.raises(SimulationError):
            session.result
        session.run()
        assert session.result.num_requests == len(small_stream)

    def test_one_session_per_simulation(self, numa_device, small_model, small_stream):
        simulation = make_simulation(numa_device, small_model)
        simulation.session(small_stream)
        with pytest.raises(SimulationError):
            simulation.session(small_stream)
        with pytest.raises(SimulationError):
            SimulationSession(simulation, small_stream)

    def test_failed_construction_does_not_poison_the_simulation(
        self, numa_device, small_model, small_stream
    ):
        class BrokenAttach(SimObserver):
            def on_attach(self, session):
                raise RuntimeError("observer setup failed")

        simulation = make_simulation(numa_device, small_model)
        with pytest.raises(RuntimeError):
            simulation.session(small_stream, observers=[BrokenAttach()])
        # the simulation was never claimed, so a retry works
        session = simulation.session(small_stream)
        assert session.run().num_requests == len(small_stream)

    def test_pending_events_drain_to_zero(self, numa_device, small_model, small_stream):
        session = make_simulation(numa_device, small_model).session(small_stream)
        assert session.pending_events == len(small_stream)
        session.run()
        assert session.pending_events == 0
        assert session.next_event_time_ms is None


class TestEventsIterator:
    def test_events_are_typed_and_complete(self, numa_device, small_model, small_stream):
        session = make_simulation(numa_device, small_model).session(small_stream)
        events = list(session.events())
        assert all(isinstance(event, SimEvent) for event in events)
        assert isinstance(events[0], RequestArrival)
        assert events[0].time_ms == small_stream[0].arrival_ms
        assert isinstance(events[-1], SimulationFinish)
        assert events[-1].aborted is False
        result = session.result

        arrivals = [e for e in events if isinstance(e, RequestArrival)]
        dispatches = [e for e in events if isinstance(e, JobDispatch)]
        batches = [e for e in events if isinstance(e, BatchStart)]
        loads = [e for e in events if isinstance(e, ExpertLoad)]
        completions = [e for e in events if isinstance(e, RequestCompletion)]
        assert len(arrivals) == len(small_stream)
        assert len(dispatches) == small_stream.total_stage_count
        assert len(completions) == len(small_stream)
        assert len(batches) == sum(s.batches_executed for s in result.executors)
        assert len(loads) == result.expert_loads
        assert sum(e.batch_size for e in batches) == small_stream.total_stage_count

    def test_events_iteration_matches_legacy_result(self, numa_device, small_model, small_stream):
        legacy = make_simulation(numa_device, small_model).run(small_stream)
        session = make_simulation(numa_device, small_model).session(small_stream)
        for _ in session.events():
            pass
        assert session.result == legacy

    def test_abandoned_iterator_leaves_session_paused(self, numa_device, small_model, small_stream):
        session = make_simulation(numa_device, small_model).session(small_stream)
        iterator = session.events()
        next(iterator)
        assert not session.is_finished
        # closing the iterator unsubscribes its recorder, so finishing
        # the run records nothing (only the built-in metrics hooks stay)
        iterator.close()
        assert len(session._on_request_completion) == 0
        assert len(session._on_finish) == 0
        session.run()
        assert session.is_finished


class TestObservers:
    def test_counting_observer_sees_every_hook(self, numa_device, small_model, small_stream):
        observer = CountingObserver()
        session = make_simulation(numa_device, small_model).session(
            small_stream, observers=[observer]
        )
        assert observer.attached_to is session
        result = session.run()
        assert observer.counts["request_arrival"] == len(small_stream)
        assert observer.counts["job_dispatch"] == small_stream.total_stage_count
        assert observer.counts["request_completion"] == len(small_stream)
        assert observer.counts["batch_start"] == sum(
            s.batches_executed for s in result.executors
        )
        assert observer.counts["expert_load"] == result.expert_loads
        assert observer.counts["finish"] == 1
        assert observer.finish_event.completed_requests == len(small_stream)
        # the working set exceeds the pool, so evictions must have happened
        assert observer.counts["expert_evict"] > 0

    def test_noop_hooks_are_not_subscribed(self, numa_device, small_model, small_stream):
        class ArrivalOnly(SimObserver):
            def __init__(self):
                self.arrivals = 0

            def on_request_arrival(self, event):
                self.arrivals += 1

        observer = ArrivalOnly()
        session = make_simulation(numa_device, small_model).session(
            small_stream, observers=[observer]
        )
        # only the overridden hook (plus the built-in metrics hooks) subscribe
        assert len(session._on_request_arrival) == 1
        assert len(session._on_request_completion) == 0
        session.run()
        assert observer.arrivals == len(small_stream)

    def test_structural_observer_without_inheritance(self, numa_device, small_model, small_stream):
        class DuckObserver:
            def __init__(self):
                self.completions = 0

            def on_request_completion(self, event):
                self.completions += 1

        duck = DuckObserver()
        make_simulation(numa_device, small_model).session(small_stream, observers=[duck]).run()
        assert duck.completions == len(small_stream)

    def test_observers_do_not_change_results(
        self, numa_device, small_model, pressure_stream, pressure_usage, numa_matrix
    ):
        def build():
            return build_system(
                "coserve",
                numa_device,
                small_model,
                pressure_usage,
                performance_matrix=numa_matrix,
            )

        legacy = build().serve(pressure_stream)
        bare = build().session(pressure_stream).run()
        observed = build().session(
            pressure_stream,
            observers=[CountingObserver(), TimelineObserver(), MetricsObserver()],
        ).run()
        assert bare == legacy
        assert observed == legacy

    def test_session_fills_simulation_metrics_like_legacy_run(
        self, numa_device, small_model, small_stream
    ):
        legacy_simulation = make_simulation(numa_device, small_model)
        legacy_simulation.run(small_stream)
        session_simulation = make_simulation(numa_device, small_model)
        session_simulation.session(small_stream).run()
        assert session_simulation.metrics == legacy_simulation.metrics

    def test_timeline_observer_matches_engine_counters(
        self, numa_device, small_model, pressure_stream, pressure_usage, numa_matrix
    ):
        """The timeline observer accounts every load and batch the engine
        counted, per executor, and no initialisation preload."""
        simulation = build_system(
            "coserve",
            numa_device,
            small_model,
            pressure_usage,
            performance_matrix=numa_matrix,
        ).build_simulation()
        assert simulation.host_cache is not None and len(simulation.executors) > 1
        observer = TimelineObserver()
        result = simulation.run(pressure_stream, observers=[observer])
        assert result.loads_from_cache > 0 and result.expert_switches > 0
        timelines = observer.timelines()
        load_ms = 0.0
        for summary in result.executors:
            timeline = timelines.get(summary.name, ExecutorTimeline(summary.name, ()))
            kinds = [interval.kind for interval in timeline.intervals]
            assert kinds.count("execute") == summary.batches_executed
            assert kinds.count("load") == summary.expert_loads
            assert timeline.execution_time_ms == pytest.approx(summary.execution_busy_ms, rel=1e-9)
            load_ms += timeline.load_time_ms
        assert set(timelines) <= {summary.name for summary in result.executors}
        assert load_ms == pytest.approx(result.total_switching_ms, rel=1e-9)

    def test_observer_added_mid_run(self, numa_device, small_model, small_stream):
        session = make_simulation(numa_device, small_model).session(small_stream)
        while session.completed_requests < 10:
            session.step()
        late = CountingObserver()
        session.add_observer(late)
        session.run_until(float("inf"))
        # the late observer saw only the completions after it attached
        assert late.counts["request_completion"] == len(small_stream) - 10
        assert late.counts["finish"] == 1

    def test_observers_rejected_after_finish(self, numa_device, small_model, small_stream):
        session = make_simulation(numa_device, small_model).session(small_stream)
        session.run()
        with pytest.raises(SimulationError):
            session.add_observer(CountingObserver())


class TestAbort:
    def test_observer_abort_raises_and_marks_session(
        self, numa_device, small_model, small_stream
    ):
        class AbortAfter(SimObserver):
            def __init__(self, limit):
                self.limit = limit
                self.session = None

            def on_attach(self, session):
                self.session = session

            def on_request_completion(self, event):
                if self.session.completed_requests >= self.limit:
                    self.session.abort("enough")

        observer = AbortAfter(25)
        finish_watcher = CountingObserver()
        session = make_simulation(numa_device, small_model).session(
            small_stream, observers=[observer, finish_watcher]
        )
        with pytest.raises(SimulationAborted) as info:
            session.run()
        assert info.value.reason == "enough"
        assert 25 <= info.value.completed_requests < len(small_stream)
        assert session.aborted
        assert session.abort_reason == "enough"
        assert finish_watcher.finish_event.aborted is True
        assert finish_watcher.finish_event.reason == "enough"
        with pytest.raises(SimulationError):
            session.result

    @pytest.mark.parametrize("kind", ["arrival", "completion"])
    def test_abort_point_is_the_same_for_every_drive(
        self, numa_device, small_model, small_stream, kind
    ):
        """An abort stops run(), run_until() and step() after the same event."""

        class AbortAtTenth(SimObserver):
            def __init__(self):
                self.session = None
                self.seen = 0

            def on_attach(self, session):
                self.session = session

            def _see(self, seen_kind):
                if seen_kind == kind:
                    self.seen += 1
                    if self.seen == 10:
                        self.session.abort("tenth")

            def on_request_arrival(self, event):
                self._see("arrival")

            def on_request_completion(self, event):
                self._see("completion")

        def abort_point(drive):
            session = make_simulation(numa_device, small_model).session(
                small_stream, observers=[AbortAtTenth()]
            )
            if drive == "run":
                with pytest.raises(SimulationAborted):
                    session.run()
            elif drive == "run_until":
                session.run_until(float("inf"))
            else:
                while session.step():
                    pass
            assert session.aborted
            return session.now_ms, session.completed_requests, session.partial_result()

        assert abort_point("run") == abort_point("run_until") == abort_point("step")

    def test_slo_monitor_aborts_doomed_run_early(self, numa_device, small_model, small_stream):
        monitor = SLOMonitor(target_ms=0.001, percentile=50.0)
        session = make_simulation(numa_device, small_model).session(
            small_stream, observers=[monitor]
        )
        with pytest.raises(SimulationAborted):
            session.run()
        assert monitor.triggered
        assert monitor.violations > monitor.allowed_violations
        assert monitor.total_requests == len(small_stream)
        # provably violated strictly before serving the whole stream
        assert session.completed_requests < len(small_stream)

    def test_slo_monitor_with_achievable_target_never_triggers(
        self, numa_device, small_model, small_stream
    ):
        monitor = SLOMonitor(target_ms=1e12, percentile=99.0)
        legacy = make_simulation(numa_device, small_model).run(small_stream)
        session = make_simulation(numa_device, small_model).session(
            small_stream, observers=[monitor]
        )
        assert session.run() == legacy
        assert not monitor.triggered
        assert monitor.observed == len(small_stream)

    def test_slo_monitor_resets_when_reused_across_sessions(
        self, numa_device, small_model, small_stream
    ):
        monitor = SLOMonitor(target_ms=1e12, percentile=99.0)
        make_simulation(numa_device, small_model).session(
            small_stream, observers=[monitor]
        ).run()
        assert monitor.observed == len(small_stream)
        # reattaching the same instance starts a fresh per-session count
        make_simulation(numa_device, small_model).session(
            small_stream, observers=[monitor]
        ).run()
        assert monitor.observed == len(small_stream)
        assert not monitor.triggered

    def test_allowed_violations_floor(self):
        monitor = SLOMonitor(target_ms=10.0, percentile=99.0, total_requests=200)
        assert monitor.allowed_violations == 2
        monitor = SLOMonitor(target_ms=10.0, percentile=100.0, total_requests=200)
        assert monitor.allowed_violations == 0
        monitor = SLOMonitor(target_ms=10.0, percentile=90.0, total_requests=7)
        assert monitor.allowed_violations == 0  # floor(0.7)

    def test_slo_monitor_validation(self):
        with pytest.raises(ValueError):
            SLOMonitor(target_ms=0.0)
        with pytest.raises(ValueError):
            SLOMonitor(target_ms=1.0, percentile=0.0)
        with pytest.raises(ValueError):
            SLOMonitor(target_ms=1.0, metric="p99")
        with pytest.raises(ValueError):
            SLOMonitor(target_ms=1.0, total_requests=0)

    def test_abort_rejected_after_finish(self, numa_device, small_model, small_stream):
        session = make_simulation(numa_device, small_model).session(small_stream)
        session.run()
        with pytest.raises(SimulationError):
            session.abort("too late")


class ClockWatcher(SimObserver):
    """Asserts the session clock never moves backwards.

    Checks at every arrival, batch start and completion hook, and
    whenever the test calls :meth:`check` between drives.
    """

    def __init__(self):
        self.session = None
        self.latest = 0.0

    def on_attach(self, session):
        self.session = session

    def check(self, event=None):
        assert self.session.now_ms >= self.latest
        self.latest = self.session.now_ms

    on_request_arrival = check
    on_batch_start = check
    on_request_completion = check


#: One interleaved-drive operation: ``("step", k)`` steps k times;
#: ``("until", i, between)`` runs until arrival i's instant, or (with
#: ``between``) to a time halfway to the next arrival.
_DRIVE_OPERATIONS = st.one_of(
    st.tuples(st.just("step"), st.integers(1, 40)),
    st.tuples(st.just("until"), st.integers(0, 149), st.booleans()),
)


class TestOneEventLoop:
    @settings(max_examples=25, deadline=None)
    @given(
        system=st.sampled_from(["fcfs", "coserve"]),
        lazy=st.booleans(),
        order=st.sampled_from(["scan", "shuffled"]),
        keep_request_records=st.booleans(),
        num_requests=st.integers(1, 150),
        seed=st.integers(0, 10_000),
        interval=st.sampled_from([1.0, 4.0]),
        operations=st.lists(_DRIVE_OPERATIONS, max_size=12),
    )
    def test_interleaved_drives_match_plain_run(
        self,
        numa_device,
        small_board,
        small_model,
        pressure_usage,
        numa_matrix,
        system,
        lazy,
        order,
        keep_request_records,
        num_requests,
        seed,
        interval,
        operations,
    ):
        """Any interleaving of step(), run_until(t) and a final run()
        processes the same events and serves the same result as a plain
        run(), because all three drive one loop."""
        options = SimulationOptions(keep_request_records=keep_request_records)

        def simulation():
            if system == "fcfs":
                return make_simulation(numa_device, small_model, options=options)
            return build_system(
                "coserve",
                numa_device,
                small_model,
                pressure_usage,
                performance_matrix=numa_matrix,
                options=options,
            ).build_simulation()

        make_stream = RequestStream.lazy if lazy else generate_request_stream
        stream = make_stream(
            small_board,
            small_model,
            num_requests=num_requests,
            arrival_interval_ms=interval,
            seed=seed,
            name="interleaved",
            order=order,
        )
        arrivals = [spec.arrival_ms for spec in stream]

        plain = simulation().run(stream)
        if not lazy:
            assert preredesign_run(simulation(), stream) == plain
        stepped = simulation().session(stream)
        step_count = 0
        while stepped.step():
            step_count += 1
        assert stepped.result == plain

        for finish_with_run in (True, False):
            watcher = ClockWatcher()
            session = simulation().session(stream, observers=[watcher])
            processed = 0
            for operation in operations:
                if operation[0] == "step":
                    for _ in range(operation[1]):
                        processed += session.step()
                        watcher.check()
                else:
                    _, index, between = operation
                    deadline = arrivals[index % len(arrivals)] + (interval / 2 if between else 0.0)
                    processed += session.run_until(deadline)
                    watcher.check()
                    assert session.is_finished or session.next_event_time_ms > deadline
            if finish_with_run:
                result = session.run()
                assert processed <= step_count
            else:
                processed += session.run_until(float("inf"))
                assert session.is_finished
                assert processed == step_count
                result = session.result
            watcher.check()
            assert result == plain
