"""Streaming workload path: eager vs lazy generation equivalence, the
arrival-cursor session on lazy and shuffled streams, and the trimmed
(in-flight only) request-materialisation mode.

The contract under test: :func:`iter_request_stream` /
:meth:`RequestStream.lazy` realise *byte-identical*
:class:`RequestSpec` sequences to :func:`generate_request_stream` for
every parameter combination (same seed → same RNG call sequence), a
session fed a lazy stream simulates the bit-identical result of the
eager stream — and of the preserved pre-redesign monolithic loop —
and the derived stream views (category counts, distinct experts, stage
totals) agree between both forms while being computed at most once.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware.processor import ProcessorKind
from repro.hardware.units import GB
from repro.policies.lru import LRUPolicy
from repro.scheduling.fcfs import FCFSScheduling
from repro.simulation.engine import ServingSimulation, SimulationOptions
from repro.simulation.executor import ExecutorConfig
from repro.simulation.reference import preredesign_run
from repro.workload.circuit_board import build_inspection_model, make_board
from repro.workload.generator import (
    LazyRequestStream,
    RequestStream,
    generate_request_stream,
    iter_request_stream,
)


@pytest.fixture(scope="session")
def tiny_workload():
    """A 12-category board: hypothesis drives many generations over it."""
    board = make_board("P", component_types=12, detection_groups=3, detection_fraction=0.5)
    return board, build_inspection_model(board)


# ----------------------------------------------------------------------
# Eager vs streaming generation
# ----------------------------------------------------------------------
class TestEagerStreamingEquivalence:
    @pytest.mark.parametrize("order", ["scan", "shuffled"])
    @pytest.mark.parametrize("active_fraction", [1.0, 0.4])
    def test_specs_identical_across_orders_and_fractions(
        self, small_board, small_model, order, active_fraction
    ):
        kwargs = dict(
            num_requests=300, seed=9, order=order, active_fraction=active_fraction
        )
        eager = generate_request_stream(small_board, small_model, **kwargs)
        assert tuple(iter_request_stream(small_board, small_model, **kwargs)) == eager.requests
        lazy = RequestStream.lazy(small_board, small_model, **kwargs)
        assert tuple(lazy) == eager.requests

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        num_requests=st.integers(min_value=1, max_value=200),
        order=st.sampled_from(["scan", "shuffled"]),
        active_fraction=st.sampled_from([1.0, 0.7, 0.25]),
        arrival_interval_ms=st.sampled_from([0.25, 4.0, 140.0]),
    )
    def test_spec_sequences_identical_property(
        self, tiny_workload, seed, num_requests, order, active_fraction, arrival_interval_ms
    ):
        board, model = tiny_workload
        kwargs = dict(
            num_requests=num_requests,
            arrival_interval_ms=arrival_interval_ms,
            seed=seed,
            order=order,
            active_fraction=active_fraction,
        )
        eager = generate_request_stream(board, model, **kwargs)
        assert tuple(iter_request_stream(board, model, **kwargs)) == eager.requests

    def test_lazy_stream_regenerates_identically_per_pass(self, small_board, small_model):
        lazy = RequestStream.lazy(small_board, small_model, num_requests=100, seed=4)
        assert tuple(lazy) == tuple(lazy)

    def test_lazy_stream_metadata_matches_eager(self, small_board, small_model):
        kwargs = dict(num_requests=250, seed=8, order="shuffled", active_fraction=0.5)
        eager = generate_request_stream(small_board, small_model, name="meta", **kwargs)
        lazy = RequestStream.lazy(small_board, small_model, name="meta", **kwargs)
        assert isinstance(lazy, LazyRequestStream)
        assert len(lazy) == len(eager)
        assert lazy.name == eager.name
        assert lazy.board_name == eager.board_name
        assert lazy.seed == eager.seed
        assert lazy.duration_ms == eager.duration_ms

    def test_lazy_stream_equality_is_identity(self, small_board, small_model):
        """Metadata fields cannot see into the factory, so field-based
        equality would conflate streams generating different specs."""
        scan = RequestStream.lazy(small_board, small_model, num_requests=50, seed=0)
        shuffled = RequestStream.lazy(
            small_board, small_model, num_requests=50, seed=0, order="shuffled"
        )
        assert scan != shuffled
        assert scan == scan

    def test_recordless_options_require_trimmed_requests(self):
        from repro.simulation.engine import SimulationOptions

        with pytest.raises(ValueError, match="keep_request_records=False"):
            SimulationOptions(keep_stage_records=False)
        SimulationOptions(keep_request_records=False, keep_stage_records=False)

    def test_lazy_stream_validates_eagerly(self, small_board, small_model):
        with pytest.raises(ValueError):
            RequestStream.lazy(small_board, small_model, num_requests=0)
        with pytest.raises(ValueError):
            RequestStream.lazy(small_board, small_model, num_requests=5, order="sorted")
        with pytest.raises(ValueError):
            RequestStream.lazy(small_board, small_model, num_requests=5, active_fraction=0.0)
        with pytest.raises(ValueError):
            iter_request_stream(small_board, small_model, 5, arrival_interval_ms=0.0)


# ----------------------------------------------------------------------
# Cached derived views
# ----------------------------------------------------------------------
class TestStreamViews:
    def test_views_agree_between_eager_and_lazy(self, small_board, small_model):
        kwargs = dict(num_requests=400, seed=6, order="shuffled", active_fraction=0.6)
        eager = generate_request_stream(small_board, small_model, **kwargs)
        lazy = RequestStream.lazy(small_board, small_model, **kwargs)
        assert lazy.category_counts() == eager.category_counts()
        assert lazy.distinct_experts() == eager.distinct_experts()
        assert lazy.total_stage_count == eager.total_stage_count
        assert sum(eager.category_counts().values()) == len(eager)
        assert eager.total_stage_count >= len(eager)

    def test_views_are_cached_after_one_pass(self, small_board, small_model):
        lazy = RequestStream.lazy(small_board, small_model, num_requests=50, seed=2)
        assert "_views" not in lazy.__dict__
        first = lazy.category_counts()
        assert "_views" in lazy.__dict__
        views = lazy.__dict__["_views"]
        lazy.distinct_experts()
        lazy.total_stage_count
        assert lazy.__dict__["_views"] is views  # one pass served all three
        # callers may mutate the returned dict without corrupting the cache
        first["poisoned"] = 1
        assert "poisoned" not in lazy.category_counts()

    @pytest.mark.parametrize(
        "order, active_fraction", [("scan", 1.0), ("scan", 0.5), ("shuffled", 1.0), ("shuffled", 0.6)]
    )
    def test_expert_stage_counts_agree_and_are_cached(
        self, small_board, small_model, order, active_fraction
    ):
        kwargs = dict(num_requests=400, seed=6, order=order, active_fraction=active_fraction)
        eager = generate_request_stream(small_board, small_model, **kwargs)
        lazy = RequestStream.lazy(small_board, small_model, **kwargs)
        counts = eager.expert_stage_counts
        assert list(lazy.expert_stage_counts.items()) == list(counts.items())  # first-use order
        expected = {}
        for spec in eager:
            for expert_id in spec.realized_pipeline:
                expected[expert_id] = expected.get(expert_id, 0) + 1
        assert list(counts.items()) == list(expected.items())
        assert sum(counts.values()) == eager.total_stage_count
        assert tuple(sorted(counts)) == eager.distinct_experts()
        assert eager.expert_stage_counts is counts
        with pytest.raises(TypeError):
            counts["poisoned"] = 1

    def test_eager_views_cached_too(self, small_board, small_model):
        stream = generate_request_stream(small_board, small_model, num_requests=50, seed=2)
        stream.category_counts()
        views = stream.__dict__["_views"]
        stream.distinct_experts()
        assert stream.__dict__["_views"] is views


# ----------------------------------------------------------------------
# Arrival-cursor session over lazy / shuffled streams
# ----------------------------------------------------------------------
def make_simulation(device, model, **options):
    return ServingSimulation(
        device=device,
        model=model,
        executor_configs=[ExecutorConfig("gpu-0", ProcessorKind.GPU, 4 * GB, 1 * GB)],
        scheduling_policy=FCFSScheduling(batch_size=4),
        eviction_policy=LRUPolicy(),
        options=SimulationOptions(**options) if options else None,
    )


class TestSessionOnStreamingWorkloads:
    def test_lazy_stream_session_bit_identical_to_eager(
        self, numa_device, small_board, small_model
    ):
        kwargs = dict(num_requests=300, seed=13, order="shuffled", active_fraction=0.7)
        eager = generate_request_stream(small_board, small_model, name="x", **kwargs)
        lazy = RequestStream.lazy(small_board, small_model, name="x", **kwargs)
        eager_result = make_simulation(numa_device, small_model).run(eager)
        lazy_result = make_simulation(numa_device, small_model).run(lazy)
        assert lazy_result == eager_result

    def test_cursor_session_matches_preredesign_on_shuffled_stream(
        self, numa_device, small_board, small_model
    ):
        """Bit-identical to the pre-redesign loop on a non-uniform
        (shuffled-category) arrival pattern, eager and lazy alike."""
        kwargs = dict(num_requests=350, seed=23, order="shuffled", active_fraction=0.5)
        eager = generate_request_stream(small_board, small_model, name="shuf", **kwargs)
        lazy = RequestStream.lazy(small_board, small_model, name="shuf", **kwargs)
        preredesign_simulation = make_simulation(numa_device, small_model)
        preredesign_result = preredesign_run(preredesign_simulation, eager)
        session_simulation = make_simulation(numa_device, small_model)
        session_result = session_simulation.run(lazy)
        assert session_result == preredesign_result
        assert session_simulation.metrics == preredesign_simulation.metrics

    def test_stepped_session_matches_run_on_lazy_stream(
        self, numa_device, small_board, small_model
    ):
        kwargs = dict(num_requests=200, seed=3)
        reference = make_simulation(numa_device, small_model).run(
            RequestStream.lazy(small_board, small_model, **kwargs)
        )
        session = make_simulation(numa_device, small_model).session(
            RequestStream.lazy(small_board, small_model, **kwargs)
        )
        assert session.total_requests == 200
        assert session.pending_events == 200
        while session.step():
            pass
        assert session.result == reference

    def test_trimmed_mode_releases_completed_requests(
        self, numa_device, small_board, small_model
    ):
        # A keep-up arrival interval: the executor drains requests about
        # as fast as they arrive, so in-flight stays far below N.
        stream = RequestStream.lazy(
            small_board, small_model, num_requests=200, seed=3, arrival_interval_ms=400.0
        )
        session = make_simulation(
            numa_device, small_model, keep_request_records=False
        ).session(stream)
        peak = 0
        while session.step():
            peak = max(peak, session.live_requests)
        assert session.live_requests == 0  # everything released at completion
        assert 0 < peak < 50  # bounded by in-flight work, not stream length
        assert session.result.requests == ()

    def test_trimmed_mode_result_matches_kept_mode(
        self, numa_device, small_board, small_model
    ):
        def lazy():
            return RequestStream.lazy(small_board, small_model, num_requests=200, seed=3)

        kept = make_simulation(numa_device, small_model, keep_request_records=True).run(lazy())
        trimmed = make_simulation(numa_device, small_model, keep_request_records=False).run(lazy())
        import dataclasses

        assert trimmed == dataclasses.replace(kept, requests=())

    def test_no_stage_records_mode_keeps_aggregates_identical(
        self, numa_device, small_board, small_model
    ):
        def lazy():
            return RequestStream.lazy(small_board, small_model, num_requests=200, seed=3)

        baseline = make_simulation(
            numa_device, small_model, keep_request_records=False
        ).run(lazy())
        bare = make_simulation(
            numa_device,
            small_model,
            keep_request_records=False,
            keep_stage_records=False,
        ).run(lazy())
        assert bare == baseline

    def test_service_slo_monitor_rejects_recordless_session(
        self, numa_device, small_board, small_model
    ):
        """metric='service' sums stage records; a record-less session
        must reject the monitor instead of silently never triggering."""
        from repro.simulation.slo import SLOMonitor

        stream = RequestStream.lazy(small_board, small_model, num_requests=50, seed=3)
        simulation = make_simulation(
            numa_device, small_model, keep_request_records=False, keep_stage_records=False
        )
        with pytest.raises(ValueError, match="keep_stage_records"):
            simulation.session(stream, observers=[SLOMonitor(target_ms=1.0, metric="service")])
        # the failed attach must not poison the simulation for a retry
        assert simulation.session(stream).run().num_requests == 50

    def test_unsorted_custom_spec_factory_raises(
        self, numa_device, small_board, small_model
    ):
        """The cursor's contract is sorted arrivals; a custom factory
        violating it must fail loudly, not corrupt virtual time."""
        from repro.simulation.session import SimulationError
        from repro.workload.generator import RequestSpec

        sorted_stream = RequestStream.lazy(small_board, small_model, num_requests=4, seed=1)
        backwards = [
            RequestSpec(spec.request_id, arrival, spec.category, spec.realized_pipeline)
            for spec, arrival in zip(sorted_stream, (0.0, 10.0, 5.0, 20.0))
        ]
        stream = LazyRequestStream(
            name="bad",
            num_requests=4,
            arrival_interval_ms=4.0,
            board_name=small_board.name,
            seed=1,
            spec_factory=lambda: iter(backwards),
        )
        session = make_simulation(numa_device, small_model).session(stream)
        with pytest.raises(SimulationError, match="not sorted by arrival time"):
            while session.step():
                pass
        session = make_simulation(numa_device, small_model).session(stream)
        with pytest.raises(SimulationError, match="not sorted by arrival time"):
            session.run()

    def test_pending_events_zero_after_abort(self, numa_device, small_board, small_model):
        from repro.simulation.session import SimulationAborted

        stream = RequestStream.lazy(small_board, small_model, num_requests=200, seed=3)
        monitor_session = make_simulation(numa_device, small_model).session(stream)

        class AbortEarly:
            def on_request_completion(self, event):
                monitor_session.abort("stop")

        monitor_session.add_observer(AbortEarly())
        with pytest.raises(SimulationAborted):
            monitor_session.run()
        assert monitor_session.pending_events == 0
        assert monitor_session.next_event_time_ms is None

    def test_session_accepts_lazy_stream_via_serving_system(
        self, numa_device, small_model, small_board, small_usage, numa_matrix
    ):
        from repro.serving import build_system

        kwargs = dict(num_requests=200, seed=3)
        eager = generate_request_stream(small_board, small_model, name="s", **kwargs)
        lazy = RequestStream.lazy(small_board, small_model, name="s", **kwargs)
        eager_result = build_system(
            "coserve", numa_device, small_model, small_usage, performance_matrix=numa_matrix
        ).serve(eager)
        lazy_result = build_system(
            "coserve", numa_device, small_model, small_usage, performance_matrix=numa_matrix
        ).serve(lazy)
        assert lazy_result == eager_result
