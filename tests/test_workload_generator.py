"""Tests for request stream generation."""

import itertools

import pytest

from repro.workload.circuit_board import build_inspection_model, make_board
from repro.workload.generator import (
    STREAM_FORMAT,
    LazyRequestStream,
    RequestSpec,
    RequestStream,
    generate_request_stream,
    iter_request_stream,
)


@pytest.fixture(scope="module")
def board():
    return make_board("G", component_types=30, detection_groups=5)


@pytest.fixture(scope="module")
def model(board):
    return build_inspection_model(board)


class TestRequestSpec:
    def test_properties(self):
        spec = RequestSpec(0, 0.0, "c", ("cls", "det"))
        assert spec.stage_count == 2

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            RequestSpec(-1, 0.0, "c", ("cls",))
        with pytest.raises(ValueError):
            RequestSpec(0, -1.0, "c", ("cls",))
        with pytest.raises(ValueError):
            RequestSpec(0, 0.0, "c", ())


class TestStreamFormatGolden:
    """Pins the seed→spec mapping version and a known seed's output.

    These literals were captured from the scalar generator before it
    was vectorised; they must only ever change together with a
    ``STREAM_FORMAT`` bump.
    """

    @pytest.fixture(scope="class")
    def golden_workload(self):
        board = make_board("P", component_types=12, detection_groups=3, detection_fraction=0.5)
        return board, build_inspection_model(board)

    def test_stream_format_pinned(self):
        assert STREAM_FORMAT == 1
        assert RequestStream.STREAM_FORMAT == 1
        assert LazyRequestStream.STREAM_FORMAT == 1

    def test_scan_golden_specs_seed_42(self, golden_workload):
        board, model = golden_workload
        specs = list(
            itertools.islice(
                iter_request_stream(board, model, 100, seed=42, active_fraction=0.5),
                100,
            )
        )
        two_stage = ("cls/board-p/comp-000", "det/board-p/group-00")
        for request_id in range(6):
            assert tuple(specs[request_id]) == (
                request_id,
                request_id * 4.0,
                "board-p/comp-000",
                two_stage,
            )
        # Request 16 is the seed's first failed continuation draw: the
        # detection stage is skipped.
        assert tuple(specs[16]) == (16, 64.0, "board-p/comp-000", ("cls/board-p/comp-000",))

    def test_shuffled_golden_specs_seed_42(self, golden_workload):
        board, model = golden_workload
        specs = list(
            iter_request_stream(
                board, model, 6, seed=42, order="shuffled", active_fraction=0.5
            )
        )
        assert [tuple(spec) for spec in specs] == [
            (0, 0.0, "board-p/comp-005", ("cls/board-p/comp-005",)),
            (1, 4.0, "board-p/comp-005", ("cls/board-p/comp-005",)),
            (2, 8.0, "board-p/comp-000", ("cls/board-p/comp-000", "det/board-p/group-00")),
            (3, 12.0, "board-p/comp-000", ("cls/board-p/comp-000", "det/board-p/group-00")),
            (4, 16.0, "board-p/comp-000", ("cls/board-p/comp-000", "det/board-p/group-00")),
            (5, 20.0, "board-p/comp-010", ("cls/board-p/comp-010", "det/board-p/group-01")),
        ]


class TestStreamGeneration:
    def test_arrival_interval(self, board, model):
        stream = generate_request_stream(board, model, 100, arrival_interval_ms=4.0, seed=0)
        assert len(stream) == 100
        assert stream[1].arrival_ms - stream[0].arrival_ms == pytest.approx(4.0)
        assert stream.duration_ms == pytest.approx(99 * 4.0)

    def test_deterministic_for_seed(self, board, model):
        a = generate_request_stream(board, model, 200, seed=5)
        b = generate_request_stream(board, model, 200, seed=5)
        assert [r.realized_pipeline for r in a] == [r.realized_pipeline for r in b]
        c = generate_request_stream(board, model, 200, seed=6)
        assert [r.realized_pipeline for r in a] != [r.realized_pipeline for r in c]

    def test_scan_order_groups_same_component(self, board, model):
        stream = generate_request_stream(board, model, 100, seed=0, order="scan")
        categories = [r.category for r in stream]
        # Scan order: the first requests all belong to the first component.
        first = categories[0]
        quantity = next(c.quantity for c in board.components if c.name == first)
        run_length = min(quantity, len(categories))
        assert categories[:run_length] == [first] * run_length

    def test_shuffled_order_draws_from_distribution(self, board, model):
        stream = generate_request_stream(board, model, 500, seed=0, order="shuffled")
        counts = stream.category_counts()
        most_common = board.components[0].name
        assert counts.get(most_common, 0) > 0

    def test_pipelines_follow_router(self, board, model):
        stream = generate_request_stream(board, model, 300, seed=1)
        for request in stream:
            potential = model.router.rule(request.category).pipeline
            assert request.realized_pipeline == potential[: len(request.realized_pipeline)]

    def test_active_fraction_limits_distinct_categories(self, board, model):
        full = generate_request_stream(board, model, 400, seed=2, active_fraction=1.0)
        partial = generate_request_stream(board, model, 400, seed=2, active_fraction=0.3)
        assert len(set(r.category for r in partial)) < len(set(r.category for r in full))

    def test_total_stage_count_at_least_request_count(self, board, model):
        stream = generate_request_stream(board, model, 200, seed=3)
        assert stream.total_stage_count >= len(stream)

    def test_distinct_experts_subset_of_model(self, board, model):
        stream = generate_request_stream(board, model, 200, seed=3)
        assert set(stream.distinct_experts()) <= set(model.expert_ids)

    def test_invalid_parameters_rejected(self, board, model):
        with pytest.raises(ValueError):
            generate_request_stream(board, model, 0)
        with pytest.raises(ValueError):
            generate_request_stream(board, model, 10, order="random")
        with pytest.raises(ValueError):
            generate_request_stream(board, model, 10, active_fraction=0.0)
        with pytest.raises(ValueError):
            generate_request_stream(board, model, 10, active_fraction=1.5)
