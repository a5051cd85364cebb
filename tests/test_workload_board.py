"""Tests for circuit boards and the inspection CoE model built from them."""

import pytest

from repro.coe.probability import compute_usage_profile
from repro.workload.circuit_board import (
    CircuitBoard,
    ComponentType,
    build_inspection_model,
    classification_expert_id,
    detection_expert_id,
    make_board,
    make_board_a,
    make_board_b,
)


class TestComponentType:
    def test_valid_component(self):
        component = ComponentType(name="c", quantity=5, defect_rate=0.1, detection_group=2)
        assert component.needs_detection

    def test_component_without_detection(self):
        component = ComponentType(name="c", quantity=5)
        assert not component.needs_detection

    def test_invalid_components_rejected(self):
        with pytest.raises(ValueError):
            ComponentType(name="", quantity=1)
        with pytest.raises(ValueError):
            ComponentType(name="c", quantity=0)
        with pytest.raises(ValueError):
            ComponentType(name="c", quantity=1, defect_rate=1.5)
        with pytest.raises(ValueError):
            ComponentType(name="c", quantity=1, detection_group=-1)


class TestBoardConstruction:
    def test_board_a_matches_paper(self):
        board = make_board_a()
        assert len(board.components) == 352

    def test_board_b_matches_paper(self):
        board = make_board_b()
        assert len(board.components) == 342

    def test_quantities_are_skewed(self):
        board = make_board_a()
        quantities = [component.quantity for component in board.components]
        assert quantities[0] > 20
        assert min(quantities) == 1
        assert quantities[0] > quantities[-1]

    def test_quantity_weights(self):
        board = make_board("X", component_types=5, detection_groups=2)
        weights = board.quantity_weights()
        assert len(weights) == 5
        assert all(weight >= 1 for weight in weights.values())

    def test_duplicate_component_names_rejected(self):
        component = ComponentType(name="dup", quantity=1)
        with pytest.raises(ValueError):
            CircuitBoard(name="X", components=(component, component))

    def test_detection_group_out_of_range_rejected(self):
        component = ComponentType(name="c", quantity=1, detection_group=5)
        with pytest.raises(ValueError):
            CircuitBoard(name="X", components=(component,), detection_groups=2)

    def test_detection_fraction_zero_produces_no_detection(self):
        board = make_board("X", component_types=10, detection_groups=0, detection_fraction=0.0)
        assert all(not c.needs_detection for c in board.components)

    def test_invalid_board_parameters_rejected(self):
        with pytest.raises(ValueError):
            make_board("X", component_types=0, detection_groups=1)
        with pytest.raises(ValueError):
            make_board("X", component_types=5, detection_groups=-1)
        with pytest.raises(ValueError):
            make_board("X", component_types=5, detection_groups=1, detection_fraction=1.5)


class TestInspectionModel:
    def test_expert_counts(self):
        board = make_board("X", component_types=20, detection_groups=4)
        model = build_inspection_model(board)
        assert len(model.preliminary_expert_ids) == 20
        assert len(model.subsequent_expert_ids) == 4
        assert len(model.router) == 20

    def test_paper_scale_memory_requirement(self):
        """§2.2: over 300 experts, roughly 60 GB of memory."""
        model = build_inspection_model(make_board_a())
        assert len(model) > 300
        assert model.total_weight_bytes > 55e9
        assert model.total_parameters > 10e9

    def test_every_component_has_a_dedicated_classifier(self):
        board = make_board("X", component_types=15, detection_groups=3)
        model = build_inspection_model(board)
        for component in board.components:
            expert_id = classification_expert_id(board, component)
            assert expert_id in model
            assert model.expert(expert_id).architecture_name == "resnet101"

    def test_detection_experts_are_shared(self):
        board = make_board_a()
        model = build_inspection_model(board)
        graph = model.dependencies
        assert any(
            len(graph.preliminary_parents(expert_id)) >= 2
            for expert_id in model.subsequent_expert_ids
        )

    def test_detection_pipeline_continuation_probability(self):
        board = make_board("X", component_types=10, detection_groups=2, defect_rate=0.1)
        model = build_inspection_model(board)
        for component in board.components:
            if component.needs_detection:
                rule = model.router.rule(component.name)
                assert rule.continuation_probabilities == (0.9,)
                assert rule.pipeline[1] == detection_expert_id(board, component.detection_group)

    def test_detection_architectures_alternate(self):
        board = make_board("X", component_types=20, detection_groups=4)
        model = build_inspection_model(board)
        architectures = {
            model.expert(detection_expert_id(board, group)).architecture_name for group in range(4)
        }
        assert architectures == {"yolov5m", "yolov5l"}

    def test_usage_cdf_matches_figure11_shape(self):
        """Figure 11: the top ~35 experts cover roughly 60 % of usage."""
        board = make_board_a()
        model = build_inspection_model(board)
        profile = compute_usage_profile(model, board.quantity_weights())
        coverage = profile.coverage(35)
        assert 0.5 < coverage < 0.75
