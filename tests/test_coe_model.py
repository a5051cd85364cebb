"""Tests for the CoE model abstraction."""

import pytest

from repro.coe.model import CoEModel
from repro.coe.router import Router, RoutingRule
from repro.experts.expert import Expert, ExpertRole
from repro.experts.registry import RESNET101, YOLOV5M


def _make_model():
    experts = {
        "cls/a": Expert("cls/a", RESNET101, ExpertRole.PRELIMINARY),
        "cls/b": Expert("cls/b", RESNET101, ExpertRole.PRELIMINARY),
        "det/0": Expert("det/0", YOLOV5M, ExpertRole.SUBSEQUENT),
    }
    router = Router(
        [
            RoutingRule("a", ("cls/a", "det/0"), (0.9,)),
            RoutingRule("b", ("cls/b",)),
        ]
    )
    return CoEModel(name="test-model", experts=experts, router=router)


class TestCoEModel:
    def test_basic_lookup(self):
        model = _make_model()
        assert len(model) == 3
        assert "cls/a" in model
        assert model.expert("det/0").architecture_name == "yolov5m"
        with pytest.raises(KeyError):
            model.expert("missing")

    def test_roles_partition(self):
        model = _make_model()
        assert model.preliminary_expert_ids == ("cls/a", "cls/b")
        assert model.subsequent_expert_ids == ("det/0",)

    def test_dependency_graph_derived_from_router(self):
        model = _make_model()
        assert model.dependencies is not None
        assert model.dependencies.is_subsequent("det/0")
        assert model.dependencies.preliminary_parents("det/0") == ("cls/a",)

    def test_architecture_index(self):
        model = _make_model()
        assert model.architectures == ("resnet101", "yolov5m")
        assert model.experts_of_architecture("resnet101") == ("cls/a", "cls/b")
        assert model.experts_of_architecture("unknown") == ()

    def test_total_weight_and_parameters(self):
        model = _make_model()
        expected = 2 * RESNET101.weight_bytes + YOLOV5M.weight_bytes
        assert model.total_weight_bytes == expected
        assert model.mean_expert_bytes == pytest.approx(expected / 3)

    def test_largest_expert_bytes(self):
        model = _make_model()
        assert model.largest_expert_bytes == max(RESNET101.weight_bytes, YOLOV5M.weight_bytes)
        assert model.largest_expert_bytes <= model.total_weight_bytes

    def test_describe(self):
        summary = _make_model().describe()
        assert summary["experts"] == 3
        assert summary["categories"] == 2
        assert summary["total_weight_gb"] > 0

    def test_router_referencing_unknown_expert_rejected(self):
        experts = {"cls/a": Expert("cls/a", RESNET101, ExpertRole.PRELIMINARY)}
        router = Router([RoutingRule("a", ("cls/a", "det/missing"))])
        with pytest.raises(ValueError):
            CoEModel(name="broken", experts=experts, router=router)

    def test_role_inconsistent_with_dependencies_rejected(self):
        experts = {
            "cls/a": Expert("cls/a", RESNET101, ExpertRole.PRELIMINARY),
            "det/0": Expert("det/0", YOLOV5M, ExpertRole.PRELIMINARY),  # wrong role
        }
        router = Router([RoutingRule("a", ("cls/a", "det/0"))])
        with pytest.raises(ValueError):
            CoEModel(name="broken", experts=experts, router=router)

    def test_mismatched_expert_key_rejected(self):
        experts = {"wrong-key": Expert("cls/a", RESNET101, ExpertRole.PRELIMINARY)}
        router = Router([RoutingRule("a", ("cls/a",))])
        with pytest.raises(ValueError):
            CoEModel(name="broken", experts=experts, router=router)

    def test_empty_model_rejected(self):
        with pytest.raises(ValueError):
            CoEModel(name="empty", experts={}, router=Router())
