"""Tests for pre-assessed expert usage probabilities (§4.5, Figure 11)."""

import numpy as np
import pytest

from repro.coe.probability import UsageProfile, compute_usage_profile, empirical_usage_profile
from repro.coe.model import CoEModel
from repro.coe.router import Router, RoutingRule
from repro.experts.expert import Expert, ExpertRole
from repro.experts.registry import RESNET101, YOLOV5M


@pytest.fixture
def tiny_model():
    experts = {
        "cls/a": Expert("cls/a", RESNET101, ExpertRole.PRELIMINARY),
        "cls/b": Expert("cls/b", RESNET101, ExpertRole.PRELIMINARY),
        "det/0": Expert("det/0", YOLOV5M, ExpertRole.SUBSEQUENT),
    }
    router = Router(
        [
            RoutingRule("a", ("cls/a", "det/0"), (0.5,)),
            RoutingRule("b", ("cls/b",)),
        ]
    )
    return CoEModel(name="tiny", experts=experts, router=router)


class TestUsageProfile:
    def test_probability_lookup(self):
        profile = UsageProfile({"a": 0.5, "b": 0.2})
        assert profile.probability("a") == 0.5
        assert profile.probability("missing") == 0.0
        assert profile.probability("missing", default=0.1) == 0.1
        assert "a" in profile and "missing" not in profile

    def test_sorted_expert_ids(self):
        profile = UsageProfile({"a": 0.5, "b": 0.2, "c": 0.8})
        assert profile.sorted_expert_ids() == ("c", "a", "b")
        assert profile.sorted_expert_ids(descending=False) == ("b", "a", "c")

    def test_ties_broken_by_id(self):
        profile = UsageProfile({"b": 0.5, "a": 0.5})
        assert profile.sorted_expert_ids() == ("a", "b")

    def test_ascending_ties_broken_by_id(self):
        profile = UsageProfile({"c": 0.1, "b": 0.5, "a": 0.5})
        assert profile.sorted_expert_ids(descending=False) == ("c", "a", "b")

    def test_descending_order_is_computed_once(self):
        profile = UsageProfile({"a": 0.5, "b": 0.2, "c": 0.8})
        first = profile.sorted_expert_ids()
        assert profile.sorted_expert_ids(descending=True) is first
        assert profile.sorted_expert_ids(descending=False) == tuple(reversed(first))

    def test_cdf_monotone_and_normalised(self):
        profile = UsageProfile({"a": 0.5, "b": 0.3, "c": 0.2})
        cdf = profile.cdf()
        assert np.all(np.diff(cdf) >= 0)
        assert cdf[-1] == pytest.approx(1.0)
        assert cdf[0] == pytest.approx(0.5)

    def test_coverage(self):
        profile = UsageProfile({"a": 0.5, "b": 0.3, "c": 0.2})
        assert profile.coverage(0) == 0.0
        assert profile.coverage(1) == pytest.approx(0.5)
        assert profile.coverage(2) == pytest.approx(0.8)
        assert profile.coverage(10) == pytest.approx(1.0)

    def test_all_zero_probabilities_have_flat_cdf(self):
        profile = UsageProfile({"a": 0.0, "b": 0.0})
        assert np.all(profile.cdf() == 0)

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ValueError):
            UsageProfile({})
        with pytest.raises(ValueError):
            UsageProfile({"a": 1.5})
        with pytest.raises(ValueError):
            UsageProfile({"a": -0.1})


class TestComputeUsageProfile:
    def test_probabilities_from_category_mix(self, tiny_model):
        profile = compute_usage_profile(tiny_model, {"a": 3.0, "b": 1.0})
        assert profile.probability("cls/a") == pytest.approx(0.75)
        assert profile.probability("cls/b") == pytest.approx(0.25)
        # Detection runs for half of category-a requests.
        assert profile.probability("det/0") == pytest.approx(0.375)

    def test_zero_weight_categories_ignored(self, tiny_model):
        profile = compute_usage_profile(tiny_model, {"a": 0.0, "b": 2.0})
        assert profile.probability("cls/a") == 0.0
        assert profile.probability("cls/b") == pytest.approx(1.0)

    def test_invalid_weights_rejected(self, tiny_model):
        with pytest.raises(ValueError):
            compute_usage_profile(tiny_model, {})
        with pytest.raises(ValueError):
            compute_usage_profile(tiny_model, {"a": -1.0, "b": 2.0})
        with pytest.raises(ValueError):
            compute_usage_profile(tiny_model, {"a": 0.0})

    def test_shared_detection_expert_aggregates_probability(self, small_model, small_board):
        profile = compute_usage_profile(small_model, small_board.quantity_weights())
        detection_ids = small_model.subsequent_expert_ids
        # A shared detection expert is more probable than the average
        # classification expert because several categories route to it.
        mean_cls = np.mean([profile.probability(e) for e in small_model.preliminary_expert_ids])
        assert max(profile.probability(d) for d in detection_ids) > mean_cls


class TestEmpiricalUsageProfile:
    def test_counts_fraction_of_requests(self, tiny_model):
        observed = [("cls/a", "det/0"), ("cls/a",), ("cls/b",), ("cls/a", "det/0")]
        profile = empirical_usage_profile(tiny_model, observed)
        assert profile.probability("cls/a") == pytest.approx(0.75)
        assert profile.probability("det/0") == pytest.approx(0.5)
        assert profile.probability("cls/b") == pytest.approx(0.25)

    def test_unknown_expert_rejected(self, tiny_model):
        with pytest.raises(KeyError):
            empirical_usage_profile(tiny_model, [("ghost",)])

    def test_empty_observations_rejected(self, tiny_model):
        with pytest.raises(ValueError):
            empirical_usage_profile(tiny_model, [])
