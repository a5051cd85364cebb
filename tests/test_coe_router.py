"""Tests for routing rules and the router."""

import numpy as np
import pytest

from repro.coe.router import Router, RoutingRule


class TestRoutingRule:
    def test_defaults_to_unconditional_pipeline(self):
        rule = RoutingRule(category="c1", pipeline=("cls", "det"))
        assert rule.continuation_probabilities == (1.0,)
        assert rule.subsequent_experts == ("det",)

    def test_stage_reach_probabilities(self):
        rule = RoutingRule("c1", ("a", "b", "c"), (0.5, 0.4))
        assert rule.stage_reach_probabilities() == pytest.approx((1.0, 0.5, 0.2))

    def test_single_stage_rule(self):
        rule = RoutingRule("c1", ("a",))
        assert rule.stage_reach_probabilities() == (1.0,)

    def test_invalid_rules_rejected(self):
        with pytest.raises(ValueError):
            RoutingRule("", ("a",))
        with pytest.raises(ValueError):
            RoutingRule("c", ())
        with pytest.raises(ValueError):
            RoutingRule("c", ("a", "a"))
        with pytest.raises(ValueError):
            RoutingRule("c", ("a", "b"), (0.5, 0.5))
        with pytest.raises(ValueError):
            RoutingRule("c", ("a", "b"), (1.5,))


class TestRouter:
    @pytest.fixture
    def router(self):
        return Router(
            [
                RoutingRule("comp-0", ("cls0", "det0"), (0.9,)),
                RoutingRule("comp-1", ("cls1",)),
                RoutingRule("comp-2", ("cls2", "det0"), (0.8,)),
            ]
        )

    def test_categories_and_experts(self, router):
        assert router.categories == ("comp-0", "comp-1", "comp-2")
        assert router.expert_ids() == ("cls0", "cls1", "cls2", "det0")
        assert len(router) == 3
        assert "comp-1" in router

    def test_rule_lookup(self, router):
        assert router.rule("comp-1").pipeline == ("cls1",)
        with pytest.raises(KeyError):
            router.rule("comp-99")

    def test_duplicate_category_rejected(self, router):
        with pytest.raises(ValueError):
            router.add_rule(RoutingRule("comp-0", ("clsX",)))

    def test_resolve_without_rng_returns_full_pipeline(self, router):
        assert router.resolve("comp-0") == ("cls0", "det0")

    def test_resolve_respects_continuation_probability(self, router):
        rng = np.random.default_rng(0)
        resolved = [router.resolve("comp-0", rng) for _ in range(2000)]
        with_detection = sum(1 for pipeline in resolved if len(pipeline) == 2)
        assert 0.85 < with_detection / 2000 < 0.95

    def test_resolve_always_includes_preliminary(self, router):
        rng = np.random.default_rng(1)
        for _ in range(50):
            assert router.resolve("comp-0", rng)[0] == "cls0"
