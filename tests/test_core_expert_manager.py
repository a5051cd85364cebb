"""Tests for dependency-aware expert management (§4.3, Figure 10)."""

import dataclasses
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.coe.model import CoEModel
from repro.coe.probability import UsageProfile
from repro.coe.router import Router, RoutingRule
from repro.core.expert_manager import DependencyAwareEvictionPolicy
from repro.experts.expert import Expert, ExpertRole
from repro.experts.registry import RESNET101, YOLOV5L, YOLOV5M
from repro.policies.base import EvictionContext
from repro.serving import CoServeSystem
from repro.simulation.model_pool import ModelPool


@pytest.fixture
def model():
    experts = {
        "cls/a": Expert("cls/a", RESNET101, ExpertRole.PRELIMINARY),
        "cls/b": Expert("cls/b", RESNET101, ExpertRole.PRELIMINARY),
        "cls/c": Expert("cls/c", RESNET101, ExpertRole.PRELIMINARY),
        "det/0": Expert("det/0", YOLOV5M, ExpertRole.SUBSEQUENT),   # ~85 MB
        "det/1": Expert("det/1", YOLOV5L, ExpertRole.SUBSEQUENT),   # ~186 MB
    }
    router = Router(
        [
            RoutingRule("a", ("cls/a", "det/0"), (0.9,)),
            RoutingRule("b", ("cls/b", "det/1"), (0.9,)),
            RoutingRule("c", ("cls/c",)),
        ]
    )
    return CoEModel(name="em-test", experts=experts, router=router)


@pytest.fixture
def usage():
    return UsageProfile({"cls/a": 0.10, "cls/b": 0.05, "cls/c": 0.02, "det/0": 0.09, "det/1": 0.045})


def make_context(pool, incoming="cls/x", protected=()):
    """A context asking for more bytes than the pool holds: the full order."""
    return EvictionContext(
        pool_name=pool.name,
        incoming_expert_id=incoming,
        bytes_to_free=pool.used_bytes + 1,
        resident_bytes=pool.resident_sizes(),
        protected_expert_ids=frozenset(protected),
    )


def make_policy(model, usage, resident):
    """A policy listening to ``pool-cpu`` and ``pool-gpu``, and the GPU
    pool, which holds ``resident``.

    The residents go in through pool notifications: every expert is
    loaded into both pools and the GPU pool evicts the others again,
    while ``pool-cpu`` holds every expert throughout.
    """
    policy = DependencyAwareEvictionPolicy(model, usage)
    pools = [ModelPool(name, capacity_bytes=1 << 40) for name in ("pool-cpu", "pool-gpu")]
    for pool in pools:
        pool.add_listener(policy)
    for expert_id in sorted(model.experts):
        for pool in pools:
            pool.load(expert_id, model.expert(expert_id).weight_bytes)
    gpu = pools[1]
    for expert_id in sorted(model.experts):
        if expert_id not in resident:
            gpu.evict(expert_id)
    return policy, gpu


class TestStageOne:
    def test_orphan_subsequent_experts_evicted_first(self, model, usage):
        resident = ["cls/a", "det/0", "det/1"]
        policy, pool = make_policy(model, usage, resident)
        # det/1's preliminary (cls/b) is NOT resident -> orphan; det/0's is.
        order = policy.victim_order(make_context(pool))
        assert order[0] == "det/1"

    def test_orphans_sorted_by_descending_memory(self, model, usage):
        resident = ["cls/c", "det/0", "det/1"]
        policy, pool = make_policy(model, usage, resident)
        # Neither det/0 nor det/1 has a resident preliminary expert.
        order = policy.victim_order(make_context(pool))
        # det/1 (YOLOv5l, larger) is evicted before det/0 (YOLOv5m).
        assert order.index("det/1") < order.index("det/0")

    def test_subsequent_with_resident_preliminary_not_in_stage_one(self, model, usage):
        resident = ["cls/a", "det/0"]
        policy, pool = make_policy(model, usage, resident)
        order = policy.victim_order(make_context(pool))
        # det/0 still has cls/a resident, so the stage-2 ordering applies:
        # cls/a has lower usage than... actually det/0 (0.09) < cls/a (0.10),
        # so det/0 is evicted first but only via stage 2 ordering.
        assert set(order) == {"cls/a", "det/0"}
        assert order[0] == "det/0"


class TestStageTwo:
    def test_ascending_usage_probability(self, model, usage):
        resident = ["cls/a", "cls/b", "cls/c"]
        policy, pool = make_policy(model, usage, resident)
        order = policy.victim_order(make_context(pool))
        assert order == ["cls/c", "cls/b", "cls/a"]

    def test_figure4_scenario_keeps_higher_probability_expert(self, model, usage):
        """§3.2: unlike LRU, eviction follows pre-assessed probability."""
        resident = ["cls/b", "cls/c"]
        policy, pool = make_policy(model, usage, resident)
        order = policy.victim_order(make_context(pool))
        assert order[0] == "cls/c"  # probability 0.02 < 0.05

    def test_unknown_probability_treated_as_zero(self, model):
        resident = ["cls/a", "cls/b"]
        policy, pool = make_policy(model, UsageProfile({"cls/a": 0.5}), resident)
        order = policy.victim_order(make_context(pool))
        assert order[0] == "cls/b"


class TestProtection:
    def test_incoming_and_protected_never_evicted(self, model, usage):
        resident = ["cls/a", "cls/b", "cls/c"]
        policy, pool = make_policy(model, usage, resident)
        order = policy.victim_order(make_context(pool, incoming="cls/a", protected={"cls/b"}))
        assert order == ["cls/c"]

    def test_full_order_is_stage_one_then_stage_two(self, model, usage):
        resident = ["cls/a", "cls/c", "det/1", "det/0"]
        policy, pool = make_policy(model, usage, resident)
        order = policy.victim_order(make_context(pool))
        # Stage 1: det/1 and det/0 are orphans (cls/b not resident; det/0's
        # parent cls/a IS resident, so only det/1 qualifies for stage 1).
        assert order[0] == "det/1"
        # Stage 2 orders the rest by ascending usage probability.
        remaining = order[1:]
        assert remaining == sorted(remaining, key=lambda e: usage.probability(e))


class TestPartialSelection:
    """Byte-bounded selection must be a prefix of the two-stage full sort."""

    @pytest.mark.parametrize(
        "resident",
        [
            ("cls/a", "cls/b", "cls/c"),              # stage 2 only
            ("cls/c", "det/0", "det/1"),              # both stage-1 orphans
            ("cls/a", "cls/c", "det/1", "det/0"),     # mixed stages
        ],
    )
    def test_partial_order_is_prefix_of_full_sort(self, model, usage, resident):
        policy, pool = make_policy(model, usage, resident)
        base = make_context(pool)
        sizes = dict(pool.resident_sizes())
        full_order = policy.victim_order(base)
        total = sum(sizes.values())
        for bytes_to_free in (1, min(sizes.values()), total // 2, total):
            partial = policy.victim_order(dataclasses.replace(base, bytes_to_free=bytes_to_free))
            assert partial == full_order[: len(partial)]
            assert sum(sizes[e] for e in partial) >= bytes_to_free

    def test_stage_one_coverage_skips_stage_two(self, model, usage):
        """When an orphan frees enough bytes, stage 2 is never touched."""
        policy, pool = make_policy(model, usage, ("cls/c", "det/0", "det/1"))
        context = dataclasses.replace(make_context(pool), bytes_to_free=1)
        assert policy.victim_order(context) == ["det/1"]


def figure_10_order(model, usage, resident, protected, incoming):
    """Figure 10 from the graph, the expert bytes and the usage profile:
    orphan subsequent experts by descending bytes, then the rest by
    ascending usage probability, each tie broken by the id."""
    graph = model.dependencies
    evictable = [e for e in resident if e not in protected and e != incoming]

    def orphan(expert_id):
        parents = graph.preliminary_parents(expert_id)
        return bool(parents) and not any(parent in resident for parent in parents)

    stage_one = sorted(
        (e for e in evictable if orphan(e)), key=lambda e: (-model.expert(e).weight_bytes, e)
    )
    stage_two = sorted(
        (e for e in evictable if not orphan(e)),
        key=lambda e: (usage.probabilities.get(e, 0.0), e),
    )
    return stage_one + stage_two


@pytest.fixture(scope="module")
def shared_model():
    """Six preliminaries and four subsequent experts of two sizes; det/0
    and det/1 each have two preliminary parents."""
    architectures = {"det/0": YOLOV5M, "det/1": YOLOV5L, "det/2": YOLOV5M, "det/3": YOLOV5L}
    experts = {
        f"cls/{index}": Expert(f"cls/{index}", RESNET101, ExpertRole.PRELIMINARY)
        for index in range(6)
    }
    experts.update(
        (expert_id, Expert(expert_id, architecture, ExpertRole.SUBSEQUENT))
        for expert_id, architecture in architectures.items()
    )
    pipelines = [
        ("cls/0", "det/0"),
        ("cls/1", "det/0"),
        ("cls/1", "det/1"),
        ("cls/2", "det/2"),
        ("cls/3", "det/3"),
        ("cls/4", "det/1"),
        ("cls/5",),
    ]
    router = Router(
        [
            RoutingRule(f"c{index}", pipeline, (0.5,) * (len(pipeline) - 1))
            for index, pipeline in enumerate(pipelines)
        ]
    )
    return CoEModel(name="em-shared", experts=experts, router=router)


#: Two pools, so one pool's loads and evictions must not move the other's stages.
POOLS = ("pool-gpu", "pool-cpu")


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_victim_order_matches_brute_force_figure_10(shared_model, data):
    """Full and byte-truncated victim orders against Figure 10 worked out
    from ``DependencyGraph.preliminary_parents``, expert bytes and the
    usage profile.  Residents go in through random loads, evictions and
    reloads over two pools the policy listens to; protected sets, incoming experts, usage
    profiles (ties, unknown experts) and amounts to free are random too."""
    candidates = sorted(shared_model.experts)
    usage = UsageProfile(
        data.draw(
            st.dictionaries(
                st.sampled_from(candidates), st.sampled_from([0.0, 0.05, 0.1]), min_size=1
            )
        )
    )
    policy = DependencyAwareEvictionPolicy(shared_model, usage)
    pools = {name: ModelPool(name, capacity_bytes=1 << 40) for name in POOLS}
    for pool in pools.values():
        pool.add_listener(policy)
    churn = data.draw(
        st.lists(st.tuples(st.sampled_from(POOLS), st.sampled_from(candidates)), max_size=40)
    )
    for name, expert_id in churn:
        pool = pools[name]
        if expert_id in pool:
            pool.evict(expert_id)
        else:
            pool.load(expert_id, shared_model.expert(expert_id).weight_bytes)

    for pool in pools.values():
        protected = data.draw(st.sets(st.sampled_from(candidates)))
        incoming = data.draw(st.sampled_from(candidates + ["not-in-the-model"]))
        resident = list(pool.resident_sizes())
        sizes = dict(pool.resident_sizes())
        context = EvictionContext(
            pool_name=pool.name,
            incoming_expert_id=incoming,
            bytes_to_free=pool.used_bytes + 1,
            resident_bytes=pool.resident_sizes(),
            protected_expert_ids=frozenset(protected),
        )
        expected = figure_10_order(shared_model, usage, resident, protected, incoming)
        assert policy.victim_order(context) == expected

        boundaries = list(itertools.accumulate(sizes[e] for e in expected))
        bytes_to_free = data.draw(
            st.integers(min_value=-1, max_value=sum(sizes.values()) + 1)
            | st.sampled_from(boundaries or [0])
        )
        prefix = []
        for expert_id in expected:
            if sum(sizes[e] for e in prefix) >= bytes_to_free:
                break
            prefix.append(expert_id)
        truncated = dataclasses.replace(context, bytes_to_free=bytes_to_free)
        assert policy.victim_order(truncated) == prefix


def test_pools_keep_figure_10_order_through_a_session(
    numa_device, numa_matrix, small_model, pressure_usage, pressure_stream
):
    """After a CoServe session whose pools churn (two GPU executors
    sharing a pool of a few experts, one CPU executor, a shuffled
    stream), each pool's full victim order is Figure 10 over the experts
    that pool holds."""
    simulation = CoServeSystem(
        numa_device,
        small_model,
        pressure_usage,
        gpu_executors=2,
        cpu_executors=1,
        gpu_expert_count=4,
        performance_matrix=numa_matrix,
    ).build_simulation()
    result = simulation.run(pressure_stream)
    assert result.expert_switches > 100, "the stream no longer churns the pools"

    pools = {executor.pool.name: executor.pool for executor in simulation.executors}
    assert len(pools) == 2
    for pool in pools.values():
        resident = pool.resident_expert_ids()
        context = EvictionContext(
            pool_name=pool.name,
            incoming_expert_id="not-in-the-model",
            bytes_to_free=pool.used_bytes + 1,
            resident_bytes=pool.resident_sizes(),
        )
        assert simulation.eviction_policy.victim_order(context) == figure_10_order(
            small_model, pressure_usage, resident, (), "not-in-the-model"
        )
