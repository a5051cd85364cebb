"""Property-based tests (hypothesis) for core data structures and invariants."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro.coe.model import CoEModel
from repro.coe.probability import UsageProfile
from repro.coe.router import Router, RoutingRule
from repro.core.expert_manager import DependencyAwareEvictionPolicy
from repro.core.memory import DecayWindowSearch, split_capacity_by_expert_count
from repro.experts.expert import Expert, ExpertRole
from repro.experts.registry import RESNET101, YOLOV5M
from repro.hardware.performance import ExecutionProfile
from repro.hardware.units import MB
from repro.policies import FIFOPolicy, LFUPolicy, LRUPolicy
from repro.policies.base import EvictionContext
from repro.simulation.host_cache import HostCache
from repro.simulation.model_pool import ModelPool
from repro.simulation.queueing import RequestQueue
from repro.simulation.request import SimRequest, StageJob
from repro.simulation.resources import SerialResource
from repro.workload.generator import RequestSpec
from test_core_expert_manager import figure_10_order


# ----------------------------------------------------------------------
# Model pool invariants
# ----------------------------------------------------------------------
@st.composite
def pool_operations(draw):
    capacity = draw(st.integers(min_value=100, max_value=5000))
    operations = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["load", "evict"]),
                st.integers(min_value=0, max_value=9),
                st.integers(min_value=1, max_value=1500),
            ),
            max_size=40,
        )
    )
    return capacity, operations


@given(pool_operations())
@settings(max_examples=60, deadline=None)
def test_model_pool_never_exceeds_capacity(data):
    capacity, operations = data
    pool = ModelPool("prop", capacity)
    for op, index, size in operations:
        expert = f"e{index}"
        if op == "load" and not pool.contains(expert) and pool.can_fit(size):
            pool.load(expert, size)
        elif op == "evict" and pool.contains(expert):
            pool.evict(expert)
        assert 0 <= pool.used_bytes <= capacity
        assert pool.free_bytes == capacity - pool.used_bytes
        assert pool.resident_count == len(pool.resident_expert_ids())


@given(
    st.integers(min_value=100, max_value=2000),
    st.lists(st.tuples(st.integers(0, 20), st.integers(1, 800)), min_size=1, max_size=60),
)
@settings(max_examples=60, deadline=None)
def test_host_cache_never_exceeds_capacity(capacity, inserts):
    cache = HostCache(capacity)
    for index, size in inserts:
        cache.put(f"e{index}", size)
        assert cache.used_bytes <= capacity


# ----------------------------------------------------------------------
# Queue invariants
# ----------------------------------------------------------------------
def _job(request_id, expert):
    spec = RequestSpec(request_id, 0.0, "cat", (expert,))
    return StageJob(SimRequest(spec), 0, expert, 0.0)


@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=60))
@settings(max_examples=60, deadline=None)
def test_queue_pop_head_run_returns_single_expert_prefix(expert_indices):
    queue = RequestQueue("prop")
    for request_id, index in enumerate(expert_indices):
        queue.append(_job(request_id, f"e{index}"))
    total = len(queue)
    popped = queue.pop_head_run(max_count=100)
    assert len(popped) >= 1
    assert len(set(job.expert_id for job in popped)) == 1
    assert len(queue) == total - len(popped)
    # Popped jobs form the maximal head run of the first expert.
    first = f"e{expert_indices[0]}"
    expected_run = 0
    for index in expert_indices:
        if f"e{index}" == first:
            expected_run += 1
        else:
            break
    assert len(popped) == expected_run


@given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=50))
@settings(max_examples=60, deadline=None)
def test_queue_grouped_insertion_keeps_same_expert_contiguous(expert_indices):
    """Inserting every job after the last same-expert job (CoServe's
    arranging) keeps each expert's jobs contiguous in the queue."""
    queue = RequestQueue("prop")
    for request_id, index in enumerate(expert_indices):
        job = _job(request_id, f"e{index}")
        position = queue.index_after_last(job.expert_id)
        queue.insert(len(queue) if position is None else position, job)
    sequence = [job.expert_id for job in queue.jobs]
    seen = set()
    previous = None
    for expert in sequence:
        if expert != previous:
            assert expert not in seen, f"expert {expert} appears in two separate groups"
            seen.add(expert)
        previous = expert


# ----------------------------------------------------------------------
# Policy invariants
# ----------------------------------------------------------------------
def _figure_10_model():
    """Figure 10's model over e0..e8 and its usage profile: e3 depends on
    e0 and e1, e4 on e1, e5 on e2 and e7 on e6; e8 stands alone."""
    pipelines = [("e0", "e3"), ("e1", "e3"), ("e1", "e4"), ("e2", "e5"), ("e6", "e7"), ("e8",)]
    subsequent = {pipeline[-1] for pipeline in pipelines if len(pipeline) > 1}
    experts = {
        expert_id: Expert(
            expert_id,
            YOLOV5M if expert_id in subsequent else RESNET101,
            ExpertRole.SUBSEQUENT if expert_id in subsequent else ExpertRole.PRELIMINARY,
        )
        for expert_id in (f"e{index}" for index in range(9))
    }
    router = Router(
        [
            RoutingRule(f"c{index}", pipeline, (0.5,) * (len(pipeline) - 1))
            for index, pipeline in enumerate(pipelines)
        ]
    )
    usage = UsageProfile({f"e{index}": (index % 4) / 10 for index in range(9)})
    return CoEModel("prop", experts, router), usage


def _dependency_aware_policy():
    return DependencyAwareEvictionPolicy(*_figure_10_model())


def _full_order_context(pool, protected=frozenset()):
    return EvictionContext(
        pool_name=pool.name,
        incoming_expert_id="incoming",
        bytes_to_free=pool.used_bytes + 1,
        resident_bytes=pool.resident_sizes(),
        protected_expert_ids=protected,
    )


@given(
    st.sampled_from([LRUPolicy, FIFOPolicy, LFUPolicy, _dependency_aware_policy]),
    st.lists(
        st.tuples(st.sampled_from(["load", "access", "evict", "clear"]), st.integers(0, 8)),
        max_size=50,
    ),
)
@settings(max_examples=110, deadline=None)
def test_policies_return_permutation_of_evictable(make_policy, history):
    """Each policy orders exactly the evictable residents of a pool it
    listens to, after a history the engine could produce: loads of
    absent experts, accesses and evictions of held ones, reloads and
    clears."""
    policy = make_policy()
    pool = ModelPool("pool", capacity_bytes=1 << 40)
    pool.add_listener(policy)
    for op, index in history:
        expert = f"e{index}"
        if op == "load" and expert not in pool:
            pool.load(expert, 1 + index)
        elif op == "access" and expert in pool:
            policy.record_access(pool.name, expert)
        elif op == "evict" and expert in pool:
            pool.evict(expert)
        elif op == "clear" and index == 0:  # one clear draw in nine empties the pool
            pool.clear()
    resident = pool.resident_expert_ids()
    if not resident:
        return
    context = _full_order_context(pool, protected=frozenset({resident[0]}))
    order = policy.victim_order(context)
    assert sorted(order) == sorted(context.evictable())
    assert resident[0] not in order


def test_clear_keeps_figure_10_stages():
    """``ModelPool.clear`` evicts one resident at a time, so a listener
    reading the pool sees each eviction with the rest still held: the
    dependency-aware policy's stages survive a clear and later reloads."""
    model, usage = _figure_10_model()
    policy = DependencyAwareEvictionPolicy(model, usage)
    pool = ModelPool("pool", capacity_bytes=1 << 40)
    pool.add_listener(policy)
    for expert in ("e0", "e1", "e3", "e4", "e6", "e7"):
        pool.load(expert, model.expert(expert).weight_bytes)
    pool.clear()
    assert len(pool) == 0 and pool.used_bytes == 0
    for expert in ("e3", "e1"):
        pool.load(expert, model.expert(expert).weight_bytes)
    resident = pool.resident_expert_ids()
    expected = figure_10_order(model, usage, resident, (), "incoming")
    assert policy.victim_order(_full_order_context(pool)) == expected


# ----------------------------------------------------------------------
# Usage profile invariants
# ----------------------------------------------------------------------
@given(
    st.dictionaries(
        st.text(alphabet="abcdefgh", min_size=1, max_size=4),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=1,
        max_size=20,
    )
)
@settings(max_examples=80, deadline=None)
def test_usage_profile_cdf_is_monotone_and_bounded(probabilities):
    profile = UsageProfile(probabilities)
    cdf = profile.cdf()
    assert len(cdf) == len(probabilities)
    assert all(b >= a - 1e-12 for a, b in zip(cdf, cdf[1:]))
    assert all(0.0 <= value <= 1.0 + 1e-9 for value in cdf)
    ordered = profile.sorted_expert_ids()
    values = [profile.probability(expert) for expert in ordered]
    assert all(a >= b for a, b in zip(values, values[1:]))


# ----------------------------------------------------------------------
# Execution profile invariants
# ----------------------------------------------------------------------
@given(
    st.floats(min_value=0.5, max_value=50.0),
    st.floats(min_value=0.0, max_value=100.0),
    st.integers(min_value=1, max_value=32),
    st.floats(min_value=0.0, max_value=5.0),
    st.integers(min_value=1, max_value=64),
)
@settings(max_examples=100, deadline=None)
def test_execution_latency_is_positive_and_increasing(k, b, saturation, penalty, batch):
    profile = ExecutionProfile(k, b, saturation, penalty, 10 * MB, 1.0)
    latency = profile.execution_latency_ms(batch)
    assert latency > 0
    assert profile.execution_latency_ms(batch + 1) > latency


# ----------------------------------------------------------------------
# Serial resource invariants
# ----------------------------------------------------------------------
@given(st.lists(st.tuples(st.floats(0, 1000), st.floats(0, 100)), min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_serial_resource_grants_non_overlapping_intervals(acquisitions):
    resource = SerialResource("prop")
    previous_end = 0.0
    # Requests must be issued in non-decreasing time order, as the engine does.
    for now, duration in sorted(acquisitions, key=lambda pair: pair[0]):
        start, end = resource.acquire(now, duration)
        assert start >= now
        assert start >= previous_end
        assert end == pytest.approx(start + duration)
        previous_end = end


# ----------------------------------------------------------------------
# Memory allocation invariants
# ----------------------------------------------------------------------
@given(
    st.integers(min_value=1, max_value=200),
    st.integers(min_value=10**9, max_value=16 * 10**9),
)
@settings(max_examples=60, deadline=None)
def test_split_by_expert_count_never_exceeds_capacity(count, capacity):
    plan = split_capacity_by_expert_count(capacity, count, 178 * MB)
    assert plan.expert_pool_bytes + plan.activation_bytes == capacity
    assert plan.expert_pool_bytes >= 0 and plan.activation_bytes >= 0


@given(st.integers(min_value=5, max_value=40), st.integers(min_value=20, max_value=200))
@settings(max_examples=40, deadline=None)
def test_decay_window_selection_always_within_bounds(initial_window, max_count):
    search = DecayWindowSearch(initial_window=initial_window, error_margin=0.05, seed=1)
    result = search.search(lambda count: 10.0 + count * 0.01, max_expert_count=max_count)
    assert 1 <= result.selected_count <= max_count
    assert result.window_lower <= result.selected_count <= max(result.window_upper, result.window_lower)
