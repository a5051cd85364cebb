"""Tests for the classic expert replacement policies.

Residents go into real model pools that the policy listens to, and
only experts a pool holds are accessed, as in the engine.
"""

import dataclasses
import random

import pytest

from repro.hardware.processor import ProcessorKind
from repro.hardware.units import GB
from repro.policies import EvictionContext, FIFOPolicy, LFUPolicy, LRUPolicy, RandomPolicy
from repro.scheduling.fcfs import FCFSScheduling
from repro.simulation.engine import ServingSimulation
from repro.simulation.executor import ExecutorConfig
from repro.simulation.model_pool import ModelPool


def subscribed_pool(policy, residents=(), name="pool-gpu", sizes=None):
    """A model pool ``policy`` listens to, loaded with ``residents`` in order."""
    pool = ModelPool(name, capacity_bytes=1 << 40)
    pool.add_listener(policy)
    for expert in residents:
        pool.load(expert, 1 if sizes is None else sizes[expert])
    return pool


def make_context(pool, incoming="new", protected=()):
    """A context asking for more bytes than the pool holds: the full order."""
    return EvictionContext(
        pool_name=pool.name,
        incoming_expert_id=incoming,
        bytes_to_free=pool.used_bytes + 1,
        resident_bytes=pool.resident_sizes(),
        protected_expert_ids=frozenset(protected),
    )


class TestEvictionContext:
    def test_evictable_excludes_incoming_and_protected(self):
        pool = subscribed_pool(LRUPolicy(), ["a", "b", "c"])
        context = make_context(pool, incoming="a", protected={"b"})
        assert context.evictable() == ("c",)

    def test_evictable_sorts_residents_by_id(self):
        pool = subscribed_pool(LRUPolicy(), ["c", "a", "b"])
        assert make_context(pool).evictable() == ("a", "b", "c")


class TestLRU:
    def test_least_recently_used_first(self):
        policy = LRUPolicy()
        pool = subscribed_pool(policy, ["a", "b", "c"])
        policy.record_access(pool.name, "a")
        order = policy.victim_order(make_context(pool))
        assert order == ["b", "c", "a"]

    def test_access_refreshes_recency(self):
        policy = LRUPolicy()
        pool = subscribed_pool(policy, ["a", "b"])
        policy.record_access(pool.name, "a")
        assert policy.victim_order(make_context(pool))[0] == "b"

    def test_per_pool_isolation(self):
        policy = LRUPolicy()
        gpu = subscribed_pool(policy, ["a"], name="pool-gpu")
        cpu = subscribed_pool(policy, ["a"], name="pool-cpu")
        gpu.load("b", 1)
        policy.record_access(cpu.name, "a")
        assert policy.victim_order(make_context(gpu))[0] == "a"

    def test_eviction_forgets_history(self):
        policy = LRUPolicy()
        pool = subscribed_pool(policy, ["a", "b"])
        policy.record_access(pool.name, "a")
        pool.evict("b")
        pool.load("b", 1)
        # "b" came back after "a"'s access: its earlier load is forgotten.
        assert policy.victim_order(make_context(pool)) == ["a", "b"]

    def test_never_returns_incoming_expert(self):
        policy = LRUPolicy()
        pool = subscribed_pool(policy, ["a", "b"])
        order = policy.victim_order(make_context(pool, incoming="a"))
        assert "a" not in order

    def test_preloads_reach_the_policy(self, numa_device, small_model):
        """``ServingSimulation`` subscribes its policy to the pools, so a
        preload is a load the policy hears of."""
        policy = LRUPolicy()
        simulation = ServingSimulation(
            numa_device,
            small_model,
            [ExecutorConfig("gpu-0", ProcessorKind.GPU, 8 * GB, 1 * GB)],
            FCFSScheduling(),
            policy,
        )
        plan = sorted(small_model.experts)[:3][::-1]
        simulation.preload({"gpu-0": plan})
        pool = simulation.executor("gpu-0").pool
        assert policy.victim_order(make_context(pool)) == plan


class TestFIFO:
    def test_oldest_load_first_regardless_of_access(self):
        policy = FIFOPolicy()
        pool = subscribed_pool(policy, ["a", "b"], name="p")
        policy.record_access("p", "a")  # FIFO ignores accesses
        assert policy.victim_order(make_context(pool)) == ["a", "b"]

    def test_reload_after_eviction_moves_to_back(self):
        policy = FIFOPolicy()
        pool = subscribed_pool(policy, ["a", "b"], name="p")
        pool.evict("a")
        pool.load("a", 1)
        assert policy.victim_order(make_context(pool)) == ["b", "a"]


class TestLFU:
    def test_least_frequent_first(self):
        policy = LFUPolicy()
        pool = subscribed_pool(policy, ["a", "b"], name="p")
        for _ in range(3):
            policy.record_access("p", "a")
        policy.record_access("p", "b")
        assert policy.victim_order(make_context(pool)) == ["b", "a"]

    def test_frequency_ties_broken_by_load_order(self):
        policy = LFUPolicy()
        pool = subscribed_pool(policy, ["b", "a"], name="p")
        assert policy.victim_order(make_context(pool)) == ["b", "a"]

    def test_eviction_resets_frequency(self):
        policy = LFUPolicy()
        pool = subscribed_pool(policy, ["a"], name="p")
        policy.record_access("p", "a")
        pool.evict("a")
        pool.load("a", 1)
        pool.load("b", 1)
        policy.record_access("p", "b")
        assert policy.victim_order(make_context(pool))[0] == "a"


class TestRandom:
    RESIDENTS = [f"e{i}" for i in range(20)]

    def test_deterministic_for_seed(self):
        a, b = RandomPolicy(seed=7), RandomPolicy(seed=7)
        pool_a, pool_b = subscribed_pool(a, self.RESIDENTS), subscribed_pool(b, self.RESIDENTS)
        assert a.victim_order(make_context(pool_a)) == b.victim_order(make_context(pool_b))

    def test_different_seeds_differ(self):
        a, b = RandomPolicy(seed=1), RandomPolicy(seed=2)
        pool_a, pool_b = subscribed_pool(a, self.RESIDENTS), subscribed_pool(b, self.RESIDENTS)
        assert a.victim_order(make_context(pool_a)) != b.victim_order(make_context(pool_b))

    def test_returns_permutation_of_evictable(self):
        policy = RandomPolicy(seed=0)
        residents = self.RESIDENTS[:10]
        order = policy.victim_order(make_context(subscribed_pool(policy, residents), incoming="e0"))
        assert sorted(order) == sorted(residents[1:])


class TestPartialSelection:
    """Byte-bounded victim selection must match a prefix of the full sort."""

    @pytest.mark.parametrize("policy_class", [LRUPolicy, LFUPolicy, FIFOPolicy])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_partial_order_is_prefix_of_full_sort(self, policy_class, seed):
        rng = random.Random(seed)
        residents = [f"e{i:03d}" for i in range(40)]
        rng.shuffle(residents)
        sizes = {expert: rng.randrange(1, 50) * 1000 for expert in residents}
        policy = policy_class()
        pool = subscribed_pool(policy, residents, name="p", sizes=sizes)
        for _ in range(len(residents) * 3):
            policy.record_access("p", rng.choice(residents))

        base = make_context(pool)
        full_order = policy.victim_order(base)
        for bytes_to_free in (1, 5000, 40000, sum(sizes.values())):
            partial = policy.victim_order(dataclasses.replace(base, bytes_to_free=bytes_to_free))
            assert partial == full_order[: len(partial)], "not a prefix of the full sort"
            freed = sum(sizes[expert] for expert in partial)
            assert freed >= min(bytes_to_free, sum(sizes.values()))
            if len(partial) > 1:
                # Minimal: without the last victim the bytes would not suffice.
                assert freed - sizes[partial[-1]] < bytes_to_free

    def test_zero_bytes_to_free_selects_nothing(self):
        policy = LRUPolicy()
        pool = subscribed_pool(policy, ["a", "b"])
        context = dataclasses.replace(make_context(pool), bytes_to_free=0)
        assert policy.victim_order(context) == []

    @pytest.mark.parametrize("policy_class", [LRUPolicy, LFUPolicy, FIFOPolicy])
    def test_cut_counts_only_evictable_residents(self, policy_class):
        # "a" and "b" come first in every order here, but the incoming
        # and the protected expert free nothing: the cut covers the two
        # bytes from the residents after them.
        policy = policy_class()
        pool = subscribed_pool(policy, ["a", "b", "c", "d", "e"], name="p")
        context = make_context(pool, incoming="a", protected={"b"})
        assert policy.victim_order(dataclasses.replace(context, bytes_to_free=2)) == ["c", "d"]
