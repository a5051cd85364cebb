"""Tests for the classic expert replacement policies."""

import dataclasses
import random

import pytest

from repro.policies import EvictionContext, FIFOPolicy, LFUPolicy, LRUPolicy, RandomPolicy
from repro.policies.base import select_victims


def make_context(resident, incoming="new", protected=(), pool="pool-gpu"):
    """A context asking for more bytes than the residents hold: the full order."""
    return EvictionContext(
        pool_name=pool,
        resident_expert_ids=tuple(resident),
        incoming_expert_id=incoming,
        bytes_to_free=len(resident) + 1,
        resident_bytes={expert: 1 for expert in resident},
        protected_expert_ids=frozenset(protected),
    )


class TestEvictionContext:
    def test_evictable_excludes_incoming_and_protected(self):
        context = make_context(["a", "b", "c"], incoming="a", protected={"b"})
        assert context.evictable() == ("c",)

    def test_evictable_preserves_resident_order(self):
        context = make_context(["c", "a", "b"])
        assert context.evictable() == ("c", "a", "b")


class TestLRU:
    def test_least_recently_used_first(self):
        policy = LRUPolicy()
        for expert in ("a", "b", "c"):
            policy.record_load("pool-gpu", expert)
        policy.record_access("pool-gpu", "a")
        order = policy.victim_order(make_context(["a", "b", "c"]))
        assert order == ["b", "c", "a"]

    def test_access_refreshes_recency(self):
        policy = LRUPolicy()
        policy.record_load("pool-gpu", "a")
        policy.record_load("pool-gpu", "b")
        policy.record_access("pool-gpu", "a")
        assert policy.victim_order(make_context(["a", "b"]))[0] == "b"

    def test_per_pool_isolation(self):
        policy = LRUPolicy()
        policy.record_load("pool-gpu", "a")
        policy.record_load("pool-cpu", "a")
        policy.record_load("pool-gpu", "b")
        assert policy.victim_order(make_context(["a", "b"], pool="pool-gpu"))[0] == "a"

    def test_eviction_forgets_history(self):
        policy = LRUPolicy()
        policy.record_load("pool-gpu", "a")
        policy.record_access("pool-gpu", "a")
        policy.record_eviction("pool-gpu", "a")
        policy.record_load("pool-gpu", "b")
        # "a" has no history now, so it sorts before "b".
        assert policy.victim_order(make_context(["a", "b"]))[0] == "a"

    def test_unrecorded_residents_first_in_id_order(self):
        policy = LRUPolicy()
        policy.record_load("pool-gpu", "a")
        order = policy.victim_order(make_context(["c", "a", "b"]))
        assert order == ["b", "c", "a"]

    def test_never_returns_incoming_expert(self):
        policy = LRUPolicy()
        order = policy.victim_order(make_context(["a", "b"], incoming="a"))
        assert "a" not in order


class TestFIFO:
    def test_oldest_load_first_regardless_of_access(self):
        policy = FIFOPolicy()
        policy.record_load("p", "a")
        policy.record_load("p", "b")
        policy.record_access("p", "a")  # FIFO ignores accesses
        assert policy.victim_order(make_context(["a", "b"], pool="p")) == ["a", "b"]

    def test_reload_after_eviction_moves_to_back(self):
        policy = FIFOPolicy()
        policy.record_load("p", "a")
        policy.record_load("p", "b")
        policy.record_eviction("p", "a")
        policy.record_load("p", "a")
        assert policy.victim_order(make_context(["a", "b"], pool="p")) == ["b", "a"]


class TestLFU:
    def test_least_frequent_first(self):
        policy = LFUPolicy()
        for expert in ("a", "b"):
            policy.record_load("p", expert)
        for _ in range(3):
            policy.record_access("p", "a")
        policy.record_access("p", "b")
        assert policy.victim_order(make_context(["a", "b"], pool="p")) == ["b", "a"]

    def test_frequency_ties_broken_by_load_order(self):
        policy = LFUPolicy()
        policy.record_load("p", "a")
        policy.record_load("p", "b")
        assert policy.victim_order(make_context(["a", "b"], pool="p")) == ["a", "b"]

    def test_eviction_resets_frequency(self):
        policy = LFUPolicy()
        policy.record_load("p", "a")
        policy.record_access("p", "a")
        policy.record_eviction("p", "a")
        policy.record_load("p", "a")
        policy.record_load("p", "b")
        policy.record_access("p", "b")
        assert policy.victim_order(make_context(["a", "b"], pool="p"))[0] == "a"


class TestRandom:
    def test_deterministic_for_seed(self):
        residents = [f"e{i}" for i in range(20)]
        a = RandomPolicy(seed=7).victim_order(make_context(residents))
        b = RandomPolicy(seed=7).victim_order(make_context(residents))
        assert a == b

    def test_different_seeds_differ(self):
        residents = [f"e{i}" for i in range(20)]
        a = RandomPolicy(seed=1).victim_order(make_context(residents))
        b = RandomPolicy(seed=2).victim_order(make_context(residents))
        assert a != b

    def test_returns_permutation_of_evictable(self):
        residents = [f"e{i}" for i in range(10)]
        order = RandomPolicy(seed=0).victim_order(make_context(residents, incoming="e0"))
        assert sorted(order) == sorted(residents[1:])


def _policy_with_history(policy_class, residents, rng):
    """A policy whose counters reflect a random load/access history."""
    policy = policy_class()
    for expert in residents:
        policy.record_load("p", expert)
    for _ in range(len(residents) * 3):
        policy.record_access("p", rng.choice(residents))
    return policy


class TestPartialSelection:
    """Byte-bounded victim selection must match a prefix of the full sort."""

    @pytest.mark.parametrize("policy_class", [LRUPolicy, LFUPolicy, FIFOPolicy])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_partial_order_is_prefix_of_full_sort(self, policy_class, seed):
        rng = random.Random(seed)
        residents = [f"e{i:03d}" for i in range(40)]
        rng.shuffle(residents)
        sizes = {expert: rng.randrange(1, 50) * 1000 for expert in residents}
        policy = _policy_with_history(policy_class, residents, rng)

        base = make_context(residents, pool="p")
        full_order = policy.victim_order(base)
        for bytes_to_free in (1, 5000, 40000, sum(sizes.values())):
            partial = policy.victim_order(
                dataclasses.replace(base, bytes_to_free=bytes_to_free, resident_bytes=sizes)
            )
            assert partial == full_order[: len(partial)], "not a prefix of the full sort"
            freed = sum(sizes[expert] for expert in partial)
            assert freed >= min(bytes_to_free, sum(sizes.values()))
            if len(partial) > 1:
                # Minimal: without the last victim the bytes would not suffice.
                assert freed - sizes[partial[-1]] < bytes_to_free

    def test_zero_bytes_to_free_selects_nothing(self):
        policy = LRUPolicy()
        context = dataclasses.replace(
            make_context(["a", "b"]), bytes_to_free=0, resident_bytes={"a": 1, "b": 1}
        )
        assert policy.victim_order(context) == []

    def test_select_victims_covers_requested_bytes(self):
        sizes = {f"e{i}": 10 for i in range(30)}
        order = select_victims(sorted(sizes), lambda e: e, 95, sizes)
        assert order == sorted(sizes)[:10]
