"""Eviction policy interface.

A policy observes loads, accesses and evictions (so it can maintain
recency, frequency or residency state) and, when asked, produces a
*victim ordering*: evictable residents of one model pool, from the most
to the least attractive eviction candidate, cut off once they cover the
bytes the incoming expert needs.  The simulator evicts experts in that
order until the incoming expert fits; separating "ordering" (policy)
from "how many" (simulator) keeps every policy small.  A policy serves
one run: every serving system builds fresh policies per simulation.
"""

from __future__ import annotations

import abc
import heapq
from collections import OrderedDict
from dataclasses import dataclass
from typing import AbstractSet, Callable, Dict, List, Mapping, Sequence, Set, Tuple


@dataclass(frozen=True)
class EvictionContext:
    """Information available to a policy when choosing victims.

    Parameters
    ----------
    pool_name:
        Name of the model pool that needs space.  Executors bound to the
        same processor usually share one pool, so policy state (recency,
        frequency, load order) is keyed by pool rather than by executor.
    resident_expert_ids:
        Experts currently resident in the pool.
    incoming_expert_id:
        The expert that needs to be loaded.
    bytes_to_free:
        How many bytes must be evicted before the incoming expert fits.
        Policies return only the victim prefix covering this amount —
        the simulator stops evicting once the expert fits, so the
        truncation is behaviour-preserving — or every evictable resident
        when even all of them cannot cover it.
    resident_bytes:
        Sizes (in bytes) of the resident experts, used to measure how
        much a victim prefix frees.
    protected_expert_ids:
        Experts that must not be evicted (e.g. experts currently being
        executed by an executor sharing the pool).
    """

    pool_name: str
    resident_expert_ids: Tuple[str, ...]
    incoming_expert_id: str
    bytes_to_free: int
    resident_bytes: Mapping[str, int]
    protected_expert_ids: AbstractSet[str] = frozenset()

    def evictable(self) -> Tuple[str, ...]:
        """Residents that may legally be evicted."""
        blocked: Set[str] = set(self.protected_expert_ids)
        blocked.add(self.incoming_expert_id)
        return tuple(e for e in self.resident_expert_ids if e not in blocked)


def select_victims(
    candidates: Sequence[str],
    sort_key: Callable[[str], object],
    bytes_to_free: int,
    resident_bytes: Mapping[str, int],
) -> List[str]:
    """Order eviction candidates, stopping once enough bytes are covered.

    Equivalent to ``sorted(candidates, key=sort_key)`` truncated after
    the cumulative candidate sizes reach ``bytes_to_free`` — the prefix
    the simulator would actually evict.  Small evictions (the common
    case: one incoming expert displaces one or two residents) use
    ``heapq.nsmallest`` partial selection instead of sorting every
    resident, growing the selection geometrically until the freed bytes
    suffice.  ``sort_key`` must induce a total order (every policy
    breaks ties on the expert id), so the partial selection returns
    exactly the same prefix as the full sort.
    """
    if bytes_to_free <= 0 or not candidates:
        return []
    # Decorate once: every selection round compares C-level tuples
    # instead of re-invoking the Python key per candidate per round
    # (the key is unique — policies tie-break on the expert id — so the
    # decorated order is exactly the keyed order).
    decorated = [(sort_key(expert_id), expert_id) for expert_id in candidates]
    if not decorated:  # candidates may be any iterable, even an empty one
        return []
    # Fast path: the single coldest candidate usually covers the bytes
    # (one incoming expert displaces roughly one resident).
    _, first_id = min(decorated)
    if resident_bytes.get(first_id, 0) >= bytes_to_free:
        return [first_id]
    total = len(decorated)
    k = min(total, 8)
    while True:
        selected = heapq.nsmallest(k, decorated)
        covered = 0
        for index, (_, expert_id) in enumerate(selected):
            covered += resident_bytes.get(expert_id, 0)
            if covered >= bytes_to_free:
                return [expert_id for _, expert_id in selected[: index + 1]]
        if k >= total:
            # Even evicting everything cannot cover the request; return
            # the full order and let the simulator report the failure.
            return [expert_id for _, expert_id in selected]
        k = min(total, k * 4)


class EvictionPolicy(abc.ABC):
    """Base class for expert replacement policies.

    Every engine path (the session, ``ServingSimulation.preload`` and
    both reference oracles) records each load into and eviction from a
    pool with :meth:`record_load` and :meth:`record_eviction`, so a
    policy's victim order may depend on the residency it was told about
    rather than on a scan of ``EvictionContext.resident_expert_ids``.
    """

    def record_load(self, pool_name: str, expert_id: str) -> None:
        """Notify the policy that an expert was loaded into a pool."""

    def record_access(self, pool_name: str, expert_id: str) -> None:
        """Notify the policy that a resident expert served a batch."""

    def record_eviction(self, pool_name: str, expert_id: str) -> None:
        """Notify the policy that an expert was evicted from a pool."""

    @abc.abstractmethod
    def victim_order(self, context: EvictionContext) -> List[str]:
        """Return evictable experts ordered from first to last victim.

        Implementations must only return experts from
        ``context.evictable()``; the simulator evicts them in order
        until the incoming expert fits.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class _PerPoolRecencyPolicy(EvictionPolicy):
    """Shared machinery for bump-ordered policies (LRU, FIFO).

    Each pool keeps an insertion-ordered map of its experts; bumping an
    expert moves it to the most-recent end.  Bumps used to assign a
    unique monotonically increasing tick with victims selected by
    sorting on ``(tick, expert_id)``; ticks being unique, that order is
    exactly the map's iteration order, so :meth:`_victims_by_recency`
    streams victims straight out of the map — no per-candidate key
    tuples, no sort — while returning the identical prefix
    (equivalence enforced by ``tests/test_policies.py``).
    """

    def __init__(self) -> None:
        self._order: Dict[str, "OrderedDict[str, None]"] = {}

    def _bump(self, pool_name: str, expert_id: str) -> None:
        pool_order = self._order.get(pool_name)
        if pool_order is None:
            self._order[pool_name] = OrderedDict({expert_id: None})
        elif expert_id in pool_order:
            pool_order.move_to_end(expert_id)
        else:
            pool_order[expert_id] = None

    def _forget(self, pool_name: str, expert_id: str) -> None:
        pool_order = self._order.get(pool_name)
        if pool_order is not None:
            pool_order.pop(expert_id, None)

    def _victims_by_recency(self, context: EvictionContext) -> List[str]:
        """Evictable residents, least recently bumped first.

        Semantically ``select_victims(context.evictable(), key=(tick,
        expert_id), ...)``: residents never bumped (tick 0 — cannot
        happen through the engine, which records every load) come first
        in id order, then bumped residents in bump order; the list is
        truncated once the victims cover the requested amount, and —
        like ``select_victims`` — the full order is returned when even
        that cannot cover it.
        """
        pool_order = self._order.get(context.pool_name)
        if pool_order is None:
            pool_order = ()
        blocked = set(context.protected_expert_ids)
        blocked.add(context.incoming_expert_id)
        resident_set = set(context.resident_expert_ids)
        # Residents the engine loaded are always bumped, so this
        # difference is empty on the hot path; computing it as C-level
        # set ops (sorting makes input order irrelevant) avoids a
        # per-eviction Python scan over every resident.
        missing = resident_set.difference(pool_order)
        never_bumped = sorted(missing.difference(blocked)) if missing else []
        bytes_to_free = context.bytes_to_free
        sizes = context.resident_bytes
        if bytes_to_free <= 0:
            return []
        victims: List[str] = []
        covered = 0
        for expert_id in never_bumped:
            victims.append(expert_id)
            covered += sizes.get(expert_id, 0)
            if covered >= bytes_to_free:
                return victims
        for expert_id in pool_order:
            if expert_id in blocked or expert_id not in resident_set:
                continue
            victims.append(expert_id)
            covered += sizes.get(expert_id, 0)
            if covered >= bytes_to_free:
                break
        return victims
