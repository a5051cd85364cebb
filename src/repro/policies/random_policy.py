"""Seeded random eviction.

A lower-bound sanity baseline: evicts uniformly at random (but
deterministically for a given seed, so simulations stay reproducible).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.policies.base import EvictionContext, EvictionPolicy


class RandomPolicy(EvictionPolicy):
    """Evict residents in a random (seeded) order."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)

    def victim_order(self, context: EvictionContext) -> List[str]:
        candidates = list(context.evictable())
        self._rng.shuffle(candidates)
        return candidates
