"""Reference kernel: the benchmark's yardstick for the host's current speed.

On a host whose cores are shared with other tenants, identical work can
run up to 1.7x slower for seconds to minutes at a time, in wall and CPU
time alike.  A whole run can fall in such a slow phase, so no estimator
over one run's repeats removes it.  Instead, every timed part is
bracketed by timings of a fixed pure-Python kernel that exercises what
the simulator spends its time on (a binary-heap event loop over slotted
objects, dict lookups and counting, small tuples), and the part's time
is scaled by :data:`REFERENCE_S` over the kernel's time beside it.

The kernel depends on nothing under ``src/``: a change to the simulator
moves a scaled time exactly as much as the raw one, while a change in
the host's speed moves the part and the kernel alike and cancels.
"""

from __future__ import annotations

import gc
import heapq
import random
import statistics
import time

#: The kernel's median time, in seconds, on the 2-vCPU Xeon VM the
#: bounds were set on, so that scaled times read as seconds there.
REFERENCE_S = 0.0077

#: Event-loop steps per pass, and passes per timing.
ROUNDS = 10_000
PASSES = 3


class _Job:
    __slots__ = ("ident", "cost", "visits")

    def __init__(self, ident: int, cost: float) -> None:
        self.ident = ident
        self.cost = cost
        self.visits = 0


class ReferenceKernel:
    """A fixed pure-Python event loop whose time tracks the host's speed."""

    def __init__(self) -> None:
        draw = random.Random(0).random
        self.jobs = [_Job(ident, draw()) for ident in range(4096)]
        self.table = {key: key % 1021 for key in range(1 << 14)}

    def run(self) -> int:
        """One pass of the event loop; returns the number of keys counted."""
        jobs, table = self.jobs, self.table
        heap: list = []
        counts: dict = {}
        now = 0.0
        index = 1
        for step in range(ROUNDS):
            job = jobs[(step * 7919) & 4095]
            heapq.heappush(heap, (now + job.cost, step, job))
            if len(heap) > 256:
                now, _, done = heapq.heappop(heap)
                done.visits += 1
                index = (index * 1103515245 + 12345) & 0x3FFF
                key = table[index]
                counts[key] = counts.get(key, 0) + 1
        return len(counts)

    def seconds(self) -> float:
        """The kernel's time now: the median of :data:`PASSES` passes.

        The median ignores a pass that a single preemption slowed, while
        a slow phase of the host, which lasts longer, slows all of them.
        Garbage collection is off meanwhile: its cost grows with the
        simulator's heap, which must not reach the yardstick.
        """
        times = []
        collecting = gc.isenabled()
        gc.disable()
        try:
            for _ in range(PASSES):
                start = time.perf_counter()
                self.run()
                times.append(time.perf_counter() - start)
        finally:
            if collecting:
                gc.enable()
        return statistics.median(times)
