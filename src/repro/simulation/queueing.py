"""Per-executor request queues.

The queue supports the operations the paper's scheduling strategies
need:

* plain FCFS append (Samba-CoE),
* insertion *after the last job using the same expert* (CoServe's
  request arranging, §4.2 / Figure 9),
* popping the head run of same-expert jobs up to a batch-size limit
  (the batch splitter), and
* cheap bookkeeping of which experts have queued jobs and of the
  predicted total inference time of the queue (used by request
  assigning, §4.2 / Figure 8).

Internally the queue is *run-structured*: instead of one flat job list
it keeps a deque of :class:`_Run` objects, each holding the consecutive
jobs that share one expert, plus an expert → last-run map.  The hot
operations are then all O(1) amortised:

* :meth:`append` merges into the tail run or starts a new one,
* :meth:`insert_grouped` (request arranging) appends to the expert's
  last run directly instead of scanning for an insertion index, and
* :meth:`pop_head_run` pops jobs off the head run without shifting the
  rest of the queue (the flat-list version paid O(n) per ``pop(0)``).

An invariant maintained by every mutation is that no two adjacent runs
share an expert, so the head run is exactly the maximal same-expert
prefix the batch splitter wants.  The index-based helpers
(:meth:`insert`, :meth:`index_after_last`) are kept for compatibility
and for custom scheduling policies; they cost O(n) and are not used by
the engine's hot path.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Deque, Dict, Iterator, List, Optional, Tuple

from repro.simulation.request import StageJob


class _Run:
    """A maximal block of consecutive queued jobs sharing one expert."""

    __slots__ = ("expert_id", "jobs")

    def __init__(self, expert_id: str) -> None:
        self.expert_id = expert_id
        self.jobs: Deque[StageJob] = deque()


class RequestQueue:
    """An ordered queue of stage jobs with expert-aware helpers."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._runs: Deque[_Run] = deque()
        #: expert_id -> the tail-most run holding that expert.
        self._last_run: Dict[str, _Run] = {}
        #: expert_id -> number of queued jobs using it, and the sum of
        #: the queued jobs' predicted additional latency.  Plain
        #: attributes, read-only outside the queue: request assigning
        #: reads both for every executor of every decision.
        self.queued_experts: Counter = Counter()
        self.pending_latency_ms = 0.0
        self._size = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[StageJob]:
        for run in self._runs:
            yield from run.jobs

    @property
    def is_empty(self) -> bool:
        return self._size == 0

    @property
    def jobs(self) -> Tuple[StageJob, ...]:
        """A read-only snapshot of the queued jobs."""
        return tuple(self)

    @property
    def run_count(self) -> int:
        """Number of same-expert runs currently in the queue."""
        return len(self._runs)

    def contains_expert(self, expert_id: str) -> bool:
        """Whether any queued job requires the expert."""
        return expert_id in self.queued_experts

    def head_expert_id(self) -> Optional[str]:
        """Expert required by the job at the head of the queue."""
        if not self._runs:
            return None
        return self._runs[0].expert_id

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _account_insert(self, job: StageJob) -> None:
        self.queued_experts[job.expert_id] += 1
        self.pending_latency_ms += job.predicted_latency_ms
        self._size += 1

    def append(self, job: StageJob) -> int:
        """Append a job at the tail; returns its index.  O(1)."""
        expert_id = job.expert_id
        runs = self._runs
        tail = runs[-1] if runs else None
        if tail is not None and tail.expert_id == expert_id:
            tail.jobs.append(job)
        else:
            run = _Run(expert_id)
            run.jobs.append(job)
            runs.append(run)
            self._last_run[expert_id] = run
        # _account_insert, inlined: append runs once per enqueued job.
        self.queued_experts[expert_id] += 1
        self.pending_latency_ms += job.predicted_latency_ms
        self._size += 1
        return self._size - 1

    def insert_grouped(self, job: StageJob) -> None:
        """Insert the job right after the last queued same-expert job.

        This is CoServe's request arranging (§4.2 / Figure 9) as a
        single O(1) operation: the job joins the tail of its expert's
        last run, or the tail of the queue when no queued job uses the
        expert yet.
        """
        expert_id = job.expert_id
        run = self._last_run.get(expert_id)
        if run is None:
            self.append(job)
            return
        run.jobs.append(job)
        # _account_insert, inlined: request arranging inserts every CoServe
        # stage job here.
        self.queued_experts[expert_id] += 1
        self.pending_latency_ms += job.predicted_latency_ms
        self._size += 1

    def insert(self, index: int, job: StageJob) -> int:
        """Insert a job at an arbitrary index and update bookkeeping.

        Compatibility path for index-based policies and tests; costs
        O(n) because the run structure is rebuilt.  The engine's hot
        path uses :meth:`append` / :meth:`insert_grouped` instead.
        """
        if index < 0 or index > self._size:
            raise IndexError(f"insertion index {index} out of range for queue of {self._size}")
        flat: List[StageJob] = list(self)
        flat.insert(index, job)
        self._rebuild(flat)
        self._account_insert(job)
        return index

    def _rebuild(self, flat: List[StageJob]) -> None:
        """Rebuild the run structure from a flat job list."""
        self._runs = deque()
        self._last_run = {}
        current: Optional[_Run] = None
        for job in flat:
            if current is None or current.expert_id != job.expert_id:
                current = _Run(job.expert_id)
                self._runs.append(current)
                self._last_run[job.expert_id] = current
            current.jobs.append(job)

    def index_after_last(self, expert_id: str) -> Optional[int]:
        """Index just after the last queued job using ``expert_id``.

        Returns ``None`` when no queued job uses the expert.  Kept for
        compatibility with index-based insertion; costs O(runs).  The
        engine groups same-expert requests with :meth:`insert_grouped`
        instead.
        """
        last = self._last_run.get(expert_id)
        if last is None:
            return None
        position = 0
        for run in self._runs:
            position += len(run.jobs)
            if run is last:
                return position
        raise RuntimeError(  # pragma: no cover - invariant violation
            f"queue '{self.name}' lost track of the last run for expert '{expert_id}'"
        )

    def pop_head_run(self, max_count: int) -> List[StageJob]:
        """Pop the head run of consecutive jobs sharing the head expert.

        At most ``max_count`` jobs are popped; this implements the batch
        splitter's view of the queue (Figure 9, right half).
        """
        if max_count <= 0:
            raise ValueError("max_count must be positive")
        if not self._runs:
            return []
        head = self._runs[0]
        jobs = head.jobs
        # Every job in a run shares the run's expert by construction,
        # so the per-job bookkeeping batches: one count update, one
        # size update, and the pending-latency walk is skipped outright
        # when nothing is pending (the default-policy case, where every
        # predicted latency is zero — the final clamp makes that
        # shortcut exact).
        if max_count < len(jobs):
            popleft = jobs.popleft
            run = [popleft() for _ in range(max_count)]
        else:
            run = list(jobs)
            jobs.clear()
            self._runs.popleft()
            if self._last_run.get(head.expert_id) is head:
                del self._last_run[head.expert_id]
        expert_id = head.expert_id
        counts = self.queued_experts
        remaining = counts[expert_id] - len(run)
        if remaining <= 0:
            del counts[expert_id]
        else:
            counts[expert_id] = remaining
        self._size -= len(run)
        pending = self.pending_latency_ms
        if pending:
            for job in run:
                pending -= job.predicted_latency_ms
            if pending < 0:
                # The running sum accumulates float error as jobs come
                # and go; the true pending latency can never be negative.
                pending = 0.0
            self.pending_latency_ms = pending
        return run

    def clear(self) -> None:
        self._runs.clear()
        self._last_run.clear()
        self.queued_experts.clear()
        self.pending_latency_ms = 0.0
        self._size = 0
