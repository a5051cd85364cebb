"""Microbenchmarks for the engine hot path.

Two guards share one flood workload (long queues, many switches — the
regime where per-event costs dominate):

* **Hot-path speedup** — the optimised engine (run-structured queues,
  pool-owned residency, O(E) assigning) must stay at least ``MIN_SPEEDUP``×
  faster than the pre-optimisation reference implementation
  (:mod:`repro.simulation.reference`), with bit-identical results.
* **Pricing once per residency change** — a deterministic companion
  of the speedup floor: CoServe's request assigning prices a new
  expert group (:meth:`~repro.core.scheduler.LatencyPredictor.new_group_ms`)
  once per pool and processor kind when an expert is first decided and
  again only after that expert's residency changes, never per decision.
* **Eviction without a pool scan** — another: eviction policies hear
  of loads and evictions from the pools they listen to, so no eviction
  on CoServe or Samba-CoE builds a pool's resident snapshot or asks
  the context for its evictable residents.
* **Real migrations only** — every ``TierMigration`` event is a new
  copy in the host cache, one per insertion the cache reports.
* **Observer overhead** — the session path behind ``run()`` (typed
  events dispatched to the built-in metrics observer) must stay within
  ``MAX_OBSERVER_OVERHEAD`` of the preserved pre-redesign monolithic
  loop (:func:`repro.simulation.reference.preredesign_run`), again with
  bit-identical results.  This bounds the price of the observer hook
  surface on runs that only use the built-ins.
* **No event built for nobody** — its deterministic companion: with
  only the built-in metrics observer subscribed, the session builds
  exactly the events that observer reads (one per decision, batch and
  load) and none of the others.

Run with ``COSERVE_BENCH_FULL_SCALE=1`` for the full-size stream; the
default size keeps the checks quick enough for CI while the asymptotic
gap stays far above the asserted floors.
"""

from __future__ import annotations

import gc
import os
import time
from collections import Counter

import pytest

from recorder import record_bench_result
from repro.core.profiler import OfflineProfiler
from repro.core.scheduler import LatencyPredictor
from repro.hardware.presets import make_numa_device
from repro.policies.base import EvictionContext
from repro.serving import CoServeSystem, SambaCoESystem
from repro.serving.base import ServingSystem
from repro.simulation import session as session_module
from repro.simulation.engine import SimulationOptions
from repro.simulation.model_pool import ModelPool
from repro.simulation.reference import preredesign_run, referencify
from repro.workload.circuit_board import build_inspection_model, make_board
from repro.workload.generator import generate_request_stream

#: Required speedup of the optimised engine over the reference engine.
MIN_SPEEDUP = 3.0

#: Allowed slowdown of the session path (with its built-in observers)
#: over the pre-redesign inline-metrics loop: within 10 %.
MAX_OBSERVER_OVERHEAD = 1.10

#: Alternating timing rounds per path in the observer-overhead check.
OVERHEAD_ROUNDS = 5


def _full_scale() -> bool:
    return os.environ.get("COSERVE_BENCH_FULL_SCALE", "0") not in ("", "0", "false", "False")


@pytest.fixture(scope="module")
def hotpath_case():
    """Board, model, flood stream and profiled matrix for the benchmark.

    Quick mode serves 16k requests on the paper's NUMA configuration
    (3 GPU + 1 CPU executors); full scale serves 40k requests across
    8 executors.  Either way the asymptotic gap sits well above the
    asserted ``MIN_SPEEDUP`` floor (~4× measured), so normal timer
    noise cannot flake the check.
    """
    board = make_board("HP", component_types=220, detection_groups=22, detection_fraction=0.4)
    model = build_inspection_model(board)
    if _full_scale():
        num_requests, gpu_executors, cpu_executors = 40000, 6, 2
    else:
        num_requests, gpu_executors, cpu_executors = 16000, 3, 1
    # A sub-millisecond arrival interval floods the executors, so queue
    # lengths reach the thousands and O(n) queue operations dominate
    # the reference engine.
    stream = generate_request_stream(
        board,
        model,
        num_requests=num_requests,
        arrival_interval_ms=0.25,
        seed=17,
        name=f"hotpath-{num_requests}",
        order="shuffled",
    )
    usage = ServingSystem.usage_profile_from_stream(model, stream)
    device = make_numa_device()
    matrix = OfflineProfiler(device, model).build_performance_matrix()
    return device, model, stream, usage, matrix, gpu_executors, cpu_executors


def _build_simulation(hotpath_case):
    device, model, _, usage, matrix, gpu_executors, cpu_executors = hotpath_case
    system = CoServeSystem(
        device,
        model,
        usage,
        gpu_executors=gpu_executors,
        cpu_executors=cpu_executors,
        performance_matrix=matrix,
        scheduling_latency_ms=0.0,
        options=SimulationOptions(keep_request_records=False),
    )
    return system.build_simulation()


def _timed_run(simulation, stream):
    start = time.perf_counter()
    result = simulation.run(stream)
    return time.perf_counter() - start, result


def _best_of_two(build, stream):
    """Min-of-two timing on fresh engines, to damp scheduler/CPU noise."""
    first_elapsed, result = _timed_run(build(), stream)
    second_elapsed, second_result = _timed_run(build(), stream)
    assert result == second_result, "simulation is not deterministic across runs"
    return min(first_elapsed, second_elapsed), result


def test_engine_hotpath_speedup(hotpath_case):
    stream = hotpath_case[2]

    # Warm up interpreter/caches on a fresh engine so neither side pays
    # first-run costs inside the timed region.
    _timed_run(_build_simulation(hotpath_case), stream)

    fast_elapsed, fast_result = _best_of_two(lambda: _build_simulation(hotpath_case), stream)
    slow_elapsed, slow_result = _best_of_two(
        lambda: referencify(_build_simulation(hotpath_case)), stream
    )

    assert fast_result == slow_result, "optimised engine changed the simulated result"

    speedup = slow_elapsed / fast_elapsed
    print(
        f"\nengine hot path: reference {slow_elapsed * 1000:.0f} ms, "
        f"optimised {fast_elapsed * 1000:.0f} ms, speedup {speedup:.1f}x "
        f"({len(stream)} requests)"
    )
    record_bench_result(
        "engine_hotpath",
        {
            "num_requests": len(stream),
            "reference_seconds": round(slow_elapsed, 3),
            "optimised_seconds": round(fast_elapsed, 3),
            "speedup": round(speedup, 3),
            "min_speedup_asserted": MIN_SPEEDUP,
        },
    )
    assert speedup >= MIN_SPEEDUP, (
        f"hot-path speedup regressed: {speedup:.2f}x < {MIN_SPEEDUP}x "
        f"(reference {slow_elapsed:.3f}s, optimised {fast_elapsed:.3f}s)"
    )


def _build_samba_simulation(hotpath_case):
    device, model, _, usage, matrix, _, _ = hotpath_case
    system = SambaCoESystem(
        device,
        model,
        usage,
        performance_matrix=matrix,
        options=SimulationOptions(keep_request_records=False),
    )
    return system.build_simulation()


@pytest.mark.parametrize(
    "build", [_build_simulation, _build_samba_simulation], ids=["coserve", "samba-coe-lru"]
)
def test_eviction_never_scans_the_pool(hotpath_case, monkeypatch, build):
    """No eviction builds, reads or sorts a resident snapshot.

    Every eviction policy hears of each load and eviction from the pools
    it listens to, and the context carries the pool's live sizes view,
    so during ``run`` nothing calls :meth:`ModelPool.resident_expert_ids`
    or iterates what it returns, and neither CoServe's dependency-aware
    policy nor Samba-CoE's LRU calls :meth:`EvictionContext.evictable`.
    Building a snapshot per eviction (339 on CoServe and 4,882 on
    Samba-CoE on the 16k-request flood), or rebuilding the stages from
    one, fails these counts, which do not depend on timing.
    """
    stream = hotpath_case[2]
    simulation = build(hotpath_case)
    scans = Counter()

    class Snapshot(tuple):
        def __iter__(self):
            scans["snapshot_iterations"] += 1
            return super().__iter__()

        def __contains__(self, expert_id):
            scans["snapshot_membership_tests"] += 1
            return super().__contains__(expert_id)

    resident_expert_ids = ModelPool.resident_expert_ids
    evictable = EvictionContext.evictable

    def snapshot(pool):
        scans["resident_expert_ids_calls"] += 1
        return Snapshot(resident_expert_ids(pool))

    def counted_evictable(context):
        scans["evictable_calls"] += 1
        return evictable(context)

    monkeypatch.setattr(ModelPool, "resident_expert_ids", snapshot)
    monkeypatch.setattr(EvictionContext, "evictable", counted_evictable)
    notifications = _listen_to_residency(simulation)

    simulation.run(stream)

    evictions = notifications.by_hook["on_pool_evict"]
    print(f"\neviction scans: {dict(scans)} ({evictions} evictions)")
    assert evictions > 0, "the flood no longer evicts"
    assert dict(scans) == {}


def _counting(hook):
    def notified(self, source, expert_id) -> None:
        self.by_hook[hook] += 1

    return notified


class _ResidencyNotifications:
    """Counts pool and host-cache membership notifications, per hook."""

    def __init__(self) -> None:
        self.by_hook = Counter()

    on_pool_load = _counting("on_pool_load")
    on_pool_evict = _counting("on_pool_evict")
    on_host_cache_put = _counting("on_host_cache_put")
    on_host_cache_remove = _counting("on_host_cache_remove")


def _listen_to_residency(simulation):
    """A notification counter on every pool and the host cache of ``simulation``."""
    notifications = _ResidencyNotifications()
    for pool in {id(executor.pool): executor.pool for executor in simulation.executors}.values():
        pool.add_listener(notifications)
    simulation.host_cache.add_listener(notifications)
    return notifications


class _DecidedExperts:
    """Session observer collecting the expert of every scheduled stage job."""

    def __init__(self) -> None:
        self.expert_ids = set()

    def on_job_dispatch(self, event) -> None:
        self.expert_ids.add(event.job.expert_id)


def test_new_group_priced_once_per_residency_change(hotpath_case, monkeypatch):
    """Request assigning re-prices an expert only when its residency changes.

    A new group's price depends on which pools and host cache hold the
    expert, so each (pool, processor kind) group is priced when an
    expert is first decided and once more at most per membership
    notification.  Pricing per decision (about 35k calls against a
    bound of about 3k on the 16k-request flood) fails this count, which
    does not depend on timing.
    """
    stream = hotpath_case[2]
    simulation = _build_simulation(hotpath_case)
    calls = 0
    new_group_ms = LatencyPredictor.new_group_ms

    def counted(self, executor, record, expert_id):
        nonlocal calls
        calls += 1
        return new_group_ms(self, executor, record, expert_id)

    monkeypatch.setattr(LatencyPredictor, "new_group_ms", counted)
    notifications = _listen_to_residency(simulation)
    groups = len({(id(executor.pool), executor.kind) for executor in simulation.executors})
    decided = _DecidedExperts()

    result = simulation.run(stream, observers=[decided])

    notified = sum(notifications.by_hook.values())
    bound = groups * (len(decided.expert_ids) + notified)
    print(
        f"\nnew-group pricing: {calls} calls, bound {bound} ({groups} groups, "
        f"{len(decided.expert_ids)} experts decided, {notified} notifications, "
        f"{result.scheduling_decisions} decisions)"
    )
    assert result.scheduling_decisions > 4 * bound, "the flood no longer tells the two apart"
    assert 0 < calls <= bound


def _timed_call(run):
    gc.collect()
    start = time.perf_counter()
    result = run()
    return time.perf_counter() - start, result


def _interleaved_best(first_run, second_run, rounds):
    """Min-of-``rounds`` timing of two paths, alternating between them.

    Each call builds a fresh engine and starts from a freshly collected
    heap.  Alternating the paths puts both through the same stretch of
    machine load, so a burst of contention cannot land on the samples
    of one path only.
    """
    best = [float("inf"), float("inf")]
    results = [None, None]
    for _ in range(rounds):
        for index, run_once in enumerate((first_run, second_run)):
            elapsed, result = _timed_call(run_once)
            if results[index] is not None:
                assert result == results[index], "simulation is not deterministic across runs"
            results[index] = result
            best[index] = min(best[index], elapsed)
    return best, results


def test_session_observer_overhead(hotpath_case):
    """Session + built-in observers within 10 % of the pre-redesign loop.

    Both sides run the *optimised* engine on the 16k-request flood; the
    only difference is how metrics are collected — inline calls in the
    preserved monolithic loop versus typed events dispatched to the
    built-in metrics observer in the session.  Results must stay
    bit-identical, and the hook surface must not cost more than
    ``MAX_OBSERVER_OVERHEAD`` in wall-clock time.
    """
    stream = hotpath_case[2]

    # Warm up interpreter/caches on fresh engines for both paths.
    _timed_run(_build_simulation(hotpath_case), stream)
    preredesign_run(_build_simulation(hotpath_case), stream)

    (session_elapsed, preredesign_elapsed), (session_result, preredesign_result) = (
        _interleaved_best(
            lambda: _build_simulation(hotpath_case).run(stream),
            lambda: preredesign_run(_build_simulation(hotpath_case), stream),
            OVERHEAD_ROUNDS,
        )
    )

    assert session_result == preredesign_result, (
        "the session path changed the simulated result"
    )

    overhead = session_elapsed / preredesign_elapsed
    print(
        f"\nobserver overhead: pre-redesign loop {preredesign_elapsed * 1000:.0f} ms, "
        f"session {session_elapsed * 1000:.0f} ms, ratio {overhead:.3f}x "
        f"({len(stream)} requests)"
    )
    record_bench_result(
        "observer_overhead",
        {
            "num_requests": len(stream),
            "preredesign_seconds": round(preredesign_elapsed, 3),
            "session_seconds": round(session_elapsed, 3),
            "overhead_ratio": round(overhead, 3),
            "timing_rounds": OVERHEAD_ROUNDS,
            "max_overhead_asserted": MAX_OBSERVER_OVERHEAD,
        },
    )
    assert session_elapsed <= preredesign_elapsed * MAX_OBSERVER_OVERHEAD, (
        f"observer dispatch overhead regressed: {overhead:.3f}x > "
        f"{MAX_OBSERVER_OVERHEAD}x (pre-redesign {preredesign_elapsed:.3f}s, "
        f"session {session_elapsed:.3f}s)"
    )


#: Every event class the session constructs, by its name in
#: :mod:`repro.simulation.session`.
_SESSION_EVENTS = (
    "RequestArrival",
    "JobDispatch",
    "BatchStart",
    "ExpertLoad",
    "ExpertEvict",
    "TierMigration",
    "RequestCompletion",
    "SimulationFinish",
)


def test_unsubscribed_events_are_never_built(hotpath_case, monkeypatch):
    """Only the built-in metrics observer listens, so only its events exist.

    The built-in observer reads job dispatches, batch starts and expert
    loads; every other emission site must skip building its event
    behind an emptiness check.  Counting constructions through the
    session module's event names does not depend on timing, and the
    flood evicts and migrates experts, so the eviction and migration
    guards are reached.
    """
    stream = hotpath_case[2]
    simulation = _build_simulation(hotpath_case)
    built = Counter()
    for name in _SESSION_EVENTS:

        def counting(*args, _event_class=getattr(session_module, name), _name=name, **kwargs):
            built[_name] += 1
            return _event_class(*args, **kwargs)

        monkeypatch.setattr(session_module, name, counting)
    notifications = _listen_to_residency(simulation)

    result = simulation.run(stream)

    evictions = notifications.by_hook["on_pool_evict"]
    migrations = notifications.by_hook["on_host_cache_put"]
    print(f"\nevents built: {dict(built)} ({evictions} evictions, {migrations} migrations)")
    assert evictions > 0 and migrations > 0, "the flood no longer evicts and migrates"
    assert dict(built) == {
        "JobDispatch": result.scheduling_decisions,
        "BatchStart": sum(executor.batches_executed for executor in result.executors),
        "ExpertLoad": result.expert_loads,
    }


class _TierMigrations:
    """Session observer counting ``TierMigration`` events."""

    def __init__(self) -> None:
        self.count = 0

    def on_tier_migration(self, event) -> None:
        self.count += 1


def test_tier_migrations_are_host_cache_insertions(hotpath_case):
    """One ``TierMigration`` per new copy the host cache stores.

    An evicted expert the host cache already holds only refreshes its
    recency there: nothing migrates, and no event may say otherwise.
    On the 16k-request flood 16 of the evictions are such refreshes.
    """
    stream = hotpath_case[2]
    simulation = _build_simulation(hotpath_case)
    notifications = _listen_to_residency(simulation)
    migrations = _TierMigrations()

    simulation.run(stream, observers=[migrations])

    insertions = notifications.by_hook["on_host_cache_put"]
    print(f"\ntier migrations: {migrations.count} events, {insertions} host-cache insertions")
    assert insertions > 0, "the flood no longer migrates"
    assert migrations.count == insertions
