"""Deterministic discrete-event serving simulator.

This subpackage plays the role of the physical serving deployment in
the paper: inference executors bound to the device's GPU and CPU, each
with a model pool and a request queue, processing batches in virtual
time while contending for shared compute and I/O resources.

The simulator is policy-agnostic: a scheduling policy decides which
executor a request goes to, where it sits in the queue and how large a
batch may be; an eviction policy decides which resident experts to
evict when a new expert must be loaded.  The Samba-CoE baselines and
CoServe differ *only* in the policies and configurations they plug into
this engine, which is what makes the ablation studies meaningful.

The primary serving API is the steppable :class:`SimulationSession`:
``step()`` / ``run_until()`` / ``events()`` advance a configured
:class:`ServingSimulation` through one request stream while typed
:class:`SimEvent` hooks (:class:`SimObserver`) feed metric collection,
timeline recording, SLO monitoring and custom scenarios.  ``step()``,
``run_until()`` and ``run()`` all drive the session's one event loop,
bounded by a deadline or by a single event.
``ServingSimulation.run()`` remains as a compatibility shim that drives
a session with the built-in metrics observer.
"""

from repro.simulation.request import SimRequest, StageJob, StageRecord
from repro.simulation.queueing import RequestQueue
from repro.simulation.model_pool import ModelPool
from repro.simulation.host_cache import HostCache
from repro.simulation.residency import ResidencyIndex
from repro.simulation.resources import SerialResource
from repro.simulation.executor import Executor, ExecutorConfig
from repro.simulation.interfaces import SchedulingPolicy
from repro.simulation.results import ExecutorSummary, SimulationResult
from repro.simulation.session import (
    BatchStart,
    ExpertEvict,
    ExpertLoad,
    JobDispatch,
    RequestArrival,
    RequestCompletion,
    SimEvent,
    SimObserver,
    SimulationAborted,
    SimulationError,
    SimulationFinish,
    SimulationSession,
    TierMigration,
)
from repro.simulation.slo import SLOMonitor
from repro.simulation.engine import ServingSimulation, SimulationOptions

__all__ = [
    "SimRequest",
    "StageJob",
    "StageRecord",
    "RequestQueue",
    "ModelPool",
    "HostCache",
    "ResidencyIndex",
    "SerialResource",
    "Executor",
    "ExecutorConfig",
    "SchedulingPolicy",
    "ExecutorSummary",
    "SimulationResult",
    "SimulationSession",
    "SimObserver",
    "SimEvent",
    "RequestArrival",
    "JobDispatch",
    "BatchStart",
    "ExpertLoad",
    "ExpertEvict",
    "TierMigration",
    "RequestCompletion",
    "SimulationFinish",
    "SLOMonitor",
    "ServingSimulation",
    "SimulationError",
    "SimulationAborted",
    "SimulationOptions",
]
