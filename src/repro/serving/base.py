"""Base class shared by every serving system.

A concrete system chooses its executor counts, the expert pool each
executor asks for and its policies; :meth:`ServingSystem._deploy` then
lays the deployment out with :func:`~repro.serving.layout.deployment_layout`,
builds the simulation and runs the initialisation preloads (§4.1), the
same way for every system.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence

from repro.coe.model import CoEModel
from repro.coe.probability import UsageProfile, compute_usage_profile
from repro.core.config import PerformanceMatrix
from repro.core.initializer import host_cache_preload_plan, round_robin_preload_plan
from repro.core.profiler import OfflineProfiler
from repro.hardware.device import Device
from repro.policies.base import EvictionPolicy
from repro.serving.layout import PoolRequest, deployment_layout, whole_budget
from repro.simulation.engine import ServingSimulation, SimulationOptions
from repro.simulation.interfaces import SchedulingPolicy
from repro.simulation.results import SimulationResult
from repro.simulation.session import SimulationSession
from repro.workload.generator import RequestStreamLike

#: The result type returned by :meth:`ServingSystem.serve`.
ServingResult = SimulationResult


class ServingSystem(abc.ABC):
    """A CoE serving system bound to a device and a CoE model.

    Concrete systems differ in their executor counts, the expert pool
    each executor asks for, scheduling and eviction; they all lay their
    memory out the same way and serve request streams through the same
    discrete-event engine, so their results are directly comparable.
    """

    #: Human-readable system name used in reports (overridden per instance).
    name: str = "serving-system"

    def __init__(
        self,
        device: Device,
        model: CoEModel,
        usage_profile: Optional[UsageProfile],
        performance_matrix: Optional[PerformanceMatrix],
        options: Optional[SimulationOptions],
        gpu_executors: int,
        cpu_executors: int,
    ) -> None:
        if gpu_executors < 1:
            raise ValueError("a serving system needs at least one GPU executor")
        if cpu_executors < 0:
            raise ValueError("cpu_executors must be non-negative")
        self.device = device
        self.model = model
        self.usage_profile = usage_profile or self._default_usage_profile()
        #: The offline profiler's matrix; profiled on first use if None.
        self.performance_matrix = performance_matrix
        self.options = options or SimulationOptions()
        self.gpu_executors = gpu_executors
        self.cpu_executors = cpu_executors

    def _default_usage_profile(self) -> UsageProfile:
        """Uniform usage probabilities when no profile is supplied."""
        uniform = {expert_id: 1.0 / len(self.model) for expert_id in self.model.expert_ids}
        return UsageProfile(uniform)

    @classmethod
    def usage_profile_from_stream(cls, model: CoEModel, stream: RequestStreamLike) -> UsageProfile:
        """Pre-assess usage probabilities from a representative stream.

        This mirrors §4.5's empirical procedure: run the routing on a
        sample dataset and record which experts each request visits.
        """
        category_weights = {name: float(count) for name, count in stream.category_counts().items()}
        return compute_usage_profile(model, category_weights)

    # ------------------------------------------------------------------
    # Interface
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def build_simulation(self) -> ServingSimulation:
        """Choose the pool requests and policies of one run, then :meth:`_deploy`."""

    def _matrix(self) -> PerformanceMatrix:
        if self.performance_matrix is None:
            profiler = OfflineProfiler(self.device, self.model)
            self.performance_matrix = profiler.build_performance_matrix()
        return self.performance_matrix

    def _deploy(
        self,
        scheduling_policy: SchedulingPolicy,
        eviction_policy: EvictionPolicy,
        gpu_pool: PoolRequest = whole_budget,
        cpu_pool: PoolRequest = whole_budget,
        preload_host_cache: bool = True,
    ) -> ServingSimulation:
        """Lay the deployment out, build its simulation and preload it (§4.1).

        Executor pools are filled round-robin by descending usage
        probability; then, if ``preload_host_cache``, the NUMA host
        cache stages the most-used experts no pool holds.
        """
        layout = deployment_layout(
            self.device, self.model, self._matrix(), self.gpu_executors, self.cpu_executors,
            gpu_pool, cpu_pool,
        )
        simulation = ServingSimulation(
            device=self.device,
            model=self.model,
            executor_configs=layout.executor_configs,
            scheduling_policy=scheduling_policy,
            eviction_policy=eviction_policy,
            host_cache_bytes=layout.host_cache_bytes,
            options=self.options,
            system_name=self.name,
        )
        plan = round_robin_preload_plan(layout.executor_configs, self.model, self.usage_profile)
        simulation.preload(plan)
        if preload_host_cache and layout.host_cache_bytes > 0:
            already_resident = {expert for experts in plan.values() for expert in experts}
            cache_plan = host_cache_preload_plan(
                layout.host_cache_bytes, self.model, self.usage_profile, exclude=already_resident
            )
            simulation.preload_host_cache(cache_plan)
        return simulation

    def session(
        self, stream: RequestStreamLike, observers: Sequence[object] = ()
    ) -> SimulationSession:
        """Open a steppable session serving ``stream`` on a fresh deployment.

        The session API (``step`` / ``run_until`` / ``events`` plus the
        ``SimObserver`` hooks) is the primary way to drive the engine;
        :meth:`serve` is the run-to-completion shim over it.  ``stream``
        may be an eager :class:`~repro.workload.generator.RequestStream`
        or a :class:`~repro.workload.generator.LazyRequestStream` (the
        long-production-shift form — specs realised on demand).
        """
        return self.build_simulation().session(stream, observers=observers)

    def serve(
        self, stream: RequestStreamLike, observers: Sequence[object] = ()
    ) -> ServingResult:
        """Serve a request stream to completion and return the result."""
        return self.session(stream, observers=observers).run()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r}, device={self.device.name!r})"
