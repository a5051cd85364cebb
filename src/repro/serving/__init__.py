"""Complete CoE serving systems.

This subpackage assembles devices, the CoE model, policies and memory
configurations into runnable serving systems:

* :class:`SambaCoESystem` — the Samba-CoE baseline and its FIFO and
  Parallel variants (§5.1);
* :class:`CoServeSystem` — CoServe with its Best / Casual
  configurations and the ablation variants None / EM / EM+RA (§5.2,
  §5.3);
* :func:`build_system` — a name-based factory used by the experiment
  harness;
* :func:`~repro.serving.layout.deployment_layout` — the one memory
  layout every system deploys through (executor budgets, pool splits,
  the NUMA host cache);
* :mod:`repro.serving.tuning` — the offline searches for the number of
  executors (Figure 17) and the memory allocation (Figure 18).
"""

from repro.serving.base import ServingResult, ServingSystem
from repro.serving.samba_coe import SambaCoESystem
from repro.serving.coserve import CoServeSystem
from repro.serving.factory import SYSTEM_NAMES, build_system

__all__ = [
    "ServingResult",
    "ServingSystem",
    "SambaCoESystem",
    "CoServeSystem",
    "SYSTEM_NAMES",
    "build_system",
]
