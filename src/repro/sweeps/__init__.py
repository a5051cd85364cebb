"""Declarative sweep grids and the pluggable experiment runner.

The paper's figures replay hundreds of independent (system, device,
task, overrides) simulations.  This package turns that replay into
data:

- :class:`SweepCell` / :class:`SweepGrid` declare *what* to simulate;
- :class:`SweepRunner` executes a grid behind the
  :class:`SweepExecutor` strategy interface — in-process
  (:class:`SerialExecutor`), across a local process pool
  (:class:`ProcessPoolExecutor`, the CLI's ``--jobs N``), or sharded
  over worker hosts (:class:`DistributedExecutor`, the CLI's
  ``--hosts``) — and streams ``(cell, result)`` pairs through
  ``run_iter`` as they complete;
- :class:`SweepResults` stores outcomes keyed by cell so every figure
  assembles its rows from one shared, deduplicated execution —
  byte-identical whichever executor ran it;
- :class:`SweepCache` persists executed cells on disk, keyed by cell
  identity plus a settings fingerprint, so repeated regenerations skip
  already-simulated cells across processes and invocations; it doubles
  as the shared result store of distributed sweeps (workers write, the
  coordinator verifies-on-load).

Planned sweeps (``SweepRunner(plan=HalvingConfig(...))``, or the
``prune_fraction`` shorthand for a one-shot cut) insert the
:mod:`repro.sweeps.halving` rung ladder between the cache and the
executor: :mod:`repro.surrogate`'s queueing model scores every missing
cell analytically, optional measured low-fidelity rungs (reduced
``num_requests`` overrides) re-rank survivors and recalibrate the
surrogate, and only the finalists pay for full simulation —
byte-identical to an exhaustive run.  Dropped cells keep aborted
placeholder results, never cached.  A one-shot cut is the plan with
``rungs=1``; :class:`HalvingRunner` is a runner whose plan defaults to
a two-rung ladder.  Sample cells (a ``sample_requests`` override: the
offline tuning replays of Figures 17 and 18) are never planned; the
runner executes them as they are.

The distributed worker process lives in :mod:`repro.sweeps.worker`
(console script ``coserve-sweep-worker``); ``docs/sweeps.md`` has a
runnable multi-host walkthrough.
"""

from repro.sweeps.spec import FIDELITY_OVERRIDE_KEY, SweepCell, SweepGrid
from repro.sweeps.cache import PRUNED_ABORT_PREFIX, SweepCache, settings_fingerprint
from repro.sweeps.halving import HalvingConfig, RungPlan
from repro.sweeps.results import SweepResults
from repro.sweeps.runner import (
    HalvingRunner,
    ProcessPoolExecutor,
    SerialExecutor,
    SweepExecutor,
    SweepRunner,
    batch_cells,
    ensure_results,
    execute_cell,
)
from repro.sweeps.distributed import DistributedExecutor, parse_hosts

__all__ = [
    "DistributedExecutor",
    "FIDELITY_OVERRIDE_KEY",
    "HalvingConfig",
    "HalvingRunner",
    "PRUNED_ABORT_PREFIX",
    "ProcessPoolExecutor",
    "RungPlan",
    "SerialExecutor",
    "SweepCell",
    "SweepExecutor",
    "SweepGrid",
    "SweepCache",
    "SweepResults",
    "SweepRunner",
    "batch_cells",
    "ensure_results",
    "execute_cell",
    "parse_hosts",
    "settings_fingerprint",
]
