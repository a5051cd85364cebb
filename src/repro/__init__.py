"""CoServe reproduction library.

This package reproduces the system described in "CoServe: Efficient
Collaboration-of-Experts (CoE) Model Inference with Limited Memory"
(ASPLOS 2025).  It contains:

* simulated hardware substrates (``repro.hardware``),
* analytical expert models (``repro.experts``),
* the CoE model abstraction with routing and expert dependencies
  (``repro.coe``),
* intelligent-manufacturing workload generators (``repro.workload``),
* a deterministic discrete-event serving simulator (``repro.simulation``),
* expert replacement policies (``repro.policies``),
* the Samba-CoE baselines' request scheduling, first-come-first-served
  and round-robin (``repro.scheduling``),
* the CoServe core techniques — dependency-aware request scheduling,
  dependency-aware expert management, memory allocation and the offline
  profiler (``repro.core``),
* complete serving systems, including the Samba-CoE baselines
  (``repro.serving``),
* metric collection (``repro.metrics``),
* declarative sweep grids run serially, on a process pool or on worker
  hosts, with an on-disk cell cache and planned sweeps
  (``repro.sweeps``),
* the analytical queueing surrogate that scores sweep cells without
  simulating them (``repro.surrogate``),
* the paper's published figure values, for comparison
  (``repro.analysis``),
* the per-figure experiment harness (``repro.experiments``), and
* the ``coserve-lint`` invariant analyser for this codebase
  (``repro.lint``).
"""

__version__ = "1.0.0"
