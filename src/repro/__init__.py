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
* the CoServe core techniques — dependency-aware request scheduling,
  dependency-aware expert management, memory allocation and the offline
  profiler (``repro.core``),
* complete serving systems, including the Samba-CoE baselines
  (``repro.serving``),
* metric collection (``repro.metrics``) and the per-figure experiment
  harness (``repro.experiments``).
"""

__version__ = "1.0.0"
