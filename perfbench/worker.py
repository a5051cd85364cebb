"""Sweep worker started through the benchmark's own entry point.

Runs ``repro.sweeps.worker`` unchanged, optionally with the benchmark's
tracer installed, and on exit (the coordinator sends SIGTERM) writes a
pickled report — peak resident memory plus, when traced, the tracer's
spans and samples — to ``--report`` for the coordinator to merge::

    python3 perfbench/worker.py --report perfbench/out/worker.pkl [--trace]
"""

from __future__ import annotations

import argparse
import os
import pickle
import resource
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def _stop(signum, frame) -> None:
    raise SystemExit(0)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", required=True, help="Where to write the exit report.")
    parser.add_argument("--trace", action="store_true", help="Record spans and per-call samples.")
    arguments = parser.parse_args()

    tracer = None
    if arguments.trace:
        from tracing import Tracer, instrument

        tracer = Tracer()
        instrument(tracer)
    signal.signal(signal.SIGTERM, _stop)
    from repro.sweeps.worker import main as worker_main

    try:
        return worker_main(["--host", "127.0.0.1", "--port", "0"])
    finally:
        report = {
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "trace": tracer.export() if tracer is not None else None,
        }
        partial = arguments.report + ".part"
        with open(partial, "wb") as handle:
            pickle.dump(report, handle)
        os.replace(partial, arguments.report)


if __name__ == "__main__":
    sys.exit(main())
