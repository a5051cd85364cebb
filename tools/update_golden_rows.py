"""Rewrite ``tests/golden_rows.json``, the digests of every experiment's rows.

The file holds one sha256 per experiment of its ``--format json``
payload in this regeneration, the 150-request run of the row-preserving
A/B that compares a change's stdout with its parent's::

    coserve-experiments --all --requests 150 --devices numa uma --tasks A1 A2 --seed 7 --format json

together with the ``CACHE_FORMAT_VERSION`` (``repro.sweeps.cache``) the
rows were made under.  ``tests/test_golden_rows.py`` rebuilds the rows
and names every experiment whose digest differs.

A change that alters rows on purpose bumps ``CACHE_FORMAT_VERSION``, so
that sweep-cache entries holding the old rows stop matching, and then
reruns this script.  While the recorded version equals the current one,
the script refuses to change any digest and exits 1.

Usage::

    PYTHONPATH=src python tools/update_golden_rows.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict

from repro.experiments import EXPERIMENTS
from repro.experiments.base import EvaluationSettings
from repro.experiments.cli import run_experiments
from repro.sweeps.cache import CACHE_FORMAT_VERSION

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "tests" / "golden_rows.json"

SETTINGS = EvaluationSettings(
    reduced_requests=150, devices=("numa", "uma"), task_names=("A1", "A2"), seed=7
)


def row_digests() -> Dict[str, str]:
    """Regenerate every experiment at :data:`SETTINGS`; sha256 of each JSON payload."""
    outcomes = run_experiments(sorted(EXPERIMENTS), SETTINGS)
    return {
        name: hashlib.sha256(result.to_json().encode("utf-8")).hexdigest()
        for name, result, _ in outcomes
    }


def main() -> int:
    digests = row_digests()
    if GOLDEN_PATH.exists():
        recorded = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        changed = sorted(
            name
            for name, digest in digests.items()
            if recorded["digests"].get(name, digest) != digest
        )
        if changed and recorded["cache_format_version"] == CACHE_FORMAT_VERSION:
            print(
                f"refusing to change the digests of {', '.join(changed)}: "
                f"CACHE_FORMAT_VERSION is still {CACHE_FORMAT_VERSION}. Bump it in "
                "src/repro/sweeps/cache.py so cached cells holding the old rows "
                "stop matching, then rerun.",
                file=sys.stderr,
            )
            return 1
    golden = {"cache_format_version": CACHE_FORMAT_VERSION, "digests": digests}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
