"""On-disk cache of executed sweep cells.

Regenerating the paper's figures runs the same (system, device, task,
overrides) cells over and over — across CLI invocations, across
processes, across figure subsets.  A :class:`SweepCache` persists each
cell's :class:`~repro.simulation.results.SimulationResult` under a key
derived from the cell identity *and* a fingerprint of the evaluation
settings, so a repeated regeneration skips every already-simulated cell
while a change to any knob that affects results (request counts, seed,
full-scale mode, …) transparently misses.

Layout: one pickle per cell, named ``<sha256>.pkl`` inside the cache
directory.  Writes go through a temporary file and ``os.replace`` so
concurrent regenerations on the same directory never observe a torn
entry; payloads carry the cell key and fingerprint and are verified on
load, so a corrupt or foreign file degrades to a miss, never a wrong
result.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
from typing import TYPE_CHECKING, Optional, Tuple

from repro.sweeps.spec import SweepCell

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.base import EvaluationSettings
    from repro.simulation.results import SimulationResult
    from repro.surrogate.model import SurrogateEstimate

#: ``abort_reason`` prefix of placeholder results the surrogate pruned
#: in lieu of simulating.  Defined here so the cache can refuse to
#: persist them (placeholders are predictions, not results) without
#: importing the runner.
PRUNED_ABORT_PREFIX = "pruned by surrogate"

#: Bump when the cached payload layout (or anything influencing results
#: that is not captured by the settings fingerprint) changes.
#: 2: ``SimulationResult`` grew ``aborted``/``abort_reason`` (sweep-level
#: early aborts); entries pickled under the old layout must miss.
#: 3: payloads carry the cell's surrogate ``estimate`` (two-stage pruned
#: sweeps persist predictions next to results; pruned placeholders are
#: never cached, so every entry remains a genuinely simulated cell).
CACHE_FORMAT_VERSION = 3

#: Settings fields that only *select* which cells a grid contains; a
#: cell's simulated result depends on its own (system, device, task,
#: overrides) coordinates, so these must not invalidate cached cells
#: (running ``--tasks A1`` then ``--tasks A1 A2`` reuses every A1 cell).
#: Any field not listed here is treated as result-affecting, so new
#: settings knobs default to the safe direction (invalidation).
_SELECTION_ONLY_FIELDS = frozenset({"devices", "task_names"})


def settings_fingerprint(settings: "EvaluationSettings") -> str:
    """A stable digest of everything the settings contribute to results."""
    fields = {
        name: value
        for name, value in dataclasses.asdict(settings).items()
        if name not in _SELECTION_ONLY_FIELDS
    }
    payload = {"format": CACHE_FORMAT_VERSION, "settings": fields}
    encoded = json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


class SweepCache:
    """A directory of sweep-cell results keyed by identity + settings.

    The cache doubles as the *shared result store* of distributed
    sweeps: when the coordinator and its ``coserve-sweep-worker``
    processes see the same directory (localhost workers, or a shared
    filesystem), workers write each executed cell and the coordinator —
    like any later regeneration — verifies entries on load, so a torn,
    corrupt or foreign file degrades to a miss, never a wrong row.

    Parameters
    ----------
    directory:
        Where entries live; created if missing.
    settings:
        The evaluation settings of the sweep.  Cells simulated under
        different settings never collide — the fingerprint is part of
        every key.
    fingerprint:
        Precomputed settings fingerprint, instead of ``settings``.  The
        distributed coordinator sends workers its own fingerprint so
        every participant keys the shared store byte-identically, even
        across interpreter versions that might serialise settings
        differently.
    """

    def __init__(
        self,
        directory: str,
        settings: Optional["EvaluationSettings"] = None,
        fingerprint: Optional[str] = None,
    ) -> None:
        if (settings is None) == (fingerprint is None):
            raise ValueError("pass exactly one of settings or fingerprint")
        self.directory = str(directory)
        self.fingerprint = fingerprint if fingerprint is not None else settings_fingerprint(settings)
        os.makedirs(self.directory, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    # ------------------------------------------------------------------
    def key_for(self, cell: SweepCell) -> str:
        """The sha256 entry key of a cell (settings fingerprint + identity)."""
        digest = hashlib.sha256()
        digest.update(self.fingerprint.encode("utf-8"))
        digest.update(cell.identity_token().encode("utf-8"))
        return digest.hexdigest()

    def path_for(self, cell: SweepCell) -> str:
        """Absolute path of the cell's entry file inside the cache directory."""
        return os.path.join(self.directory, self.key_for(cell) + ".pkl")

    def has(self, cell: SweepCell) -> bool:
        """Whether an entry file exists for the cell (without reading it).

        Cheaper than :meth:`load` when the caller only wants to avoid a
        redundant :meth:`store` — e.g. the distributed coordinator
        skipping cells its workers already persisted to a shared
        directory.  Existence does not imply validity; readers still
        verify on load.
        """
        return os.path.exists(self.path_for(cell))

    def __len__(self) -> int:
        return sum(1 for name in os.listdir(self.directory) if name.endswith(".pkl"))

    # ------------------------------------------------------------------
    def load(self, cell: SweepCell) -> Optional["SimulationResult"]:
        """The cached result for a cell, or None on any kind of miss."""
        entry = self.load_entry(cell)
        return entry[0] if entry is not None else None

    def load_entry(
        self, cell: SweepCell
    ) -> Optional[Tuple["SimulationResult", Optional["SurrogateEstimate"]]]:
        """The cached ``(result, estimate)`` pair, or None on any miss.

        The estimate slot is None for cells executed by a sweep that
        never scored them (pruning disabled) — the payload always has
        the key, the surrogate just may not have run.
        """
        path = self.path_for(cell)
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            # Unpickling arbitrary corrupt bytes can raise nearly
            # anything (ValueError, KeyError, UnicodeDecodeError, ...);
            # any unreadable entry degrades to a miss, never a crash.
            self.misses += 1
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("cell_key") != cell.key
            or payload.get("fingerprint") != self.fingerprint
        ):
            self.misses += 1
            return None
        self.hits += 1
        return payload["result"], payload.get("estimate")

    def store(
        self,
        cell: SweepCell,
        result: "SimulationResult",
        estimate: Optional["SurrogateEstimate"] = None,
    ) -> None:
        """Persist one cell's result (atomic, last writer wins).

        ``estimate`` carries the surrogate prediction of a two-stage
        sweep so later regenerations can surface predicted-vs-simulated
        deltas without re-scoring.  Only genuinely simulated,
        request-stripped results (what :func:`~repro.sweeps.runner.execute_cell`
        returns by default) are cacheable: a pruned placeholder, or a
        result carrying per-request records, raises ``ValueError``.
        """
        if result.aborted and result.abort_reason and result.abort_reason.startswith(
            PRUNED_ABORT_PREFIX
        ):
            raise ValueError(
                f"refusing to cache surrogate-pruned placeholder for {cell.label()}; "
                "the cache must only ever hold simulated results"
            )
        if result.requests:
            # A request-laden entry would be served to every later
            # stripped run under the same fingerprint.
            raise ValueError(
                f"refusing to cache {cell.label()} with per-request records; "
                "the cache stores request-stripped results"
            )
        path = self.path_for(cell)
        payload = {
            "cell_key": cell.key,
            "fingerprint": self.fingerprint,
            "result": result,
            "estimate": estimate,
        }
        temporary = f"{path}.tmp.{os.getpid()}"
        with open(temporary, "wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(temporary, path)
        self.stores += 1
