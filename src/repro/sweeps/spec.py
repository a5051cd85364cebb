"""Declarative sweep specifications.

A :class:`SweepCell` names one serving simulation — a (system, device,
task, serve-overrides) point of the evaluation grid — without running
it.  A :class:`SweepGrid` is an ordered, duplicate-free collection of
cells; experiment modules declare their grid, and grids from several
experiments are unioned before execution so shared cells (Figures 13
and 14 serve the exact same 40 runs, as do Figures 15 and 16) are
simulated once.

Cells are identified by ``(system, device, task, overrides)``; the
``pin`` field exempts a cell from surrogate pruning and is excluded
from identity, so the union keeps any pin instead of duplicating work.
Both classes are frozen dataclasses built from tuples, which keeps them
hashable and picklable — a requirement for shipping grids to
:class:`~repro.sweeps.runner.SweepRunner` worker processes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

#: Identity of a cell: everything that affects the simulated result.
CellKey = Tuple[str, str, str, Tuple[Tuple[str, object], ...]]

#: Override key carrying a cell's simulated request count (its
#: *fidelity*).  Consumed by the runner — the count reshapes the request
#: stream instead of reaching the system constructor — but part of the
#: cell identity: a low-fidelity rung cell and its full-fidelity twin
#: are different simulations, so rung rows cache under their own keys.
FIDELITY_OVERRIDE_KEY = "num_requests"

#: Cell overrides consumed by the runner rather than passed to the
#: system constructor: an SLO target turns the cell into an early-abort
#: run (an :class:`~repro.simulation.slo.SLOMonitor` stops it at the
#: provable violation point, and the stored result is flagged
#: ``aborted``).  They stay part of the cell *identity* — an SLO cell
#: and its unconstrained twin are different simulations.  Omitted keys
#: fall back to the :class:`SLOMonitor` constructor defaults.
SLO_OVERRIDE_KEYS = ("slo_target_ms", "slo_percentile", "slo_metric")


@dataclass(frozen=True, slots=True)
class SweepCell:
    """One (system, device, task, overrides) point of a sweep grid."""

    system: str
    device: str
    task: str
    overrides: Tuple[Tuple[str, object], ...] = ()
    #: Exempt from a sweep plan's cuts (see ``SweepRunner``'s ``plan``):
    #: a pinned cell is always fully simulated.  Excluded from identity — a pinned cell and its
    #: unpinned twin are the same simulation.
    pin: bool = False

    @classmethod
    def make(
        cls,
        system: str,
        device: str,
        task: str,
        pin: bool = False,
        **overrides: object,
    ) -> "SweepCell":
        """Build a cell with keyword serve-overrides in canonical order."""
        return cls(
            system=system,
            device=device,
            task=task,
            overrides=tuple(sorted(overrides.items())),
            pin=pin,
        )

    @property
    def key(self) -> CellKey:
        """Identity used for deduplication and result lookup (pin excluded)."""
        return (self.system, self.device, self.task, self.overrides)

    def identity_token(self) -> str:
        """Stable string form of the identity, suitable for cache keys.

        Override values are restricted in practice to literals (numbers,
        strings, booleans) whose ``repr`` is stable across processes and
        interpreter runs, which is what makes the on-disk sweep cache
        reusable between invocations.
        """
        return repr(self.key)

    def override_dict(self) -> Dict[str, object]:
        """The serve-overrides as a plain keyword-argument dict."""
        return dict(self.overrides)

    def system_overrides(self) -> Dict[str, object]:
        """The overrides the system constructor receives.

        Drops the fidelity and SLO keys (read through :attr:`fidelity`
        and :data:`SLO_OVERRIDE_KEYS`), after checking them: a
        non-positive request count, or SLO keys without
        ``slo_target_ms`` (whose monitor would silently not run), raise
        ``ValueError``.
        """
        overrides = self.override_dict()
        fidelity = overrides.pop(FIDELITY_OVERRIDE_KEY, None)
        if fidelity is not None and int(fidelity) < 1:  # type: ignore[call-overload]
            raise ValueError(f"cell {self.label()} declares a non-positive num_requests override")
        slo = {key: overrides.pop(key, None) for key in SLO_OVERRIDE_KEYS}
        given = sorted(key for key, value in slo.items() if value is not None)
        if given and slo["slo_target_ms"] is None:
            raise ValueError(
                f"cell {self.label()} declares SLO overrides {given} "
                "without slo_target_ms; the monitor would silently not run"
            )
        return overrides

    def pinned(self) -> "SweepCell":
        """The same cell (identical identity), exempt from pruning."""
        return dataclasses.replace(self, pin=True)

    def at_fidelity(self, num_requests: int) -> "SweepCell":
        """A reduced-fidelity variant of this cell (a *different* identity).

        The returned cell carries a :data:`FIDELITY_OVERRIDE_KEY`
        override, so it simulates ``num_requests`` requests of the same
        workload instead of the settings-derived count.  The pin rides
        along; the identity changes, which is what lets
        successive-halving rung rows flow through the ordinary cache and
        executor machinery without ever colliding with full-fidelity
        results.
        """
        count = int(num_requests)
        if count < 1:
            raise ValueError("num_requests must be a positive request count")
        overrides = dict(self.overrides)
        overrides[FIDELITY_OVERRIDE_KEY] = count
        return dataclasses.replace(self, overrides=tuple(sorted(overrides.items())))

    @property
    def fidelity(self) -> Optional[int]:
        """The cell's request-count override, or None at full fidelity."""
        for key, value in self.overrides:
            if key == FIDELITY_OVERRIDE_KEY:
                return int(value)  # type: ignore[call-overload]
        return None

    def label(self) -> str:
        """Compact human-readable form used in logs and errors."""
        text = f"{self.system}/{self.device}/{self.task}"
        if self.overrides:
            text += "[" + ",".join(f"{k}={v}" for k, v in self.overrides) + "]"
        return text


@dataclass(frozen=True, slots=True)
class SweepGrid:
    """An ordered, duplicate-free collection of sweep cells."""

    cells: Tuple[SweepCell, ...] = ()

    @classmethod
    def empty(cls) -> "SweepGrid":
        """A grid with no cells (the identity of :meth:`union`)."""
        return cls(())

    @classmethod
    def single(cls, cell: SweepCell) -> "SweepGrid":
        """A one-cell grid (a lone cell through the full sweep pipeline)."""
        return cls((cell,))

    @classmethod
    def product(
        cls,
        systems: Sequence[str],
        devices: Sequence[str],
        tasks: Sequence[str],
        overrides: Optional[Mapping[str, object]] = None,
    ) -> "SweepGrid":
        """The full cross product of systems x devices x tasks.

        Iteration order matches the hand-rolled loops the experiment
        modules used to contain (device-major, then task, then system),
        so per-(device, task) artefacts are reused consecutively.
        """
        cells = [
            SweepCell.make(system, device, task, **(overrides or {}))
            for device in devices
            for task in tasks
            for system in systems
        ]
        return cls._deduplicate(cells)

    @staticmethod
    def union(*grids: "SweepGrid") -> "SweepGrid":
        """Union several grids, keeping first-seen order and any pin."""
        cells: List[SweepCell] = []
        for grid in grids:
            cells.extend(grid.cells)
        return SweepGrid._deduplicate(cells)

    @staticmethod
    def _deduplicate(cells: Iterable[SweepCell]) -> "SweepGrid":
        merged: Dict[CellKey, SweepCell] = {}
        for cell in cells:
            existing = merged.get(cell.key)
            if existing is None:
                merged[cell.key] = cell
            elif cell.pin and not existing.pin:
                # Any requester's pin survives the union: pruning must
                # never drop a cell some experiment insists on.
                merged[cell.key] = existing.pinned()
        return SweepGrid(tuple(merged.values()))

    def __or__(self, other: "SweepGrid") -> "SweepGrid":
        return SweepGrid.union(self, other)

    def __iter__(self) -> Iterator[SweepCell]:
        return iter(self.cells)

    def __len__(self) -> int:
        return len(self.cells)

    def __bool__(self) -> bool:
        return bool(self.cells)
