"""Declarative sweep specifications.

A :class:`SweepCell` names one serving simulation — a (system, device,
task, serve-overrides) point of the evaluation grid — without running
it.  A :class:`SweepGrid` is an ordered, duplicate-free collection of
cells; experiment modules declare their grid, and grids from several
experiments are unioned before execution so shared cells (Figures 13
and 14 serve the exact same 40 runs, as do Figures 15 and 16) are
simulated once.

Cells are identified by ``(system, device, task, overrides)``; the
``tags`` field records which experiments requested a cell and the
``pin`` field exempts a cell from surrogate pruning — both are excluded
from identity, so the union merges tags (and keeps any pin) instead of
duplicating work.  Both classes are frozen dataclasses built from
tuples, which keeps them hashable and picklable — a requirement for
shipping grids to :class:`~repro.sweeps.runner.SweepRunner` worker
processes.
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


@dataclass(frozen=True, slots=True)
class SweepCell:
    """One (system, device, task, overrides) point of a sweep grid."""

    system: str
    device: str
    task: str
    overrides: Tuple[Tuple[str, object], ...] = ()
    tags: Tuple[str, ...] = ()
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
        tags: Sequence[str] = (),
        pin: bool = False,
        **overrides: object,
    ) -> "SweepCell":
        """Build a cell with keyword serve-overrides in canonical order."""
        return cls(
            system=system,
            device=device,
            task=task,
            overrides=tuple(sorted(overrides.items())),
            tags=tuple(tags),
            pin=pin,
        )

    @property
    def key(self) -> CellKey:
        """Identity used for deduplication and result lookup (tags excluded)."""
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

    def with_tags(self, tags: Sequence[str]) -> "SweepCell":
        """The same cell (identical identity) carrying different tags."""
        return dataclasses.replace(self, tags=tuple(tags))

    def pinned(self) -> "SweepCell":
        """The same cell (identical identity), exempt from pruning."""
        return dataclasses.replace(self, pin=True)

    def at_fidelity(self, num_requests: int) -> "SweepCell":
        """A reduced-fidelity variant of this cell (a *different* identity).

        The returned cell carries a :data:`FIDELITY_OVERRIDE_KEY`
        override, so it simulates ``num_requests`` requests of the same
        workload instead of the settings-derived count.  Tags and pin
        ride along; the identity changes, which is what lets
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
        tags: Sequence[str] = (),
    ) -> "SweepGrid":
        """The full cross product of systems x devices x tasks.

        Iteration order matches the hand-rolled loops the experiment
        modules used to contain (device-major, then task, then system),
        so per-(device, task) artefacts are reused consecutively.
        """
        cells = [
            SweepCell.make(system, device, task, tags=tags, **(overrides or {}))
            for device in devices
            for task in tasks
            for system in systems
        ]
        return cls._deduplicate(cells)

    @staticmethod
    def union(*grids: "SweepGrid") -> "SweepGrid":
        """Union several grids, keeping first-seen order and merging tags."""
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
                continue
            if cell.tags:
                tags = existing.tags + tuple(t for t in cell.tags if t not in existing.tags)
                existing = existing.with_tags(tags)
            if cell.pin and not existing.pin:
                # Any requester's pin survives the union: pruning must
                # never drop a cell some experiment insists on.
                existing = existing.pinned()
            merged[cell.key] = existing
        return SweepGrid(tuple(merged.values()))

    def __or__(self, other: "SweepGrid") -> "SweepGrid":
        return SweepGrid.union(self, other)

    def __iter__(self) -> Iterator[SweepCell]:
        return iter(self.cells)

    def __len__(self) -> int:
        return len(self.cells)

    def __bool__(self) -> bool:
        return bool(self.cells)

    def tagged(self, tag: str) -> "SweepGrid":
        """The sub-grid of cells carrying ``tag``."""
        return SweepGrid(tuple(cell for cell in self.cells if tag in cell.tags))
