"""Individual expert instances.

Each expert is an independently trained model with its own weights.
Experts are the unit of loading, eviction and dependency tracking in
CoServe; their compute/latency characteristics come from their
architecture, but identity (and hence residency) is per-expert.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.experts.architecture import ExpertArchitecture


class ExpertRole(str, enum.Enum):
    """Position of an expert in the CoE inference pipeline (Figure 2).

    *Preliminary* experts can be selected directly by the routing module
    for the first inference of a request; *subsequent* experts only run
    on the output of a preliminary expert (e.g. the shared object
    detection experts in the circuit-board application).
    """

    PRELIMINARY = "preliminary"
    SUBSEQUENT = "subsequent"


@dataclass(frozen=True)
class Expert:
    """A single expert model.

    Parameters
    ----------
    expert_id:
        Unique identifier within a CoE model, e.g. ``"cls/board-a/017"``.
    architecture:
        The expert's model architecture (shared performance profile).
    role:
        Whether the expert is preliminary or subsequent in the pipeline.
    description:
        Optional human-readable description (component name, domain, ...).
    """

    expert_id: str
    architecture: ExpertArchitecture
    role: ExpertRole
    description: str = ""

    def __post_init__(self) -> None:
        if not self.expert_id:
            raise ValueError("expert_id must be non-empty")

    @property
    def weight_bytes(self) -> int:
        """Size of this expert's weights in bytes."""
        return self.architecture.weight_bytes

    @property
    def architecture_name(self) -> str:
        """Name of the expert's architecture."""
        return self.architecture.name

    def __str__(self) -> str:
        return self.expert_id
