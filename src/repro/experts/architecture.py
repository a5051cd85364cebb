"""Expert architectures.

An :class:`ExpertArchitecture` captures everything about an expert that
is shared by all experts of the same model family: the number of
parameters, the serialised weight size and the computational cost of a
forward pass.  The offline profiler exploits this sharing — experts of
the same architecture are profiled only once (§4.5).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class ExpertTask(str, enum.Enum):
    """The kind of inference an expert performs."""

    CLASSIFICATION = "classification"
    DETECTION = "detection"


#: Bytes per parameter for FP32 weights, the format the paper's experts use.
BYTES_PER_PARAMETER = 4


@dataclass(frozen=True)
class ExpertArchitecture:
    """A family of experts sharing structure and computational complexity.

    Parameters
    ----------
    name:
        Canonical lower-case architecture name, e.g. ``"resnet101"``.
    task:
        Whether the architecture performs classification or detection.
    parameters:
        Number of trainable parameters.
    weight_bytes:
        Size of the serialised weights (defaults to FP32 if built through
        :meth:`from_parameters`).
    gflops_per_sample:
        Forward-pass cost for a single input; informational (execution
        latency is taken from the device performance model).
    """

    name: str
    task: ExpertTask
    parameters: int
    weight_bytes: int
    gflops_per_sample: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("architecture name must be non-empty")
        if self.name != self.name.lower():
            raise ValueError(f"architecture name must be lower-case, got '{self.name}'")
        if self.parameters <= 0:
            raise ValueError("parameters must be positive")
        if self.weight_bytes <= 0:
            raise ValueError("weight_bytes must be positive")
        if self.gflops_per_sample < 0:
            raise ValueError("gflops_per_sample must be non-negative")

    @classmethod
    def from_parameters(
        cls,
        name: str,
        task: ExpertTask,
        parameters: int,
        gflops_per_sample: float = 0.0,
    ) -> "ExpertArchitecture":
        """Build an architecture assuming FP32 weights."""
        return cls(
            name=name,
            task=task,
            parameters=parameters,
            weight_bytes=parameters * BYTES_PER_PARAMETER,
            gflops_per_sample=gflops_per_sample,
        )

    def __str__(self) -> str:
        return self.name
