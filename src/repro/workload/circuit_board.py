"""Circuit boards and the inspection CoE model built from them.

A circuit board is a collection of component types.  Each type has a
quantity (how many instances of that component one board carries), a
defect rate, and — for a subset of types — an object-detection stage
used to verify alignment points and soldering direction after the
classification expert found no defect (§2.1, §5.1).

The quantity distribution is strongly skewed (a board has many
resistors and capacitors, few specialised ICs), which is what produces
the expert-usage CDF of Figure 11: the ~35 most frequently used experts
cover roughly 60 % of all expert usage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.coe.model import CoEModel
from repro.coe.router import Router, RoutingRule
from repro.experts.expert import Expert, ExpertRole
from repro.experts.registry import ArchitectureRegistry, default_registry


@dataclass(frozen=True)
class ComponentType:
    """One component type on a circuit board.

    Parameters
    ----------
    name:
        Component identifier, e.g. ``"board-a/comp-017"``.
    quantity:
        Number of instances of this component on one board.
    defect_rate:
        Probability that the classification expert finds a defect (in
        which case the detection stage is skipped — the board is
        rejected immediately).
    detection_group:
        Index of the shared object-detection expert this component
        routes to after a clean classification, or ``None`` if the
        component needs no detection stage.
    """

    name: str
    quantity: int
    defect_rate: float = 0.05
    detection_group: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("component name must be non-empty")
        if self.quantity <= 0:
            raise ValueError(f"component '{self.name}' must have positive quantity")
        if not 0.0 <= self.defect_rate <= 1.0:
            raise ValueError(f"defect rate of '{self.name}' outside [0, 1]")
        if self.detection_group is not None and self.detection_group < 0:
            raise ValueError("detection_group must be non-negative")

    @property
    def needs_detection(self) -> bool:
        return self.detection_group is not None


@dataclass(frozen=True)
class CircuitBoard:
    """A circuit board: an ordered collection of component types.

    The order of ``components`` is the scan order of the optical
    inspection camera; the request generator emits component images in
    this order within one board pass.
    """

    name: str
    components: Tuple[ComponentType, ...]
    detection_groups: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("board name must be non-empty")
        if not self.components:
            raise ValueError("a board needs at least one component type")
        names = [component.name for component in self.components]
        if len(set(names)) != len(names):
            raise ValueError("component names must be unique")
        for component in self.components:
            if component.detection_group is not None and component.detection_group >= max(
                self.detection_groups, 1
            ):
                raise ValueError(
                    f"component '{component.name}' references detection group "
                    f"{component.detection_group} but the board declares only "
                    f"{self.detection_groups}"
                )

    def quantity_weights(self) -> Dict[str, float]:
        """Component-name -> quantity map (the category mix for §4.5)."""
        return {component.name: float(component.quantity) for component in self.components}


# ----------------------------------------------------------------------
# Synthetic board construction
# ----------------------------------------------------------------------
def _skewed_quantity(rank: int, scale: float = 130.0, exponent: float = 1.05) -> int:
    """Component quantity for a given popularity rank (1-based).

    A truncated power law: the most common component appears ``scale``
    times per board, the tail components once or twice.
    """
    return max(1, int(round(scale / math.pow(rank, exponent))))


def make_board(
    name: str,
    component_types: int,
    detection_groups: int,
    detection_fraction: float = 0.4,
    defect_rate: float = 0.05,
    quantity_scale: float = 130.0,
    quantity_exponent: float = 1.05,
) -> CircuitBoard:
    """Build a synthetic circuit board.

    Parameters
    ----------
    name:
        Board name (``"A"`` or ``"B"`` for the paper's workloads).
    component_types:
        Number of distinct component types (352 for board A, 342 for B).
    detection_groups:
        Number of shared object-detection experts the board's components
        route to.
    detection_fraction:
        Fraction of component types that require a detection stage.
    defect_rate:
        Per-image probability that classification finds a defect.
    quantity_scale, quantity_exponent:
        Parameters of the skewed quantity distribution.
    """
    if component_types <= 0:
        raise ValueError("component_types must be positive")
    if detection_groups < 0:
        raise ValueError("detection_groups must be non-negative")
    if not 0.0 <= detection_fraction <= 1.0:
        raise ValueError("detection_fraction must be within [0, 1]")

    components = []
    # Spread detection-needing components evenly across popularity ranks
    # so that roughly `detection_fraction` of *requests* (not just of
    # component types) include a detection stage.
    detection_stride = max(1, int(round(1.0 / detection_fraction))) if detection_fraction > 0 else 0
    for index in range(component_types):
        rank = index + 1
        quantity = _skewed_quantity(rank, scale=quantity_scale, exponent=quantity_exponent)
        needs_detection = (
            detection_groups > 0
            and detection_fraction > 0
            and index % detection_stride == 0
        )
        detection_group = index % detection_groups if needs_detection else None
        components.append(
            ComponentType(
                name=f"board-{name.lower()}/comp-{index:03d}",
                quantity=quantity,
                defect_rate=defect_rate,
                detection_group=detection_group,
            )
        )
    return CircuitBoard(name=name, components=tuple(components), detection_groups=detection_groups)


def make_board_a() -> CircuitBoard:
    """Circuit Board A: 352 component types (§5.1)."""
    return make_board("A", component_types=352, detection_groups=28)


def make_board_b() -> CircuitBoard:
    """Circuit Board B: 342 component types (§5.1)."""
    return make_board("B", component_types=342, detection_groups=26)


# ----------------------------------------------------------------------
# CoE model construction
# ----------------------------------------------------------------------
def classification_expert_id(board: CircuitBoard, component: ComponentType) -> str:
    """Expert id of a component's dedicated classification expert."""
    return f"cls/{component.name}"


def detection_expert_id(board: CircuitBoard, group: int) -> str:
    """Expert id of a shared object-detection expert."""
    return f"det/board-{board.name.lower()}/group-{group:02d}"


def build_inspection_model(
    board: CircuitBoard,
    registry: Optional[ArchitectureRegistry] = None,
) -> CoEModel:
    """Build the circuit-board inspection CoE model for a board.

    Every component type gets a dedicated ResNet101 classification
    expert.  Component types with a detection stage route, after a clean
    classification (probability ``1 - defect_rate``), to the shared
    detection expert of their group; groups alternate between YOLOv5m
    and YOLOv5l architectures, mirroring the paper's mix.
    """
    registry = registry or default_registry()
    resnet = registry.get("resnet101")
    yolo_m = registry.get("yolov5m")
    yolo_l = registry.get("yolov5l")

    experts: Dict[str, Expert] = {}
    rules = []

    for group in range(board.detection_groups):
        architecture = yolo_m if group % 2 == 0 else yolo_l
        expert_id = detection_expert_id(board, group)
        experts[expert_id] = Expert(
            expert_id=expert_id,
            architecture=architecture,
            role=ExpertRole.SUBSEQUENT,
            description=f"alignment/soldering detection, group {group} of board {board.name}",
        )

    for component in board.components:
        cls_id = classification_expert_id(board, component)
        experts[cls_id] = Expert(
            expert_id=cls_id,
            architecture=resnet,
            role=ExpertRole.PRELIMINARY,
            description=f"defect classification for {component.name}",
        )
        if component.needs_detection:
            det_id = detection_expert_id(board, component.detection_group)
            rules.append(
                RoutingRule(
                    category=component.name,
                    pipeline=(cls_id, det_id),
                    continuation_probabilities=(1.0 - component.defect_rate,),
                )
            )
        else:
            rules.append(RoutingRule(category=component.name, pipeline=(cls_id,)))

    router = Router(rules)
    return CoEModel(name=f"circuit-board-{board.name.lower()}-inspection", experts=experts, router=router)
