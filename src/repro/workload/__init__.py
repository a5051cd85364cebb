"""Intelligent-manufacturing workloads.

The paper evaluates CoServe on a real-world circuit-board
quality-inspection application (§5.1): two boards (A with 352 component
types, B with 342), a dedicated ResNet101 classification expert per
component type, shared YOLOv5m/YOLOv5l object-detection experts for a
subset of component types, and a production line that feeds one
component image into the system every 4 ms.

The production model and dataset are proprietary, so this subpackage
generates synthetic but faithful equivalents: board definitions with a
skewed component-quantity distribution (calibrated to the usage CDF of
Figure 11), the CoE inspection model built from those boards, and
request streams / tasks A1, A2, B1, B2 matching §5.1's workload
description.
"""

from repro.workload.circuit_board import (
    ComponentType,
    CircuitBoard,
    make_board_a,
    make_board_b,
    build_inspection_model,
)
from repro.workload.generator import (
    STREAM_FORMAT,
    LazyRequestStream,
    RequestSpec,
    RequestStream,
    RequestStreamLike,
    generate_request_stream,
    iter_request_stream,
)
from repro.workload.tasks import Task, standard_tasks, task_by_name

__all__ = [
    "STREAM_FORMAT",
    "ComponentType",
    "CircuitBoard",
    "make_board_a",
    "make_board_b",
    "build_inspection_model",
    "LazyRequestStream",
    "RequestSpec",
    "RequestStream",
    "RequestStreamLike",
    "generate_request_stream",
    "iter_request_stream",
    "Task",
    "standard_tasks",
    "task_by_name",
]
