"""Shared infrastructure for the experiment harness."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

from repro.coe.model import CoEModel
from repro.coe.probability import UsageProfile
from repro.core.config import PerformanceMatrix
from repro.core.profiler import OfflineProfiler
from repro.hardware.device import Device
from repro.hardware.presets import make_device
from repro.metrics.report import format_table
from repro.serving.base import ServingSystem
from repro.workload.circuit_board import CircuitBoard
from repro.workload.generator import RequestStream
from repro.workload.tasks import Task, task_by_name

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sweeps.spec import SweepCell


@dataclass(frozen=True)
class ExperimentResult:
    """Rows regenerating one of the paper's tables or figures."""

    name: str
    description: str
    rows: Tuple[Mapping[str, object], ...]
    columns: Tuple[str, ...] = ()
    notes: str = ""

    def to_text(self) -> str:
        """Render the result the way the harness prints it."""
        header = f"{self.name}: {self.description}"
        table = format_table(list(self.rows), list(self.columns))
        parts = [header, "=" * len(header), table]
        if self.notes:
            parts.append("")
            parts.append(self.notes)
        return "\n".join(parts)

    def column(self, key: str) -> List[object]:
        """Extract one column across all rows."""
        return [row.get(key) for row in self.rows]

    def effective_columns(self) -> List[str]:
        """Declared columns, or the union of row keys in first-seen order."""
        if self.columns:
            return list(self.columns)
        seen: Dict[str, None] = {}
        for row in self.rows:
            for key in row:
                seen.setdefault(key)
        return list(seen)

    def to_payload(self) -> Dict[str, object]:
        """JSON-serialisable dict form (one element of ``--format json``)."""
        return {
            "name": self.name,
            "description": self.description,
            "columns": self.effective_columns(),
            "rows": [dict(row) for row in self.rows],
            "notes": self.notes,
        }

    def to_json(self, indent: int = 2) -> str:
        """Render the result as a JSON document (``--format json``)."""
        return json.dumps(self.to_payload(), indent=indent, default=str)

    def to_csv(self) -> str:
        """Render the rows as CSV (``--format csv``)."""
        columns = self.effective_columns()
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=columns, restval="", extrasaction="ignore")
        writer.writeheader()
        for row in self.rows:
            writer.writerow(dict(row))
        return buffer.getvalue()


@dataclass(frozen=True, slots=True)
class EvaluationSettings:
    """Workload scaling knobs shared by the serving experiments.

    The paper's tasks use 2,500 / 3,500 requests; the default harness
    scales that down so every figure regenerates in seconds.  Each
    number holds only at its own request count: throughput keeps
    changing with the stream length, so at the default 1,000 requests
    CoServe's speedups read 2.0–4.5× against the paper's 4.5–12×, and
    executor rankings flip between 1,500 and 2,500 requests.
    """

    full_scale: bool = False
    reduced_requests: int = 1000
    devices: Tuple[str, ...] = ("numa", "uma")
    task_names: Tuple[str, ...] = ("A1", "A2", "B1", "B2")
    #: Override every task's built-in workload seed with one global seed
    #: (the CLI's ``--seed``), making a full ``--all`` regeneration
    #: reproducible end to end from a single number.  ``None`` keeps the
    #: per-task defaults.
    seed: Optional[int] = None

    def requests_for(self, task: Task) -> int:
        if self.full_scale:
            return task.num_requests
        return min(task.num_requests, self.reduced_requests)


class EvaluationContext:
    """Caches boards, models, streams and profiled matrices across runs.

    Building the circuit-board CoE model and profiling a device are the
    expensive parts of every serving experiment; one figure typically
    needs the same (device, task) pairs several times, so the context
    memoises them.
    """

    def __init__(self, settings: Optional[EvaluationSettings] = None) -> None:
        self.settings = settings or EvaluationSettings()
        self._devices: Dict[str, Device] = {}
        self._matrices: Dict[Tuple[str, str], PerformanceMatrix] = {}
        self._task_data: Dict[str, Tuple[CircuitBoard, CoEModel]] = {}
        self._streams: Dict[Tuple[str, int], RequestStream] = {}
        self._samples: Dict[Tuple[str, int], RequestStream] = {}
        self._usage: Dict[Tuple[str, int], UsageProfile] = {}

    # ------------------------------------------------------------------
    # Cached artefacts
    # ------------------------------------------------------------------
    def device(self, architecture: str) -> Device:
        if architecture not in self._devices:
            self._devices[architecture] = make_device(architecture)
        return self._devices[architecture]

    def task(self, name: str) -> Task:
        return task_by_name(name)

    def board_and_model(self, task_name: str) -> Tuple[CircuitBoard, CoEModel]:
        if task_name not in self._task_data:
            task = self.task(task_name)
            board = task.board()
            self._task_data[task_name] = (board, task.model(board))
        return self._task_data[task_name]

    def stream(self, task_name: str, num_requests: Optional[int] = None) -> RequestStream:
        task = self.task(task_name)
        count = num_requests or self.settings.requests_for(task)
        key = (task_name, count)
        if key not in self._streams:
            board, model = self.board_and_model(task_name)
            self._streams[key] = task.request_stream(
                board, model, num_requests=count, seed=self.settings.seed
            )
        return self._streams[key]

    def usage_profile(self, task_name: str, num_requests: Optional[int] = None) -> UsageProfile:
        task = self.task(task_name)
        count = num_requests or self.settings.requests_for(task)
        key = (task_name, count)
        if key not in self._usage:
            _, model = self.board_and_model(task_name)
            self._usage[key] = ServingSystem.usage_profile_from_stream(model, self.stream(task_name, count))
        return self._usage[key]

    def sample_stream(self, task_name: str, size: int) -> RequestStream:
        """The task's offline sample of ``size`` requests (§4.4–4.5).

        ``Task.sample_stream`` keeps the task's own seed, whatever the
        settings' ``seed``.
        """
        key = (task_name, size)
        if key not in self._samples:
            board, model = self.board_and_model(task_name)
            self._samples[key] = self.task(task_name).sample_stream(size, board=board, model=model)
        return self._samples[key]

    def cell_workload(self, cell: "SweepCell") -> Tuple[RequestStream, UsageProfile]:
        """The request stream a sweep cell serves and its system's usage profile.

        A sample cell replays the task's offline sample with the usage
        profile of the deployment's own stream, as the offline tuning
        searches do; any other cell serves its fidelity's stream with
        that stream's profile.  Executing a cell and describing it to
        the surrogate both read this one choice.
        """
        sample_size = cell.sample_size
        if sample_size is not None:
            return self.sample_stream(cell.task, sample_size), self.usage_profile(cell.task)
        count = cell.fidelity
        return self.stream(cell.task, count), self.usage_profile(cell.task, count)

    def performance_matrix(self, architecture: str, task_name: str) -> PerformanceMatrix:
        key = (architecture, task_name)
        if key not in self._matrices:
            _, model = self.board_and_model(task_name)
            profiler = OfflineProfiler(self.device(architecture), model)
            self._matrices[key] = profiler.build_performance_matrix()
        return self._matrices[key]


#: Systems compared in Figures 13 and 14, in the paper's plotting order.
COMPARISON_SYSTEMS: Tuple[str, ...] = (
    "samba-coe",
    "samba-coe-fifo",
    "samba-coe-parallel",
    "coserve-best",
    "coserve-casual",
)

#: Ablation variants compared in Figures 15 and 16.
ABLATION_SYSTEMS: Tuple[str, ...] = (
    "coserve-none",
    "coserve-em",
    "coserve-em-ra",
    "coserve",
)

#: The offline-phase measurements of Figures 17 and 18: Measurement A
#: uses board A, Measurement B uses board B (§5.3).
TUNING_MEASUREMENTS: Tuple[Tuple[str, str], ...] = (
    ("Measurement A", "A1"),
    ("Measurement B", "B1"),
)
