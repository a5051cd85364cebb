"""Reference (pre-vectorisation) scalar request-spec generator.

This module preserves the scalar, one-``router.resolve``-per-request
generation path exactly as it existed before
:mod:`repro.workload.generator` was vectorised, mirroring what
:mod:`repro.simulation.reference` does for the engine hot loop:

* it is the **semantic baseline** — property tests assert that the
  vectorised generator produces spec-for-spec identical streams across
  seeds, orders and active fractions (``tests/test_generator_reference.py``);
* it is the **performance baseline** — the ``workload_generation``
  benchmark measures the vectorised path's specs/sec against this
  module and asserts the speedup floor.

Everything here is deliberately frozen.  The helpers the scalar path
depends on for its RNG call sequence (:func:`_active_components`,
:func:`_shuffled_draws`) are *copied* rather than imported so that a
future change to the live generator cannot silently drag the reference
along with it; only argument validation and the chunk-size constant are
shared.  The sole structural edit from the historical code is that the
thrice-repeated ``yield chunk; chunk = []`` block now lives in the
:func:`_chunked` helper — the RNG call sequence and every produced
value are unchanged.

``ReferenceRequestSpec`` is the original frozen-dataclass spec type.
The live :class:`~repro.workload.generator.RequestSpec` is now a
``tuple`` subclass, so cross-class ``==`` is not meaningful; compare
field-for-field (e.g. via :func:`spec_fields`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Tuple

import numpy as np

from repro.coe.model import CoEModel
from repro.workload.circuit_board import CircuitBoard
from repro.workload.generator import (
    DEFAULT_ARRIVAL_INTERVAL_MS,
    _SPEC_CHUNK_SIZE,
    _validate_stream_args,
)


@dataclass(frozen=True)
class ReferenceRequestSpec:
    """The original frozen-dataclass request spec (pre-vectorisation).

    Field-for-field identical to the live
    :class:`~repro.workload.generator.RequestSpec`; kept as a dataclass
    so the reference pipeline measures the historical construction cost
    as well as the historical RNG path.
    """

    request_id: int
    arrival_ms: float
    category: str
    realized_pipeline: Tuple[str, ...]

    def __post_init__(self) -> None:
        if self.request_id < 0:
            raise ValueError("request_id must be non-negative")
        if self.arrival_ms < 0:
            raise ValueError("arrival_ms must be non-negative")
        if not self.realized_pipeline:
            raise ValueError("realized_pipeline must contain at least one expert")

    @property
    def stage_count(self) -> int:
        return len(self.realized_pipeline)


def spec_fields(spec) -> Tuple[int, float, str, Tuple[str, ...]]:
    """The comparable field tuple of a spec (either spec class)."""
    return (spec.request_id, spec.arrival_ms, spec.category, spec.realized_pipeline)


def _active_components(
    board: CircuitBoard, active_fraction: float, rng: np.random.Generator
) -> List:
    """Frozen copy of the live generator's active-subset sampling."""
    components = list(board.components)
    if active_fraction >= 1.0:
        return components
    count = max(1, int(round(len(components) * active_fraction)))
    indices = sorted(rng.choice(len(components), size=count, replace=False))
    return [components[index] for index in indices]


def _shuffled_draws(
    components, num_requests: int, rng: np.random.Generator
) -> Tuple[List[str], np.ndarray]:
    """Frozen copy of the live generator's i.i.d. category draw."""
    names = [component.name for component in components]
    quantities = np.array([component.quantity for component in components], dtype=float)
    probabilities = quantities / quantities.sum()
    draws = rng.choice(len(names), size=num_requests, p=probabilities)
    return names, draws


def _chunked(specs: Iterable, size: int = _SPEC_CHUNK_SIZE) -> Iterator[List]:
    """Batch an iterable of specs into lists of at most ``size``.

    The named form of the emit/reset block the historical generator
    repeated inline at three sites; batching is pure plumbing and never
    touches the RNG, so routing it through one helper leaves the
    produced stream identical.
    """
    iterator = iter(specs)
    while True:
        chunk = list(itertools.islice(iterator, size))
        if not chunk:
            return
        yield chunk


def _generate_specs_scalar(
    board: CircuitBoard,
    model: CoEModel,
    num_requests: int,
    arrival_interval_ms: float,
    seed: int,
    order: str,
    active_fraction: float,
) -> Iterator[ReferenceRequestSpec]:
    """The historical scalar generation loop: one ``resolve`` per request.

    Drives ``np.random.default_rng(seed)`` through the exact call
    sequence of the pre-vectorisation generator: the active-component
    subset draw, one vectorised category draw when shuffled, then one
    :meth:`Router.resolve` per request in request order.
    """
    rng = np.random.default_rng(seed)
    components = _active_components(board, active_fraction, rng)
    resolve = model.router.resolve
    make_spec = ReferenceRequestSpec
    if order == "scan":
        # Scan order consumes no randomness for the categories, so the
        # cycle is inlined; the RNG call sequence (one resolve per
        # request, in request order) is identical to the eager path.
        single_pass: List[str] = []
        for component in components:
            single_pass.extend([component.name] * component.quantity)
        request_id = 0
        while request_id < num_requests:
            for category in single_pass:
                if request_id >= num_requests:
                    break
                yield make_spec(
                    request_id,
                    request_id * arrival_interval_ms,
                    category,
                    resolve(category, rng),
                )
                request_id += 1
    else:
        names, draws = _shuffled_draws(components, num_requests, rng)
        for request_id, index in enumerate(draws):
            category = names[index]
            yield make_spec(
                request_id,
                request_id * arrival_interval_ms,
                category,
                resolve(category, rng),
            )


def reference_spec_chunks(
    board: CircuitBoard,
    model: CoEModel,
    num_requests: int,
    arrival_interval_ms: float,
    seed: int,
    order: str,
    active_fraction: float,
) -> Iterator[List[ReferenceRequestSpec]]:
    """Chunked form of the scalar reference stream (pre-validated args)."""
    return _chunked(
        _generate_specs_scalar(
            board, model, num_requests, arrival_interval_ms, seed, order, active_fraction
        )
    )


def iter_request_stream_reference(
    board: CircuitBoard,
    model: CoEModel,
    num_requests: int,
    arrival_interval_ms: float = DEFAULT_ARRIVAL_INTERVAL_MS,
    seed: int = 0,
    order: str = "scan",
    active_fraction: float = 1.0,
) -> Iterator[ReferenceRequestSpec]:
    """Reference twin of :func:`repro.workload.generator.iter_request_stream`.

    Same signature and argument validation; yields
    :class:`ReferenceRequestSpec` objects whose fields must match the
    live generator's output spec-for-spec (enforced by
    ``tests/test_generator_reference.py``).
    """
    _validate_stream_args(num_requests, arrival_interval_ms, order, active_fraction)
    return itertools.chain.from_iterable(
        reference_spec_chunks(
            board, model, num_requests, arrival_interval_ms, seed, order, active_fraction
        )
    )
