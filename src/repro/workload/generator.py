"""Request stream generation.

The production line scans circuit boards and feeds one component image
into the inspection system every 4 ms (§5.1).  Within one board pass
the camera visits components in the board's scan order, so images of
the same component type arrive consecutively; a task covers as many
(partial) passes as needed to reach its request count.

Each request's *realised* pipeline (whether the detection stage actually
runs) is pre-sampled with the stream's random seed so that runs are
deterministic, but serving systems only observe the realised second
stage after the first stage has executed.

Two materialisation modes share one generation path:

* :func:`generate_request_stream` returns an eager
  :class:`RequestStream` holding every :class:`RequestSpec` — the right
  form for the paper's 2.5k–3.5k-request tasks, where reports index
  into the stream freely.
* :func:`iter_request_stream` / :meth:`RequestStream.lazy` realise the
  *same* specs on demand (byte-identical: both paths drive one RNG
  through the identical call sequence), so a million-request
  "long production shift" cell never holds the full spec tuple.  A
  :class:`LazyRequestStream` knows its length and arrival spacing up
  front and re-generates specs from the seed on every iteration pass.

Generation is **vectorised**: each 4096-spec chunk draws its
pipeline-realisation Bernoullis as one ``rng.random(k)`` batch call,
computes arrivals with one ``arange``, and materialises specs from the
precomputed arrays.  NumPy's PCG64 consumes the bit stream identically
for ``rng.random(k)`` and ``k`` scalar ``rng.random()`` calls, so the
batched draws reproduce the historical scalar seed→spec mapping
*exactly* — :data:`STREAM_FORMAT` therefore remains ``1``.  The scalar
path is preserved verbatim in :mod:`repro.workload.generator_reference`
and property tests pin the two spec-for-spec.
"""

from __future__ import annotations

import functools
import gc
import itertools
from collections import Counter, namedtuple
from dataclasses import dataclass, field, fields
from functools import cached_property
from types import MappingProxyType
from typing import Callable, ClassVar, Dict, Iterator, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.coe.model import CoEModel
from repro.coe.router import Router
from repro.workload.circuit_board import CircuitBoard

#: Arrival interval between component images in the paper's production line.
DEFAULT_ARRIVAL_INTERVAL_MS = 4.0

#: Version of the seed→spec mapping.  Format 1 is the original scalar
#: mapping (one ``resolve`` per request against ``default_rng(seed)``);
#: the vectorised generator reproduces it bit-for-bit, so the format has
#: never changed.  Bump this — and re-baseline the golden tests — if a
#: future change alters which specs a given seed produces.
STREAM_FORMAT = 1


_RequestSpecFields = namedtuple(
    "_RequestSpecFields", ("request_id", "arrival_ms", "category", "realized_pipeline")
)


class RequestSpec(_RequestSpecFields):
    """One inference request of a workload.

    Parameters
    ----------
    request_id:
        Monotonically increasing id within the stream.
    arrival_ms:
        Virtual time at which the request enters the system.
    category:
        The request's category (component type name).
    realized_pipeline:
        The experts this request will actually visit, in order.  The
        first entry is always the preliminary expert; later entries are
        only revealed to the serving system as earlier stages complete.

    Implemented as a ``tuple`` subclass rather than a dataclass: specs
    are constructed a million times per long-shift workload, and the
    generator's hot path builds them through :meth:`_make` (C-speed
    ``tuple.__new__``, no per-field validation) from values it already
    guarantees valid.  The public constructor validates as before.
    """

    __slots__ = ()

    # The generator's trusted constructor: one C-level call per spec
    # (no Python frame, no per-field validation).  Overrides the
    # namedtuple-generated _make, whose Python wrapper is measurable at
    # a million specs.
    _make = classmethod(tuple.__new__)

    def __new__(
        cls,
        request_id: int,
        arrival_ms: float,
        category: str,
        realized_pipeline: Tuple[str, ...],
    ) -> "RequestSpec":
        if request_id < 0:
            raise ValueError("request_id must be non-negative")
        if arrival_ms < 0:
            raise ValueError("arrival_ms must be non-negative")
        if not realized_pipeline:
            raise ValueError("realized_pipeline must contain at least one expert")
        return tuple.__new__(cls, (request_id, arrival_ms, category, realized_pipeline))

    @property
    def stage_count(self) -> int:
        return len(self.realized_pipeline)


#: One pass of derived views: (category counter, sorted experts, stages).
_StreamViews = Tuple[Counter, Tuple[str, ...], int]


def _compute_stream_views(specs) -> _StreamViews:
    """Derive every aggregate view of a stream in a single pass.

    Repeated metric/report calls want category counts, the distinct
    expert set and the total stage count; computing all three together
    means even a lazily generated million-entry stream pays one
    regeneration pass for the lot, and eager streams one scan ever.
    """
    counts: Counter = Counter()
    experts = set()
    stages = 0
    for spec in specs:
        counts[spec.category] += 1
        pipeline = spec.realized_pipeline
        experts.update(pipeline)
        stages += len(pipeline)
    return counts, tuple(sorted(experts)), stages


def _count_expert_stages(specs) -> Mapping[str, int]:
    """Stages each expert executes over ``specs``, in first-use order."""
    counts: Dict[str, int] = {}
    get = counts.get
    for spec in specs:
        for expert_id in spec.realized_pipeline:
            counts[expert_id] = get(expert_id, 0) + 1
    return MappingProxyType(counts)


@dataclass(frozen=True)
class RequestStream:
    """A fully materialised request arrival stream."""

    #: Seed→spec mapping version shared by every stream this module
    #: produces (see module-level :data:`STREAM_FORMAT`).
    STREAM_FORMAT: ClassVar[int] = STREAM_FORMAT

    name: str
    requests: Tuple[RequestSpec, ...]
    arrival_interval_ms: float
    board_name: str
    seed: int

    def __post_init__(self) -> None:
        if not self.requests:
            raise ValueError("a request stream must contain at least one request")
        if self.arrival_interval_ms <= 0:
            raise ValueError("arrival_interval_ms must be positive")
        previous = -1.0
        for request in self.requests:
            if request.arrival_ms < previous:
                raise ValueError("requests must be sorted by arrival time")
            previous = request.arrival_ms

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self) -> Iterator[RequestSpec]:
        return iter(self.requests)

    def __getstate__(self) -> Dict[str, object]:
        """Pickle the declared fields only (process-boundary rule RL006).

        The cached aggregate views live in ``__dict__`` beside the
        fields (see :attr:`_views`); dropping them keeps cross-process
        payloads lean, and they are recomputed on first use.
        """
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __setstate__(self, state: Dict[str, object]) -> None:
        """Restore fields, bypassing the frozen-dataclass guard."""
        for name, value in state.items():
            object.__setattr__(self, name, value)

    def __getitem__(self, index: int) -> RequestSpec:
        return self.requests[index]

    @property
    def duration_ms(self) -> float:
        """Time span between the first and last arrival."""
        return self.requests[-1].arrival_ms - self.requests[0].arrival_ms

    @cached_property
    def _views(self) -> _StreamViews:
        # cached_property writes straight into __dict__, which is legal
        # even on a frozen dataclass; the derived views are pure
        # functions of the immutable spec tuple.
        return _compute_stream_views(self.requests)

    @property
    def total_stage_count(self) -> int:
        """Total number of expert executions the stream requires."""
        return self._views[2]

    def distinct_experts(self) -> Tuple[str, ...]:
        """All experts used by at least one request, sorted."""
        return self._views[1]

    def category_counts(self) -> Dict[str, int]:
        """Number of requests per category."""
        return dict(self._views[0])

    @cached_property
    def expert_stage_counts(self) -> Mapping[str, int]:
        """Stages per expert over the stream, in first-use order (read-only)."""
        return _count_expert_stages(self.requests)

    @staticmethod
    def lazy(
        board: CircuitBoard,
        model: CoEModel,
        num_requests: int,
        arrival_interval_ms: float = DEFAULT_ARRIVAL_INTERVAL_MS,
        seed: int = 0,
        name: Optional[str] = None,
        order: str = "scan",
        active_fraction: float = 1.0,
    ) -> "LazyRequestStream":
        """A stream that realises its specs on demand (same RNG path).

        Takes the exact parameters of :func:`generate_request_stream`
        and yields byte-identical :class:`RequestSpec` sequences, but
        never holds the full spec tuple: each iteration pass re-derives
        the specs from the seed.  Use for long production shifts
        (10⁵–10⁶ requests) where peak memory must track in-flight
        requests, not stream length.
        """
        _validate_stream_args(num_requests, arrival_interval_ms, order, active_fraction)
        factory = functools.partial(
            iter_request_stream,
            board,
            model,
            num_requests,
            arrival_interval_ms=arrival_interval_ms,
            seed=seed,
            order=order,
            active_fraction=active_fraction,
        )
        return LazyRequestStream(
            name=name or f"{board.name}-{num_requests}",
            num_requests=num_requests,
            arrival_interval_ms=arrival_interval_ms,
            board_name=board.name,
            seed=seed,
            spec_factory=factory,
        )


@dataclass(frozen=True, eq=False)
class LazyRequestStream:
    """A request stream realised on demand from its generation seed.

    Interchangeable with :class:`RequestStream` wherever streaming
    access suffices (the simulation session, usage profiling, metric
    reports): it knows its ``len``, name and arrival spacing up front,
    iterates :class:`RequestSpec` objects in arrival order, and caches
    the derived aggregate views after one pass.  It does **not** support
    random access — that is the point: nothing ever holds all N specs.

    Build via :meth:`RequestStream.lazy` (or directly from any callable
    returning a fresh spec iterator per pass).  Equality is identity
    (``eq=False``): the metadata fields cannot see into the factory, so
    field equality would conflate streams generating different specs
    (eager streams compare their full spec tuples instead).
    """

    #: Seed→spec mapping version shared by every stream this module
    #: produces (see module-level :data:`STREAM_FORMAT`).
    STREAM_FORMAT: ClassVar[int] = STREAM_FORMAT

    name: str
    num_requests: int
    arrival_interval_ms: float
    board_name: str
    seed: int
    spec_factory: Callable[[], Iterator[RequestSpec]] = field(repr=False)

    def __post_init__(self) -> None:
        if self.num_requests <= 0:
            raise ValueError("a request stream must contain at least one request")
        if self.arrival_interval_ms <= 0:
            raise ValueError("arrival_interval_ms must be positive")

    def __len__(self) -> int:
        return self.num_requests

    def __iter__(self) -> Iterator[RequestSpec]:
        return iter(self.spec_factory())

    def __getstate__(self) -> Dict[str, object]:
        """Pickle the declared fields only (process-boundary rule RL006).

        ``spec_factory`` is a :func:`functools.partial` over the named
        module-level :func:`iter_request_stream`, so the stream
        re-derives identical specs on the far side of the boundary;
        cached views are dropped and recomputed on first use.
        """
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __setstate__(self, state: Dict[str, object]) -> None:
        """Restore fields, bypassing the frozen-dataclass guard."""
        for name, value in state.items():
            object.__setattr__(self, name, value)

    @property
    def duration_ms(self) -> float:
        """Time span between the first and last arrival.

        Generated arrivals are uniformly spaced, so the span is known
        without realising a single spec.
        """
        return (self.num_requests - 1) * self.arrival_interval_ms

    @cached_property
    def _views(self) -> _StreamViews:
        return _compute_stream_views(self.spec_factory())

    @property
    def total_stage_count(self) -> int:
        """Total number of expert executions the stream requires."""
        return self._views[2]

    def distinct_experts(self) -> Tuple[str, ...]:
        """All experts used by at least one request, sorted."""
        return self._views[1]

    def category_counts(self) -> Dict[str, int]:
        """Number of requests per category."""
        return dict(self._views[0])

    @cached_property
    def expert_stage_counts(self) -> Mapping[str, int]:
        """Stages per expert over the stream, in first-use order (read-only)."""
        return _count_expert_stages(self.spec_factory())


#: Anything the engine accepts as a request stream: eager or lazy.
RequestStreamLike = Union[RequestStream, LazyRequestStream]


def _active_components(
    board: CircuitBoard, active_fraction: float, rng: np.random.Generator
) -> List:
    """Select the component types inspected by one production run.

    A production run inspects the board variant currently being
    manufactured, which exercises only a subset of the full component
    library (the CoE model still has to be able to serve every
    component, which is what makes the memory problem hard).  The
    subset is sampled deterministically from the stream's seed.
    """
    components = list(board.components)
    if active_fraction >= 1.0:
        return components
    count = max(1, int(round(len(components) * active_fraction)))
    indices = sorted(rng.choice(len(components), size=count, replace=False))
    return [components[index] for index in indices]


def _shuffled_draws(
    components, num_requests: int, rng: np.random.Generator
) -> Tuple[List[str], np.ndarray]:
    """Category indices drawn i.i.d. from the quantity distribution.

    The draw is one vectorised ``rng.choice`` call: chunking it would
    advance the RNG differently, so even the lazy path performs this
    single call up front and holds only the int index array (~8 bytes
    per request — far lighter than the name list or the specs it
    stands in for), resolving indices to names as specs are built.
    """
    names = [component.name for component in components]
    quantities = np.array([component.quantity for component in components], dtype=float)
    probabilities = quantities / quantities.sum()
    draws = rng.choice(len(names), size=num_requests, p=probabilities)
    return names, draws


def _validate_stream_args(
    num_requests: int, arrival_interval_ms: float, order: str, active_fraction: float
) -> None:
    if num_requests <= 0:
        raise ValueError("num_requests must be positive")
    if arrival_interval_ms <= 0:
        raise ValueError("arrival_interval_ms must be positive")
    if order not in ("scan", "shuffled"):
        raise ValueError(f"unknown order '{order}' (expected 'scan' or 'shuffled')")
    if not 0.0 < active_fraction <= 1.0:
        raise ValueError("active_fraction must be in (0, 1]")


def iter_request_stream(
    board: CircuitBoard,
    model: CoEModel,
    num_requests: int,
    arrival_interval_ms: float = DEFAULT_ARRIVAL_INTERVAL_MS,
    seed: int = 0,
    order: str = "scan",
    active_fraction: float = 1.0,
) -> Iterator[RequestSpec]:
    """Yield the stream's :class:`RequestSpec`\\ s one at a time.

    Byte-identical to :func:`generate_request_stream` with the same
    parameters — both paths seed one ``np.random.default_rng(seed)``
    and drive it through the identical call sequence (active-component
    subset, one category draw when shuffled, then the per-chunk batched
    Bernoulli draws) — but only ever holds one chunk of specs.
    Arguments are validated eagerly, before the first spec is requested.
    """
    _validate_stream_args(num_requests, arrival_interval_ms, order, active_fraction)
    return itertools.chain.from_iterable(
        _generate_spec_chunks(
            board, model, num_requests, arrival_interval_ms, seed, order, active_fraction
        )
    )


#: Specs generated per chunk by the streaming path.  Chunking amortises
#: the generator suspension over thousands of specs (the consumer pulls
#: single specs out of plain list iterators at C speed) while keeping
#: peak memory at one chunk, far below the stream.  It is also the batch
#: size of the vectorised Bernoulli draws.
_SPEC_CHUNK_SIZE = 4096


# How many RNG draws realising one request of a category consumes:
_DRAW_NONE = 0  # every continuation certain — pipeline fixed, no draw
_DRAW_SINGLE = 1  # exactly one sub-unity continuation — one Bernoulli
_DRAW_SEQUENTIAL = 2  # several sub-unity continuations — data-dependent


class _CategoryTable:
    """Per-category draw plan, index-aligned with the active components.

    ``Router.resolve`` walks a rule's continuation probabilities and
    consumes one uniform per *reached* sub-unity probability.  For the
    inspection models (and any rule with at most one uncertain
    continuation) the draw count per request is a fixed property of the
    category, which is what makes batch realisation possible:

    * ``_DRAW_NONE`` — no uncertain continuation (or a single-stage
      pipeline): the realised pipeline is always the full pipeline and
      no uniform is consumed.
    * ``_DRAW_SINGLE`` — exactly one uncertain continuation at position
      ``j`` (always reached, since earlier continuations are certain):
      one uniform ``u`` is consumed; ``u < p`` realises the full
      pipeline, ``u >= p`` truncates it to ``pipeline[:j + 1]``.
    * ``_DRAW_SEQUENTIAL`` — two or more uncertain continuations: the
      number of uniforms depends on earlier outcomes, so these requests
      fall back to the scalar ``resolve`` (interleaved in request order
      to keep the RNG stream identical).
    """

    __slots__ = ("names", "full", "truncated", "kinds", "thresholds", "needs_scalar")

    def __init__(self, components, router: Router) -> None:
        count = len(components)
        names = np.empty(count, dtype=object)
        full = np.empty(count, dtype=object)
        truncated = np.empty(count, dtype=object)
        kinds = np.zeros(count, dtype=np.int8)
        thresholds = np.ones(count, dtype=np.float64)
        for index, component in enumerate(components):
            rule = router.rule(component.name)
            pipeline = rule.pipeline
            names[index] = component.name
            full[index] = pipeline
            truncated[index] = pipeline
            uncertain = [
                (position, probability)
                for position, probability in enumerate(rule.continuation_probabilities)
                if probability < 1.0
            ]
            if len(pipeline) == 1 or not uncertain:
                continue
            if len(uncertain) == 1:
                position, probability = uncertain[0]
                kinds[index] = _DRAW_SINGLE
                thresholds[index] = probability
                truncated[index] = pipeline[: position + 1]
            else:
                kinds[index] = _DRAW_SEQUENTIAL
        self.names = names
        self.full = full
        self.truncated = truncated
        self.kinds = kinds
        self.thresholds = thresholds
        self.needs_scalar = bool((kinds == _DRAW_SEQUENTIAL).any())


def _realise_batch(table: _CategoryTable, cat_idx: np.ndarray, rng) -> List[Tuple[str, ...]]:
    """Realised pipelines for a run of fixed-draw-count categories.

    One ``rng.random(k)`` call covers the run's ``k`` single-draw
    requests in request order; PCG64 consumes the bit stream exactly as
    ``k`` scalar ``rng.random()`` calls would, so the outcome matches
    the scalar reference bit-for-bit.
    """
    pipelines = table.full[cat_idx]
    draw_positions = np.flatnonzero(table.kinds[cat_idx] == _DRAW_SINGLE)
    if draw_positions.size:
        uniforms = rng.random(draw_positions.size)
        failed = draw_positions[uniforms >= table.thresholds[cat_idx[draw_positions]]]
        if failed.size:
            pipelines[failed] = table.truncated[cat_idx[failed]]
    return pipelines.tolist()


def _realise_chunk(
    table: _CategoryTable, cat_idx: np.ndarray, rng, resolve
) -> List[Tuple[str, ...]]:
    """Realised pipelines for one chunk, preserving scalar draw order.

    Requests of ``_DRAW_SEQUENTIAL`` categories (several uncertain
    continuations) split the chunk into batchable segments; each such
    request resolves scalarly in place so the RNG call sequence is
    identical to one scalar ``resolve`` per request.
    """
    if table.needs_scalar:
        sequential = np.flatnonzero(table.kinds[cat_idx] == _DRAW_SEQUENTIAL)
        if sequential.size:
            names = table.names
            pipelines: List[Tuple[str, ...]] = []
            previous = 0
            for position in sequential.tolist():
                if position > previous:
                    pipelines.extend(_realise_batch(table, cat_idx[previous:position], rng))
                pipelines.append(resolve(names[cat_idx[position]], rng))
                previous = position + 1
            if previous < cat_idx.shape[0]:
                pipelines.extend(_realise_batch(table, cat_idx[previous:], rng))
            return pipelines
    return _realise_batch(table, cat_idx, rng)


def _generate_spec_chunks(
    board: CircuitBoard,
    model: CoEModel,
    num_requests: int,
    arrival_interval_ms: float,
    seed: int,
    order: str,
    active_fraction: float,
) -> Iterator[List[RequestSpec]]:
    """Yield the stream as lists of at most :data:`_SPEC_CHUNK_SIZE` specs.

    The vectorised core shared by the eager and lazy paths.  Setup
    reproduces the scalar reference's RNG prologue exactly (active
    subset, then the single category draw when shuffled); each chunk
    then maps category indices through the :class:`_CategoryTable`,
    draws its Bernoullis in one batch (:func:`_realise_chunk`) and
    materialises specs via ``RequestSpec._make`` from the precomputed
    id/arrival/category/pipeline columns.
    """
    rng = np.random.default_rng(seed)
    components = _active_components(board, active_fraction, rng)
    table = _CategoryTable(components, model.router)
    names = table.names
    if order == "scan":
        # Scan order consumes no randomness for the categories: request
        # r's category index is position r mod pass-length in the
        # repeated scan pattern.  Chunk ids are consecutive, so both
        # columns are plain slices of one precomputed pass — no
        # per-chunk gather.
        quantities = np.array([component.quantity for component in components])
        pattern = np.repeat(np.arange(len(components)), quantities)
        pass_names = names[pattern].tolist()
        pass_length = pattern.shape[0]

        def chunk_columns(start: int, end: int):
            offset = start % pass_length
            stop = offset + (end - start)
            if stop <= pass_length:
                return pattern[offset:stop], pass_names[offset:stop]
            idx_parts = [pattern[offset:]]
            categories = pass_names[offset:]
            stop -= pass_length
            while stop > pass_length:
                idx_parts.append(pattern)
                categories += pass_names
                stop -= pass_length
            idx_parts.append(pattern[:stop])
            categories += pass_names[:stop]
            return np.concatenate(idx_parts), categories

    else:
        _, draws = _shuffled_draws(components, num_requests, rng)

        def chunk_columns(start: int, end: int):
            cat_idx = draws[start:end]
            return cat_idx, names[cat_idx].tolist()

    resolve = model.router.resolve
    make_spec = RequestSpec._make
    for start in range(0, num_requests, _SPEC_CHUNK_SIZE):
        end = min(start + _SPEC_CHUNK_SIZE, num_requests)
        cat_idx, categories = chunk_columns(start, end)
        pipelines = _realise_chunk(table, cat_idx, rng, resolve)
        arrivals = (np.arange(start, end) * arrival_interval_ms).tolist()
        yield list(map(make_spec, zip(range(start, end), arrivals, categories, pipelines)))


def _trusted_stream(
    name: str,
    requests: Tuple[RequestSpec, ...],
    arrival_interval_ms: float,
    board_name: str,
    seed: int,
) -> RequestStream:
    """Build a :class:`RequestStream` from generator-produced specs.

    Skips ``__post_init__`` (in particular the O(N) sorted-arrival
    scan): the generator emits ``request_id * arrival_interval_ms``
    arrivals with a positive interval, so sortedness and non-emptiness
    hold by construction.  User-assembled streams keep the validating
    public constructor.
    """
    stream = object.__new__(RequestStream)
    stream.__dict__.update(
        name=name,
        requests=requests,
        arrival_interval_ms=arrival_interval_ms,
        board_name=board_name,
        seed=seed,
    )
    return stream


def generate_request_stream(
    board: CircuitBoard,
    model: CoEModel,
    num_requests: int,
    arrival_interval_ms: float = DEFAULT_ARRIVAL_INTERVAL_MS,
    seed: int = 0,
    name: Optional[str] = None,
    order: str = "scan",
    active_fraction: float = 1.0,
) -> RequestStream:
    """Generate a request stream for a board.

    Parameters
    ----------
    board:
        The circuit board being inspected.
    model:
        The inspection CoE model (used to resolve pipelines).
    num_requests:
        Number of requests in the stream.
    arrival_interval_ms:
        Fixed inter-arrival time (4 ms in the paper).
    seed:
        Random seed controlling defect outcomes, the active-component
        subset, and shuffling when ``order="shuffled"``.
    order:
        ``"scan"`` for camera scan order (default, matches production),
        ``"shuffled"`` for i.i.d. category draws (stress test).
    active_fraction:
        Fraction of the board's component types inspected by this
        production run (1.0 = every type appears in the stream).
    """
    _validate_stream_args(num_requests, arrival_interval_ms, order, active_fraction)
    # Assemble chunk-wise rather than through iter_request_stream's
    # flattening iterator: list.extend copies each 4096-spec chunk at
    # C speed instead of pulling specs one at a time.  Generational GC
    # is paused for the bulk build: specs are immutable leaf tuples
    # that cannot participate in reference cycles, and walking hundreds
    # of thousands of them per collection is nearly half the eager cost.
    collected: List[RequestSpec] = []
    extend = collected.extend
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for chunk in _generate_spec_chunks(
            board, model, num_requests, arrival_interval_ms, seed, order, active_fraction
        ):
            extend(chunk)
        requests = tuple(collected)
    finally:
        if gc_was_enabled:
            gc.enable()
    return _trusted_stream(
        name=name or f"{board.name}-{num_requests}",
        requests=requests,
        arrival_interval_ms=arrival_interval_ms,
        board_name=board.name,
        seed=seed,
    )
