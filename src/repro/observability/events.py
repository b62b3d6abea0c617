"""The typed event taxonomy of the serving stack.

Every observable thing the serving layer does is one of the frozen event
dataclasses below, emitted through an
:class:`repro.observability.EventRecorder` and sunk to the SQLite-backed
:class:`repro.observability.EventStore`.  Events are *data*, not behaviour:
each one is a flat record of scalars (plus short strings), cheap to
construct on a hot path and trivially serializable.

The taxonomy (``kind`` → emitted by):

========================  ====================================================
``request_served``        :meth:`repro.serving.EstimationService.submit_batch`,
                          one per answered request (estimator, resolution,
                          model generation, attributed latency).
``batch_served``          the same method, one per planned batch — carries the
                          batch's cache hit/miss deltas, so cache behaviour is
                          on the record without touching the cache hot path.
``dispatcher_batch``      :class:`repro.serving.ServingDispatcher`, one per
                          coalesced batch drained from the queue.
``index_build``           :class:`repro.serving.PoolEncodingIndex`, one per
                          slab build / rebuild / incremental append.
``feedback``              :class:`repro.serving.FeedbackCollector`, one per
                          recorded ground-truth observation (the q-error
                          signal behind the per-estimator views).
``drift_trip``            :class:`repro.serving.AdaptationManager`, one per
                          drift evaluation whose policy fired.
``accept_gate``           the same manager, one per candidate gate decision
                          (accepted or rejected, with both q-error readings).
``model_swap``            the same manager, one per promoted hot swap — keyed
                          by ``model_generation``, the number stamped on every
                          subsequent :class:`repro.serving.EstimateResult`.
``plan_compile``          :func:`repro.serving.build_service_stack` and the
                          adaptation promote path, one per compiled
                          :class:`repro.serving.InferencePlan` (dtype, node
                          count, compile time), keyed by the generation the
                          plan serves.
``plan_swap``             :class:`repro.serving.AdaptationManager`, one per
                          plan handover — ``promoted`` when the candidate's
                          freshly compiled plan goes live with the swap,
                          ``rollback`` when a failed promote leaves the
                          incumbent's plan bound.
``artifact_saved``        :class:`repro.artifacts.ArtifactStore`, one per
                          snapshot bundle persisted (build, adaptation
                          promote, or manual save), keyed by the generation
                          the bundle serves.
``artifact_loaded``       the same store, one per verified bundle
                          deserialized for a cold-start boot.
``artifact_promoted``     the same store, one per atomic ``latest``-pointer
                          advance (with the previous generation on record).
``artifact_rolled_back``  the same store, one per pointer rollback to the
                          previous generation.
``stats_drained``         no longer emitted: service counters count from
                          boot and are never drained.  The kind stays
                          readable, since a persistent store written by an
                          older build may hold such events.
``span``                  :class:`repro.observability.tracing.Tracer`, one per
                          completed (and kept) tracing span — request roots,
                          per-request stages, and shared batch/kernel spans.
                          Routed to the store's ``spans`` table.
``span_link``             the same tracer, one per fan-in link from a request
                          trace to a shared span, carrying the request's
                          ``amortized_seconds`` share.  Routed to the store's
                          ``span_links`` table.
========================  ====================================================

Each event exposes :meth:`Event.payload` (every field, a plain dict) and
:meth:`Event.value` — the event's *primary scalar* (a request's latency, a
feedback observation's q-error, ...), hoisted into its own SQL column so the
store's aggregate views never need to parse JSON.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Any, ClassVar


@dataclass(frozen=True)
class Event:
    """Base class of every serving event.

    Subclasses set ``kind`` (the store's discriminator column) and
    ``value_field`` (the field :meth:`value` surfaces to the store's
    ``value`` column); an ``estimator_name`` / ``generation`` field is the
    event's grouping column.
    """

    kind: ClassVar[str] = "event"
    #: The field holding the event's primary scalar (None: it has none).
    value_field: ClassVar[str | None] = None

    def payload(self) -> dict[str, Any]:
        """Every field as a plain dict (JSON-ready)."""
        return asdict(self)

    def value(self) -> float | None:
        """The :attr:`value_field` as a float, or None when there is none."""
        if self.value_field is None:
            return None
        return float(getattr(self, self.value_field))

    def estimator(self) -> str | None:
        """The estimator name this event attributes to, when any."""
        return getattr(self, "estimator_name", None)

    def model_generation(self) -> int | None:
        """The model generation this event attributes to, when any."""
        generation = getattr(self, "generation", None)
        return int(generation) if generation is not None else None


@dataclass(frozen=True)
class RequestServed(Event):
    """One answered estimation request."""

    kind: ClassVar[str] = "request_served"
    value_field: ClassVar[str] = "latency_seconds"

    estimator_name: str
    resolution: str
    generation: int
    estimate: float
    latency_seconds: float
    pool_matches: int
    pairs_scored: int
    used_fallback: bool


@dataclass(frozen=True)
class BatchServed(Event):
    """One planned service batch, with its cache hit/miss deltas."""

    kind: ClassVar[str] = "batch_served"
    value_field: ClassVar[str] = "elapsed_seconds"

    estimator_name: str
    size: int
    elapsed_seconds: float
    planned_pairs: int
    scored_pairs: int
    featurization_hits: int
    featurization_misses: int
    encoding_hits: int
    encoding_misses: int


@dataclass(frozen=True)
class DispatcherBatch(Event):
    """One batch the dispatcher coalesced and handed to the service."""

    kind: ClassVar[str] = "dispatcher_batch"
    value_field: ClassVar[str] = "size"

    size: int
    #: 1 when the batch served anything, 0 when every member was cancelled
    #: (one estimator serves every request, so a batch is one group).
    groups: int
    cancelled: int
    queue_depth: int


@dataclass(frozen=True)
class IndexBuild(Event):
    """One pool-index slab build, rebuild, or incremental append."""

    kind: ClassVar[str] = "index_build"
    value_field: ClassVar[str] = "rows"

    signature: str
    rows: int
    mode: str  # "build" | "rebuild" | "append"


@dataclass(frozen=True)
class FeedbackRecorded(Event):
    """One ground-truth observation landing in the feedback window."""

    kind: ClassVar[str] = "feedback"
    value_field: ClassVar[str] = "q_error"

    estimator_name: str
    estimate: float
    true_cardinality: float
    q_error: float
    sequence: int


@dataclass(frozen=True)
class DriftTrip(Event):
    """One drift evaluation whose policy fired."""

    kind: ClassVar[str] = "drift_trip"
    value_field: ClassVar[str] = "q_error"

    estimator_name: str
    q_error: float
    baseline_q_error: float
    observations: int
    row_delta: float
    reasons: tuple[str, ...]


@dataclass(frozen=True)
class AcceptGateDecision(Event):
    """One candidate validation verdict (shadow deployment gate)."""

    kind: ClassVar[str] = "accept_gate"
    value_field: ClassVar[str] = "candidate_q_error"

    estimator_name: str
    accepted: bool
    incumbent_q_error: float
    candidate_q_error: float
    holdout_size: int
    mode: str  # "incremental" | "full"


@dataclass(frozen=True)
class ModelSwap(Event):
    """One promoted zero-downtime hot swap, keyed by model generation."""

    kind: ClassVar[str] = "model_swap"
    value_field: ClassVar[str] = "post_swap_q_error"

    estimator_name: str
    generation: int
    pre_swap_q_error: float
    post_swap_q_error: float
    requests_between_swaps: int
    mode: str
    retrain_seconds: float


@dataclass(frozen=True)
class PlanCompiled(Event):
    """One compiled inference plan (build-time or pre-swap recompile)."""

    kind: ClassVar[str] = "plan_compile"
    value_field: ClassVar[str] = "compile_seconds"

    estimator_name: str
    generation: int
    dtype: str
    compile_seconds: float


@dataclass(frozen=True)
class PlanSwap(Event):
    """One inference-plan handover during an adaptation promote.

    ``outcome`` is ``"promoted"`` when the candidate's recompiled plan went
    live with the model swap, ``"rollback"`` when the promote failed and the
    incumbent kept serving on its own plan.  A model's plan, caches and index
    slabs live and die with its estimator, so the incumbent's were never
    touched: rollback is a statement of fact, not a re-attach.
    """

    kind: ClassVar[str] = "plan_swap"
    value_field: ClassVar[str] = "generation"

    estimator_name: str
    generation: int
    dtype: str
    outcome: str  # "promoted" | "rollback"


@dataclass(frozen=True)
class SpanRecorded(Event):
    """One completed tracing span (see :mod:`repro.observability.tracing`).

    A span is a timed region of the serving pipeline, attributed to a trace
    (one request, or one shared batch).  ``parent_id`` is empty for a trace's
    root span; ``members`` is how many requests a *shared* span served (1 for
    request-owned spans).  ``name`` is the span taxonomy kind (``request``,
    ``queue_wait``, ``dispatcher_batch``, ``service_batch``,
    ``slab_kernel``, ``index_build``, ...);
    the event-kind discriminator stays ``span`` so every span lands in the
    store's ``spans`` table.
    """

    kind: ClassVar[str] = "span"
    value_field: ClassVar[str] = "duration_seconds"

    trace_id: str
    span_id: str
    parent_id: str
    name: str
    start: float
    duration_seconds: float
    estimator_name: str = ""
    members: int = 1
    attributes: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class SpanLinked(Event):
    """One fan-in link from a request trace to a shared span.

    Coalescing means one ``dispatcher_batch`` / ``service_batch`` /
    ``slab_kernel`` span serves N requests; the shared span is recorded
    **once** (:class:`SpanRecorded`) and each member request links to it
    here, with its share of the shared time made explicit in
    ``amortized_seconds``.  ``link_kind`` is ``"amortized"`` when the share
    counts toward the request's ``latency_seconds`` accounting, or
    ``"context"`` for links that carry attribution without time (the
    dispatcher batch wraps the service batch, so counting both would
    double-book the same wall clock).
    """

    kind: ClassVar[str] = "span_link"
    value_field: ClassVar[str] = "amortized_seconds"

    trace_id: str
    span_id: str
    span_name: str
    amortized_seconds: float
    members: int = 1
    link_kind: str = "amortized"


@dataclass(frozen=True)
class ArtifactSaved(Event):
    """One snapshot bundle persisted to the generational artifact store.

    ``generation`` is the served model generation the bundle serves — the
    same number on :class:`ModelSwap` and every
    :class:`repro.serving.EstimateResult`, so the store's views can join
    "which snapshot" against "which swap" and "which answers".
    """

    kind: ClassVar[str] = "artifact_saved"
    value_field: ClassVar[str] = "size_bytes"

    generation: int
    source: str  # "build" | "promote" | "manual"
    size_bytes: int


@dataclass(frozen=True)
class ArtifactLoaded(Event):
    """One checksum-verified bundle deserialized for a cold-start boot."""

    kind: ClassVar[str] = "artifact_loaded"
    value_field: ClassVar[str] = "generation"

    generation: int
    source: str  # the loaded bundle's recorded save source
    adaptation_downgraded: bool = False


@dataclass(frozen=True)
class ArtifactPromoted(Event):
    """One atomic advance of the store's ``latest`` pointer."""

    kind: ClassVar[str] = "artifact_promoted"
    value_field: ClassVar[str] = "generation"

    generation: int
    previous: int | None


@dataclass(frozen=True)
class ArtifactRolledBack(Event):
    """One ``latest``-pointer rollback to the previous generation."""

    kind: ClassVar[str] = "artifact_rolled_back"
    value_field: ClassVar[str] = "generation"

    generation: int  # now serving again
    rolled_back_from: int | None


@dataclass(frozen=True)
class StatsDrained(Event):
    """One drained service-counter snapshot, as older builds emitted it.

    Nothing emits it now: the service's counters count from boot and are
    never reset.  The class stays in :data:`EVENT_KINDS` because
    :meth:`repro.observability.EventStore.events` raises ``KeyError`` on an
    unknown kind, and a persistent store is reused across restarts.
    """

    kind: ClassVar[str] = "stats_drained"
    value_field: ClassVar[str] = "requests"

    requests: int
    batches: int
    planned_pairs: int
    scored_pairs: int
    fallbacks: int
    total_seconds: float


#: Every event class, keyed by its ``kind`` discriminator.
EVENT_KINDS: dict[str, type[Event]] = {
    cls.kind: cls
    for cls in (
        RequestServed,
        BatchServed,
        DispatcherBatch,
        IndexBuild,
        FeedbackRecorded,
        DriftTrip,
        AcceptGateDecision,
        ModelSwap,
        PlanCompiled,
        PlanSwap,
        SpanRecorded,
        SpanLinked,
        ArtifactSaved,
        ArtifactLoaded,
        ArtifactPromoted,
        ArtifactRolledBack,
        StatsDrained,
    )
}


def event_from_payload(kind: str, payload: dict[str, Any]) -> Event:
    """Rebuild a typed event from a stored ``(kind, payload)`` record.

    Raises:
        KeyError: for an unknown ``kind``.
        TypeError: when the payload does not match the event's fields.
    """
    cls = EVENT_KINDS[kind]
    known = {spec.name for spec in fields(cls)}
    values = {key: value for key, value in payload.items() if key in known}
    if "reasons" in values and isinstance(values["reasons"], list):
        values["reasons"] = tuple(values["reasons"])
    if "attributes" in values and isinstance(values["attributes"], list):
        values["attributes"] = tuple(
            (str(key), str(value)) for key, value in values["attributes"]
        )
    return cls(**values)
