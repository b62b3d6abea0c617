"""Production observability: a persistent metrics/event store and a recorded
perf trajectory.

Until now every perf claim this repo makes (serving speedups, pool-index
scoring wins, Table 15 prediction latency) was printed to stdout and lost.
This package makes serving history and perf numbers durable:

* :mod:`repro.observability.events` — the typed event taxonomy (requests
  served, cache hit/miss deltas, dispatcher batches, pool-index builds,
  feedback observations, drift trips, accept-gate decisions, model swaps);
* :mod:`repro.observability.buffer` — :class:`EventBuffer`, the bounded
  lock-free-on-the-hot-path buffer instrumentation emits into (its ordering
  contract is pinned by a hypothesis property test);
* :mod:`repro.observability.store` — :class:`EventStore`, the SQLite sink
  with deduplicated records and queryable aggregate views (per-estimator
  q-error, tail latency, swap history keyed by ``model_generation``);
* :mod:`repro.observability.recorder` — :class:`EventRecorder`, the
  buffer+store façade the serving stack holds (enabled through
  :class:`repro.serving.ObservabilityConfig`);
* :mod:`repro.observability.tracing` — :class:`Tracer`, per-request span
  trees with coalescing-aware fan-in attribution (shared batch/kernel spans
  recorded once, linked to member traces with explicit amortized shares)
  and head + tail-exemplar sampling;
* :mod:`repro.observability.histogram` — :class:`LatencyHistogram`,
  fixed-memory log-bucketed latency distributions with mergeable snapshots
  and a one-bucket-width quantile error bound;
* :mod:`repro.observability.counters` — :class:`Counters`, named numbers
  under one lock: every serving component keeps its counts in one (its
  ``stats``) and reports them through ``stats_snapshot()``;
* :mod:`repro.observability.bench` — the machine-readable benchmark result
  schema and the ``BENCH_serving.json`` / ``BENCH_repro.json`` trajectory
  files that ``scripts/bench_report.py`` diffs and gates in CI.

See the "Observability" section of ``docs/architecture.md`` for the event
taxonomy, the SQLite schema, and how to query the views.
"""

from repro.observability.bench import (
    SCHEMA_VERSION,
    BenchRun,
    current_profile,
    env_fingerprint,
    git_revision,
    load_rows,
    load_trajectory,
    merge_trajectory,
    row_key,
    validate_row,
    write_rows,
)
from repro.observability.buffer import BufferedEvent, EventBuffer
from repro.observability.counters import Counters
from repro.observability.events import (
    EVENT_KINDS,
    AcceptGateDecision,
    ArtifactLoaded,
    ArtifactPromoted,
    ArtifactRolledBack,
    ArtifactSaved,
    BatchServed,
    DispatcherBatch,
    DriftTrip,
    Event,
    FeedbackRecorded,
    IndexBuild,
    ModelSwap,
    PlanCompiled,
    PlanSwap,
    RequestServed,
    SpanLinked,
    SpanRecorded,
    StatsDrained,
    event_from_payload,
)
from repro.observability.histogram import HistogramSnapshot, LatencyHistogram
from repro.observability.recorder import EventRecorder
from repro.observability.store import EventStore
from repro.observability.tracing import SpanHandle, Tracer

__all__ = [
    "AcceptGateDecision",
    "ArtifactLoaded",
    "ArtifactPromoted",
    "ArtifactRolledBack",
    "ArtifactSaved",
    "BatchServed",
    "BenchRun",
    "BufferedEvent",
    "Counters",
    "DispatcherBatch",
    "DriftTrip",
    "EVENT_KINDS",
    "Event",
    "EventBuffer",
    "EventRecorder",
    "EventStore",
    "FeedbackRecorded",
    "HistogramSnapshot",
    "IndexBuild",
    "LatencyHistogram",
    "ModelSwap",
    "PlanCompiled",
    "PlanSwap",
    "RequestServed",
    "SCHEMA_VERSION",
    "SpanHandle",
    "SpanLinked",
    "SpanRecorded",
    "StatsDrained",
    "Tracer",
    "current_profile",
    "env_fingerprint",
    "event_from_payload",
    "git_revision",
    "load_rows",
    "load_trajectory",
    "merge_trajectory",
    "row_key",
    "validate_row",
    "write_rows",
]
