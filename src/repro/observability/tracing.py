"""Request-scoped distributed tracing with coalescing-aware attribution.

Every latency layer this repo has stacked — the coalescing dispatcher, the
pool-index slabs, the compiled inference plans — amortizes work across
requests, which is exactly what makes a slow request hard to explain from
end-to-end numbers alone.  :class:`Tracer` produces **span trees**: each
request gets a trace (``trace_id``) whose root ``request`` span is broken
into timed stages, and each stage is either

* a **request-owned span** (``queue_wait`` — time between dispatcher enqueue
  and batch pickup), recorded under the request's own trace, or
* a **link to a shared span**: one ``dispatcher_batch`` / ``service_batch``
  / ``plan`` / ``slab_kernel`` / ``collapse`` /
  ``index_build`` span serves N coalesced requests, so it is recorded
  *once* (under its own batch trace) and every member request records a
  :class:`repro.observability.SpanLinked` pointing at it.

The attribution rule that keeps the books balanced: a shared span's time is
divided into an explicit ``amortized_seconds = duration / members`` on each
link, and only links of kind ``"amortized"`` count toward a request's
latency — the ``service_batch`` link uses the *same* elapsed/size division
that produces :attr:`repro.serving.EstimateResult.latency_seconds`, so for
every traced request

    sum(amortized links) == latency_seconds        (exactly), and
    root duration ≈ queue_wait + latency_seconds   (within scheduling noise).

Nested shared spans (the service batch inside a dispatcher batch, the slab
kernel inside the service batch) link with kind ``"context"``: they carry
attribution without re-counting wall clock that an enclosing amortized link
already books.  ``tests/test_observability_tracing.py`` pins the identity.

**Cost discipline.**  Like ``recorder is None``, the whole instrumentation
collapses to one attribute test per call site when tracing is off.  When
on, shared spans are always emitted (a handful per batch), while request
traces are *sampled*: every ``sample_every``-th request is kept
(head sampling), plus tail exemplars — any request that is **strictly** the
slowest seen so far, and any request at least one histogram bucket slower
than the ``tail_quantile`` of the tracer's own latency histogram — so a p99
investigation always finds a concrete full trace.  Ties with the bulk are
deliberately *not* tail keepers (a coalesced batch stamps one latency on
every member; head sampling covers those), and the tail threshold is a
cached float refreshed every ``_TAIL_REFRESH`` finishes, so a dropped
trace costs a handful of dataclass constructions, two short lock windows,
and zero buffer traffic.

Shared spans nest through a thread-local stack: :meth:`Tracer.begin` inside
an open span parents to it automatically (the dispatcher thread opens
``dispatcher_batch``, the service's ``service_batch`` lands inside it, the
kernel spans inside that), and a :meth:`Tracer.begin` with an empty stack
starts a standalone trace (warm-time index builds, lifecycle swaps).
"""

from __future__ import annotations

import itertools
import math
import threading
import time
import uuid
from typing import Any, Callable

from repro.observability.events import SpanLinked, SpanRecorded
from repro.observability.histogram import LatencyHistogram

__all__ = ["RequestTrace", "SpanHandle", "Tracer"]

#: Finishes between tail-threshold recomputations.  Each refresh pays one
#: histogram snapshot (a bucket-tuple copy plus a quantile walk); in between
#: the hot path compares against a cached float.
_TAIL_REFRESH = 64


def _stringify(attributes: dict[str, Any]) -> tuple[tuple[str, str], ...]:
    """Attribute values as repr-round-trippable strings, sorted by key."""
    return tuple(
        (key, repr(value) if isinstance(value, float) else str(value))
        for key, value in sorted(attributes.items())
    )


class SpanHandle:
    """A span in progress (shared/batch side).

    Mutable and cheap; holds identity (so links can reference it after it
    closes) plus the start instants.  Close through :meth:`Tracer.end` (or
    the :meth:`Tracer.span` context manager).
    """

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "start_wall",
        "start_perf",
        "estimator_name",
        "members",
        "attributes",
        "duration_seconds",
    )

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_id: str,
        name: str,
        start_wall: float,
        start_perf: float,
        estimator_name: str = "",
        members: int = 1,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_wall = start_wall
        self.start_perf = start_perf
        self.estimator_name = estimator_name
        self.members = members
        self.attributes: dict[str, Any] = {}
        self.duration_seconds = 0.0

    def set(self, **attributes: Any) -> "SpanHandle":
        """Attach attributes (merged; later keys win)."""
        self.attributes.update(attributes)
        return self


class RequestTrace:
    """One request's span tree, accumulated on the caller/dispatcher side.

    Owned by a single request at a time (created at submit, finished when the
    request's result is stamped), so it takes no locks of its own.  Spans and
    links accumulate locally and are emitted — or dropped — in one decision
    at :meth:`finish`, which is what makes sampling free for dropped traces.
    """

    __slots__ = ("tracer", "trace_id", "root", "_spans", "_links", "_done")

    def __init__(self, tracer: "Tracer", trace_id: str, root: SpanHandle) -> None:
        self.tracer = tracer
        self.trace_id = trace_id
        self.root = root
        self._spans: list[SpanHandle] = []
        self._links: list[tuple[str, str, float, int, str]] = []
        self._done = False

    def add_span(
        self, name: str, duration_seconds: float, start: float | None = None, **attributes: Any
    ) -> None:
        """Record a completed request-owned stage (child of the root span)."""
        handle = SpanHandle(
            trace_id=self.trace_id,
            span_id=self.tracer._new_span_id(),
            parent_id=self.root.span_id,
            name=name,
            start_wall=start if start is not None else self.tracer.wall_clock(),
            start_perf=0.0,
            estimator_name=self.root.estimator_name,
        )
        handle.duration_seconds = float(duration_seconds)
        handle.attributes.update(attributes)
        self._spans.append(handle)

    def link(
        self,
        shared: SpanHandle,
        amortized_seconds: float,
        link_kind: str = "amortized",
    ) -> None:
        """Link this trace to a shared span with its amortized time share.

        Stored as a raw tuple; the :class:`repro.observability.SpanLinked`
        event is materialized at :meth:`finish` only if the trace is kept,
        so dropped traces never pay dataclass construction.
        """
        self._links.append(
            (
                shared.span_id,
                shared.name,
                float(amortized_seconds),
                shared.members,
                link_kind,
            )
        )

    def fail(self, error: BaseException | str) -> None:
        """Finish a trace whose request errored.  Error traces always keep."""
        self.root.attributes["error"] = (
            f"{type(error).__name__}: {error}"
            if isinstance(error, BaseException)
            else str(error)
        )
        self.finish(force_keep=True)

    def abandon(self) -> None:
        """Discard a trace whose request was cancelled before serving."""
        if self._done:
            return
        self._done = True
        self.tracer._count_finish(kept=False, tail=False)

    def finish(
        self,
        latency_seconds: float = float("nan"),
        force_keep: bool = False,
        end_perf: float | None = None,
        **attributes: Any,
    ) -> bool:
        """Close the root span, apply the sampling policy, emit if kept.

        ``latency_seconds`` (the service's attributed per-request latency)
        is stamped on the root span so a stored trace carries the number its
        stages must account for.  ``end_perf`` lets a batch owner finish
        every member against one shared end instant — without it, the
        member-by-member finish loop itself skews the root durations into a
        strictly increasing ramp, and the "slowest so far" exemplar rule
        would keep a slow batch wholesale.  Returns whether the trace was
        kept.  Idempotent: a second finish is a no-op.
        """
        if self._done:
            return False
        self._done = True
        tracer = self.tracer
        end = tracer.clock() if end_perf is None else end_perf
        self.root.duration_seconds = end - self.root.start_perf
        if not math.isnan(latency_seconds):
            self.root.attributes["latency_seconds"] = float(latency_seconds)
        if attributes:
            self.root.attributes.update(attributes)
        kept, _ = tracer._sample(self.root.duration_seconds, force_keep)
        if not kept:
            return False
        recorder = tracer.recorder
        recorder.emit(tracer._span_event(self.root))
        for handle in self._spans:
            recorder.emit(tracer._span_event(handle))
        for span_id, span_name, amortized, members, link_kind in self._links:
            recorder.emit(
                SpanLinked(
                    trace_id=self.trace_id,
                    span_id=span_id,
                    span_name=span_name,
                    amortized_seconds=amortized,
                    members=members,
                    link_kind=link_kind,
                )
            )
        return True


class Tracer:
    """The span factory the serving stack shares.

    Args:
        recorder: the :class:`repro.observability.EventRecorder` spans sink
            through (same bounded buffer, same ``(source, sequence)`` dedup
            in the store as every other event).
        sample_every: keep every N-th finished request trace (head
            sampling).  1 keeps everything; 0 disables head sampling
            entirely (tail exemplars still keep the slow ones).
        tail_quantile: requests at least one histogram bucket slower than
            this quantile of the tracer's own latency histogram are kept
            regardless of head sampling (the comparison uses the quantile
            bucket's *upper* edge — see
            :meth:`repro.observability.histogram.HistogramSnapshot.quantile_upper_bound`
            — so a degenerate distribution where every request ties does
            not keep everything).  A request strictly slower than
            everything before it is always kept, even before the histogram
            has warmed up.
        min_tail_observations: how many finished requests the histogram
            needs before the tail threshold is trusted.
        clock: monotonic duration clock (``time.perf_counter``).
        wall_clock: epoch clock for span start timestamps (``time.time``).
    """

    def __init__(
        self,
        recorder,
        sample_every: int = 1,
        tail_quantile: float = 0.95,
        min_tail_observations: int = 32,
        clock: Callable[[], float] = time.perf_counter,
        wall_clock: Callable[[], float] = time.time,
    ) -> None:
        if recorder is None:
            raise ValueError(
                "Tracer needs an EventRecorder; to disable tracing, hold "
                "tracer=None (the same discipline as recorder=None)"
            )
        if sample_every < 0:
            raise ValueError(f"sample_every must be >= 0, got {sample_every!r}")
        if not 0.0 < tail_quantile <= 1.0:
            raise ValueError(
                f"tail_quantile must lie in (0, 1], got {tail_quantile!r}"
            )
        self.recorder = recorder
        self.sample_every = int(sample_every)
        self.tail_quantile = float(tail_quantile)
        self.min_tail_observations = int(min_tail_observations)
        self.clock = clock
        self.wall_clock = wall_clock
        #: Root-request durations; drives the tail-exemplar threshold and
        #: the ``trace_*`` quantile gauges.
        self.histogram = LatencyHistogram()
        # IDs are a per-tracer counter behind a random prefix: cheap on the
        # hot path, and two processes flushing into one store cannot collide.
        self._id_prefix = uuid.uuid4().hex[:8]
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._stats_lock = threading.Lock()
        self._started = 0
        self._finished = 0
        self._kept = 0
        self._tail_exemplars = 0
        self._shared_spans = 0
        # Tail-exemplar state (guarded by _stats_lock): the strict running
        # maximum, and a cached threshold refreshed every _TAIL_REFRESH
        # finishes so the hot path never walks the histogram buckets.
        self._observed = 0
        self._max_observed = -math.inf
        self._tail_threshold = math.inf
        self._tail_refreshed_at = 0

    # ------------------------------------------------------------------ #
    # identity

    def _new_id(self) -> str:
        return f"{self._id_prefix}-{next(self._ids):x}"

    def _new_span_id(self) -> str:
        return self._new_id()

    def _stack(self) -> list[SpanHandle]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span_event(self, handle: SpanHandle) -> SpanRecorded:
        return SpanRecorded(
            trace_id=handle.trace_id,
            span_id=handle.span_id,
            parent_id=handle.parent_id,
            name=handle.name,
            start=handle.start_wall,
            duration_seconds=handle.duration_seconds,
            estimator_name=handle.estimator_name,
            members=handle.members,
            attributes=_stringify(handle.attributes),
        )

    # ------------------------------------------------------------------ #
    # request traces

    def start_request(self, estimator_name: str = "") -> RequestTrace:
        """Open a request trace; close it with :meth:`RequestTrace.finish`."""
        # One counter draw per request: the root span derives its id from
        # the trace id with a "-r" suffix (counter ids are bare hex, so the
        # suffixed form cannot collide with any other id).
        trace_id = self._new_id()
        root = SpanHandle(
            trace_id=trace_id,
            span_id=trace_id + "-r",
            parent_id="",
            name="request",
            start_wall=self.wall_clock(),
            start_perf=self.clock(),
            estimator_name=estimator_name,
        )
        with self._stats_lock:
            self._started += 1
        return RequestTrace(self, trace_id, root)

    def _sample(self, duration: float, force_keep: bool) -> tuple[bool, bool]:
        """The keep decision for one finished request: ``(kept, is_tail)``.

        A tail exemplar is a request **strictly** slower than everything
        before it (trivially so for the first), or one at or above the
        cached tail threshold — the *upper* edge of the histogram bucket
        holding ``tail_quantile``, i.e. at least one bucket width (~19%)
        slower than the quantile itself.  Ties with the bulk never qualify:
        a coalesced batch stamps the identical latency on every member, and
        admitting ties would keep whole batches wholesale (head sampling
        covers them instead).  The threshold is recomputed from a histogram
        snapshot only every ``_TAIL_REFRESH`` finishes, so it lags by at
        most that many observations; "slowest so far" does not lag at all.

        Also books the finish counters (one lock window for the whole
        decision); :meth:`_count_finish` remains for abandoned traces only.
        """
        tail = False
        refresh = False
        with self._stats_lock:
            self._observed += 1
            observed = self._observed
            if duration > self._max_observed or observed == 1:
                tail = True  # strictly the slowest so far: always a keeper
                self._max_observed = duration
            elif duration >= self._tail_threshold:
                tail = True
            if observed >= self.min_tail_observations and (
                self._tail_refreshed_at == 0
                or observed - self._tail_refreshed_at >= _TAIL_REFRESH
            ):
                self._tail_refreshed_at = observed
                refresh = True
            kept = (
                force_keep
                or tail
                or (
                    self.sample_every > 0
                    and self._finished % self.sample_every == 0
                )
            )
            self._finished += 1
            if kept:
                self._kept += 1
            if tail:
                self._tail_exemplars += 1
        self.histogram.record(duration)
        if refresh:
            threshold = self.histogram.snapshot().quantile_upper_bound(
                self.tail_quantile
            )
            with self._stats_lock:
                self._tail_threshold = threshold
        return kept, tail

    def sample_owned_batch(self, members: int, duration: float) -> list[int]:
        """Bulk keep decision for a service-owned homogeneous batch.

        Synchronous callers (``estimate`` / ``estimate_many``) hand the
        service a batch whose members all share one root duration, one
        amortized link, and one latency — so the per-member sampling loop
        collapses: one lock window counts all ``members`` as started and
        finished, head sampling reduces to modular arithmetic over the
        finish counter (bit-identical to ``members`` sequential
        :meth:`_sample` calls), the histogram takes one bulk record, and a
        batch in the tail contributes exactly ONE exemplar (member 0) —
        its members are indistinguishable, so keeping more would spam the
        store with copies.  Returns the kept member indices; the caller
        materializes span events only for those (dropped members cost no
        allocation at all).
        """
        refresh = False
        kept: list[int] = []
        with self._stats_lock:
            tail = False
            observed = self._observed + members
            self._observed = observed
            if duration > self._max_observed or observed == members:
                tail = True
                self._max_observed = duration
            elif duration >= self._tail_threshold:
                tail = True
            if observed >= self.min_tail_observations and (
                self._tail_refreshed_at == 0
                or observed - self._tail_refreshed_at >= _TAIL_REFRESH
            ):
                self._tail_refreshed_at = observed
                refresh = True
            if self.sample_every > 0:
                first = (-self._finished) % self.sample_every
                kept = list(range(first, members, self.sample_every))
            if tail and (not kept or kept[0] != 0):
                kept.insert(0, 0)
            self._started += members
            self._finished += members
            self._kept += len(kept)
            if tail:
                self._tail_exemplars += 1
        self.histogram.record(duration, count=members)
        if refresh:
            threshold = self.histogram.snapshot().quantile_upper_bound(
                self.tail_quantile
            )
            with self._stats_lock:
                self._tail_threshold = threshold
        return kept

    def emit_owned_member(
        self,
        estimator_name: str,
        start_wall: float,
        start_perf: float,
        end_perf: float,
        batch_span: SpanHandle,
        amortized_seconds: float,
        **attributes: Any,
    ) -> str:
        """Materialize one kept member of an owned batch straight to events.

        The root ``request`` span plus its amortized link to ``batch_span``
        — no :class:`RequestTrace` needed, because an owned member has no
        request-owned child stages.  Sampling and counting already happened
        in :meth:`sample_owned_batch`.  Returns the new trace id.
        """
        trace_id = self._new_id()
        root = SpanHandle(
            trace_id=trace_id,
            span_id=trace_id + "-r",
            parent_id="",
            name="request",
            start_wall=start_wall,
            start_perf=start_perf,
            estimator_name=estimator_name,
        )
        root.duration_seconds = end_perf - start_perf
        root.attributes.update(attributes)
        self.recorder.emit(self._span_event(root))
        self.recorder.emit(
            SpanLinked(
                trace_id=trace_id,
                span_id=batch_span.span_id,
                span_name=batch_span.name,
                amortized_seconds=float(amortized_seconds),
                members=batch_span.members,
                link_kind="amortized",
            )
        )
        return trace_id

    def _count_finish(self, kept: bool, tail: bool) -> None:
        with self._stats_lock:
            self._finished += 1
            if kept:
                self._kept += 1
            if tail:
                self._tail_exemplars += 1

    # ------------------------------------------------------------------ #
    # shared / batch spans

    def begin(
        self,
        name: str,
        members: int = 1,
        estimator_name: str = "",
        **attributes: Any,
    ) -> SpanHandle:
        """Open a shared span on this thread's stack.

        Inside an open span it nests (same trace, parented); with an empty
        stack it starts a standalone trace.  Always paired with :meth:`end`
        on the same thread.
        """
        stack = self._stack()
        if stack:
            parent = stack[-1]
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            trace_id, parent_id = self._new_id(), ""
        handle = SpanHandle(
            trace_id=trace_id,
            span_id=self._new_span_id(),
            parent_id=parent_id,
            name=name,
            start_wall=self.wall_clock(),
            start_perf=self.clock(),
            estimator_name=estimator_name,
            members=members,
        )
        handle.attributes.update(attributes)
        stack.append(handle)
        return handle

    def end(self, handle: SpanHandle, **attributes: Any) -> SpanHandle:
        """Close a shared span and emit it (shared spans are never sampled).

        Pops the thread-local stack down to (and including) ``handle``, so a
        call site that leaks a nested span via an exception cannot poison
        the parenting of later batches on this thread.
        """
        handle.duration_seconds = self.clock() - handle.start_perf
        handle.attributes.update(attributes)
        stack = self._stack()
        while stack:
            top = stack.pop()
            if top is handle:
                break
        self.recorder.emit(self._span_event(handle))
        with self._stats_lock:
            self._shared_spans += 1
        return handle

    class _SpanContext:
        __slots__ = ("_tracer", "_name", "_kwargs", "handle")

        def __init__(self, tracer: "Tracer", name: str, kwargs: dict[str, Any]) -> None:
            self._tracer = tracer
            self._name = name
            self._kwargs = kwargs
            self.handle: SpanHandle | None = None

        def __enter__(self) -> SpanHandle:
            self.handle = self._tracer.begin(self._name, **self._kwargs)
            return self.handle

        def __exit__(self, exc_type, exc, tb) -> None:
            self._tracer.end(self.handle)

    def span(
        self, name: str, members: int = 1, estimator_name: str = "", **attributes: Any
    ) -> "_SpanContext":
        """``with tracer.span("index_build") as handle: ...`` convenience."""
        return self._SpanContext(
            self,
            name,
            {"members": members, "estimator_name": estimator_name, **attributes},
        )

    # ------------------------------------------------------------------ #
    # reporting

    def stats_snapshot(self) -> dict[str, float]:
        """Tracer gauges, mergeable into ``format_service_stats``."""
        with self._stats_lock:
            started = self._started
            finished = self._finished
            kept = self._kept
            tail = self._tail_exemplars
            shared = self._shared_spans
        return {
            "traces_started": float(started),
            "traces_finished": float(finished),
            "traces_kept": float(kept),
            "traces_dropped": float(finished - kept),
            "trace_tail_exemplars": float(tail),
            "shared_spans": float(shared),
        }
