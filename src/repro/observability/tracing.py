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
deliberately *not* tail keepers (a synchronous batch stamps one duration on
every member; head sampling covers those), and the tail threshold is a
cached float refreshed every ``_TAIL_REFRESH`` finishes.

Request traces have one path.  Whoever finishes a batch of requests — the
service's ``submit_batch``, for synchronous callers and dispatched requests
alike — decides all its members in one :meth:`Tracer.sample` lock window
and writes only the kept ones with :meth:`Tracer.emit_request`, so a dropped
trace costs its share of that window and no allocation or buffer traffic.
Nothing is held open per request: the dispatcher stamps each request's
enqueue instant and queue wait, which is all a root span needs.

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
from typing import Any, Sequence

from repro.observability.events import SpanLinked, SpanRecorded
from repro.observability.histogram import LatencyHistogram

__all__ = ["SpanHandle", "Tracer"]

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

    Durations are ``time.perf_counter()`` differences (the dispatcher stamps
    enqueue instants with the same clock) and span starts are ``time.time()``.
    """

    def __init__(
        self,
        recorder,
        sample_every: int = 1,
        tail_quantile: float = 0.95,
        min_tail_observations: int = 32,
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

    def sample(
        self,
        durations: Sequence[float],
        force_keep: bool = False,
        abandoned: int = 0,
    ) -> list[int]:
        """The keep decision for the requests of one batch, in one lock window.

        ``durations`` holds each served member's root-span duration; the
        returned indices are the members to keep, which the caller writes
        with :meth:`emit_request` (a dropped member costs no allocation).
        ``force_keep`` keeps every member (error traces).  ``abandoned``
        counts requests cancelled before they were served: started,
        finished and dropped, never written and never in the histogram.

        A member is kept by head sampling (every ``sample_every``-th finish
        of the tracer's running count) or as a tail exemplar: a request
        **strictly** slower than everything before it (trivially so for the
        first), or one at or above the cached tail threshold — the *upper*
        edge of the histogram bucket holding ``tail_quantile``, i.e. at
        least one bucket width (~19%) slower than the quantile itself.  A
        member that ties the batch-mate before it is never an exemplar: a
        synchronous batch stamps one duration on every member, and keeping
        its indistinguishable members would store copies of one trace (head
        sampling covers them), so such a batch keeps at most one exemplar,
        member 0.  The threshold is recomputed from a histogram snapshot
        after a batch that brings ``_TAIL_REFRESH`` finishes since the last
        refresh, so it lags by at most that many observations plus one
        batch; "slowest so far" does not lag at all.
        """
        kept: list[int] = []
        refresh = False
        with self._stats_lock:
            previous = math.nan
            for index, duration in enumerate(durations):
                tail = False
                if duration != previous:
                    if duration > self._max_observed:
                        tail = True  # strictly the slowest so far
                        self._max_observed = duration
                    elif duration >= self._tail_threshold:
                        tail = True
                    previous = duration
                if force_keep or tail or (
                    self.sample_every > 0 and self._finished % self.sample_every == 0
                ):
                    kept.append(index)
                self._finished += 1
                if tail:
                    self._tail_exemplars += 1
            members = len(durations)
            self._observed += members
            observed = self._observed
            if members and observed >= self.min_tail_observations and (
                self._tail_refreshed_at == 0
                or observed - self._tail_refreshed_at >= _TAIL_REFRESH
            ):
                self._tail_refreshed_at = observed
                refresh = True
            self._started += members + abandoned
            self._finished += abandoned
            self._kept += len(kept)
        for duration, run in itertools.groupby(durations):
            self.histogram.record(duration, count=sum(1 for _ in run))
        if refresh:
            threshold = self.histogram.snapshot().quantile_upper_bound(
                self.tail_quantile
            )
            with self._stats_lock:
                self._tail_threshold = threshold
        return kept

    def emit_request(
        self,
        start_perf: float,
        end_perf: float,
        estimator_name: str = "",
        members: int = 1,
        queue_wait: float | None = None,
        context: SpanHandle | None = None,
        batch: SpanHandle | None = None,
        amortized_seconds: float = 0.0,
        **attributes: Any,
    ) -> str:
        """Write one kept request trace straight to events; returns its id.

        The root ``request`` span runs from ``start_perf`` to ``end_perf``
        (``time.perf_counter()`` instants) and carries ``attributes``.
        ``queue_wait`` adds the request-owned ``queue_wait`` stage under it,
        starting with the root; ``context`` adds a ``"context"`` link to the
        enclosing shared span (the dispatcher batch); ``batch`` adds the
        ``"amortized"`` link that books ``amortized_seconds`` of that shared
        span to this request.  Sampling and counting happened in
        :meth:`sample`.
        """
        # One counter draw per request: the root span derives its id from
        # the trace id with a "-r" suffix (counter ids are bare hex, so the
        # suffixed form cannot collide with any other id).
        trace_id = self._new_id()
        start_wall = time.time() - (time.perf_counter() - start_perf)
        root = SpanHandle(
            trace_id, trace_id + "-r", "", "request", start_wall, start_perf,
            estimator_name, members,
        )
        root.duration_seconds = end_perf - start_perf
        root.attributes.update(attributes)
        emit = self.recorder.emit
        emit(self._span_event(root))
        if queue_wait is not None:
            stage = SpanHandle(
                trace_id, self._new_id(), root.span_id, "queue_wait", start_wall,
                start_perf, estimator_name,
            )
            stage.duration_seconds = float(queue_wait)
            emit(self._span_event(stage))
        for shared, seconds, link_kind in (
            (context, 0.0, "context"),
            (batch, amortized_seconds, "amortized"),
        ):
            if shared is not None:
                emit(
                    SpanLinked(
                        trace_id=trace_id,
                        span_id=shared.span_id,
                        span_name=shared.name,
                        amortized_seconds=float(seconds),
                        members=shared.members,
                        link_kind=link_kind,
                    )
                )
        return trace_id

    def fail(self, error: BaseException, start_perf: float, **emit: Any) -> str:
        """Sample and write the trace of a request that errored.

        Error traces are always kept; the root span ends now and carries
        ``error``.  ``emit`` takes :meth:`emit_request`'s keywords.
        """
        end = time.perf_counter()
        self.sample([end - start_perf], force_keep=True)
        return self.emit_request(
            start_perf, end, error=f"{type(error).__name__}: {error}", **emit
        )

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
            span_id=self._new_id(),
            parent_id=parent_id,
            name=name,
            start_wall=time.time(),
            start_perf=time.perf_counter(),
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
        handle.duration_seconds = time.perf_counter() - handle.start_perf
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
