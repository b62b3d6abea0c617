"""A request-coalescing dispatcher: many threads in, few shared batches out.

:class:`repro.serving.EstimationService.submit_batch` already turns one
*caller's* batch into a few large deduplicated forward passes — but under
concurrent traffic every caller arrives with a batch of one, and per-request
inference throws that advantage away.  :class:`ServingDispatcher` closes the
gap with micro-batching: callers :meth:`~ServingDispatcher.submit` from any
number of threads and immediately get a future; a single dispatcher thread
drains the shared request queue, funnels the coalesced queries through
:meth:`repro.serving.EstimationService.submit_batch` (one
:meth:`repro.core.cnt2crd.Cnt2CrdEstimator.slab_values` call), and resolves each
caller's future with its :class:`repro.serving.EstimateResult`.

Coalescing policy (stated here once; every other doc refers to it): **a
batch is the backlog at pickup, capped by ``max_batch``; an idle dispatcher
adds no wait.**  The thread blocks for the head request, sweeps up whatever
else is already queued without blocking, and serves.  There is no straggler
window and no clock: requests that arrive while batch *k* is being served
*are* batch *k+1*, so batches grow with load by themselves.  One batch is
in service at a time, and a blocking :meth:`~ServingDispatcher.estimate`
with no deadline that finds the dispatcher idle is that batch, served on
the caller's own thread: a lone request (a closed-loop caller, a cluster
worker serving one routed request) costs no thread hand-off.

Per-request :class:`repro.serving.RequestOptions` ride along (deadline,
tags); a caller whose deadline expires abandons
its request — cancelled before execution when possible and counted under the
``timed_out`` stat.

Coalescing does not change a single bit of any estimate: the CRN inference
path encodes each query in isolation and runs the pair head in fixed-shape
tiles (:meth:`repro.core.crn.CRNModel.rates_from_encodings`), so an estimate
is identical whether a query was served alone, inline, inside one caller's
batch, or coalesced with strangers' requests from other threads (asserted by
``tests/test_serving_dispatcher.py`` and
``benchmarks/bench_concurrent_serving.py``).

Failure isolation: when a coalesced batch fails as a whole (for example one
request has no matching pool query and the service has no fallback), the
dispatcher retries the batch's requests one by one, so exactly the poison
request's future receives the exception and every other caller still gets
its estimate.

Lifecycle: :meth:`start` spawns the dispatcher thread, :meth:`shutdown`
stops accepting new requests and (by default) drains everything already
queued before returning, and the context-manager form brackets both.
Requests may be enqueued before :meth:`start`; they are served as soon as
the thread runs.

Liveness: an accepted future always resolves.  On a clean shutdown every
queued request is served before the thread exits; if the thread ever dies of
a dispatcher bug instead, it closes the dispatcher (further submissions
raise), fails the in-progress batch and everything still queued with the
error, and records it on :attr:`ServingDispatcher.last_error` — a caller
blocked on ``future.result()`` sees the exception, never a hang.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Sequence

from repro.observability.counters import Counters
from repro.observability.histogram import LatencyHistogram
from repro.observability.tracing import SpanHandle
from repro.serving.errors import DeadlineExceededError, DispatcherShutdownError
from repro.serving.service import EstimateResult, EstimationService, RequestOptions
from repro.sql.query import Query

__all__ = [
    "DispatcherShutdownError",
    "ServingDispatcher",
]

#: Queue marker that wakes the dispatcher thread for shutdown.
_SENTINEL = object()


@dataclass
class _PendingRequest:
    """One caller's request travelling through the dispatch queue."""

    query: Query
    future: Future
    options: RequestOptions | None = None
    #: ``time.perf_counter()`` at enqueue; a request served inline (never
    #: queued) takes its pickup instant, so its queue wait is exactly 0.
    enqueued_at: float | None = None
    #: Measured at batch pickup, stamped onto the result's provenance.
    queue_wait_seconds: float = 0.0


class ServingDispatcher:
    """A thread-safe micro-batching front-end for an :class:`EstimationService`.

    Args:
        service: the (thread-safe) estimation service executing the batches.
        max_batch: most requests coalesced into one service submission (the
            cap on the backlog-at-pickup policy in the module docstring).

    Usage::

        with ServingDispatcher(service, max_batch=64) as d:
            futures = [d.submit(query) for query in burst]   # any thread(s)
            estimates = [f.result() for f in futures]
    """

    def __init__(self, service: EstimationService, max_batch: int = 64) -> None:
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        self.service = service
        self.max_batch = max_batch
        #: ``submitted``: requests accepted (queued, or served inline);
        #: ``completed`` / ``failed``: futures resolved with an estimate / an
        #: exception; ``timed_out``: requests abandoned on a deadline;
        #: ``batches``: batches served (an inline request is a batch of one);
        #: ``coalesced_requests``: requests that shared a batch;
        #: ``batched_requests``: the sum of batch sizes; ``max_queue_depth``:
        #: the deepest the queue ever got.
        self.stats = Counters(
            submitted=0,
            completed=0,
            failed=0,
            timed_out=0,
            batches=0,
            coalesced_requests=0,
            batched_requests=0,
            max_queue_depth=0,
            maxima=("max_queue_depth",),
        )
        #: Enqueue→pickup waits: the dispatcher's share of end-to-end latency.
        self.queue_wait = LatencyHistogram()
        #: The exception that killed the dispatcher thread, if one ever did
        #: (a dispatcher bug outside the per-batch isolation).  The thread
        #: fails every pending future and refuses new submissions before
        #: exiting, so callers observe the error instead of hanging.
        self.last_error: BaseException | None = None
        self._queue: queue.Queue = queue.Queue()
        self._state_lock = threading.Lock()
        self._closed = False
        #: Queued requests not yet served, and whether one is served inline.
        self._backlog, self._inline = 0, False
        self._inline_done = threading.Condition(self._state_lock)
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------ #
    # lifecycle

    def start(self) -> "ServingDispatcher":
        """Spawn the dispatcher thread (idempotent while running)."""
        with self._state_lock:
            if self._closed:
                raise DispatcherShutdownError("dispatcher has been shut down")
            self._spawn_locked()
        return self

    def _spawn_locked(self) -> None:
        """Spawn the dispatcher thread; caller holds ``_state_lock``."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name="serving-dispatcher", daemon=True
            )
            self._thread.start()

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting requests; drain what is already queued.

        Every request accepted before this call is still served (the
        dispatcher thread works through the queue before exiting — it is
        spawned here if :meth:`start` was never called, so requests enqueued
        before start are not abandoned either), and a clean shutdown never
        leaves a future unresolved.  With ``wait=True`` (the default) the
        call returns only after the drain and any inline request complete;
        with ``wait=False`` it returns immediately while the thread finishes
        in the background.  Idempotent.
        """
        with self._state_lock:
            if not self._closed:
                self._closed = True
                self._queue.put(_SENTINEL)
                # A never-started dispatcher may still hold queued requests;
                # spawn the thread so their futures resolve before the join.
                self._spawn_locked()
            thread = self._thread
        if wait:
            thread.join()
            with self._state_lock:
                self._inline_done.wait_for(lambda: not self._inline)

    def __enter__(self) -> "ServingDispatcher":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(wait=True)

    # ------------------------------------------------------------------ #
    # submission

    def submit(
        self, query: Query, options: RequestOptions | None = None
    ) -> Future:
        """Enqueue one request; returns a future of an :class:`EstimateResult`.

        Safe to call from any number of threads.  The future resolves with
        the estimate, or with the exception the request would have raised on
        the sequential path (e.g.
        :class:`repro.core.cnt2crd.NoMatchingPoolQueryError` when the service
        has no fallback).  ``options`` rides with the request: its tags are
        stamped onto the result.
        """
        future: Future = Future()
        request = _PendingRequest(query, future, options, enqueued_at=time.perf_counter())
        with self._state_lock:
            if self._closed:
                raise DispatcherShutdownError(
                    "dispatcher has been shut down; no new requests accepted"
                )
            self._queue.put(request)
            self._backlog += 1
        self.stats.update(submitted=1, max_queue_depth=self._queue.qsize())
        return future

    def estimate(
        self,
        query: Query,
        timeout: float | None = None,
        options: RequestOptions | None = None,
    ) -> EstimateResult:
        """Serve one request and wait for its result.

        With no deadline on an idle dispatcher (nothing queued, no batch in
        service) this is a batch of one served on the calling thread, with
        queue wait 0; otherwise it is ``submit(...).result(timeout)``.

        ``timeout`` defaults to ``options.timeout_seconds``.  When the
        deadline expires the request is **abandoned**: the future is
        cancelled — a request not yet picked up is skipped instead of
        occupying a batch slot and being counted as served — the ``timed_out``
        stat is bumped, and :class:`repro.serving.DeadlineExceededError`
        (a ``TimeoutError``) is raised.
        """
        if timeout is None and options is not None:
            timeout = options.timeout_seconds
        if timeout is None and (served := self._serve_inline(query, options)):
            return served
        future = self.submit(query, options=options)
        try:
            return future.result(timeout)
        except TimeoutError as error:
            # Distinguish "the wait expired" from "the request itself failed
            # with a TimeoutError" (e.g. an estimator hitting a statement
            # timeout): result() re-raises the stored exception *object*, so
            # identity tells them apart.  The request's own error must
            # propagate untranslated and uncounted.
            if future.done() and not future.cancelled() and future.exception() is error:
                raise
            future.cancel()
            self.stats.add("timed_out")
            raise DeadlineExceededError(
                f"request was not served within {timeout}s; it has been "
                f"abandoned (cancelled before execution when possible)"
            ) from None

    def _serve_inline(
        self, query: Query, options: RequestOptions | None
    ) -> EstimateResult | None:
        """The request served on the calling thread, or None if busy or closed."""
        with self._state_lock:
            if self._closed or self._backlog or self._inline:
                return None
            self._inline = True
        request = _PendingRequest(query, Future(), options)
        self.stats.add("submitted")
        try:
            self._serve([request])
        finally:
            with self._state_lock:
                self._inline = False
                self._inline_done.notify_all()
        return request.future.result()

    def queue_depth(self) -> int:
        """Requests currently waiting to be coalesced (approximate)."""
        return self._queue.qsize()

    def stats_snapshot(self) -> dict[str, float]:
        """The coalescing counters and queue-wait gauges, renderable by
        :func:`repro.evaluation.format_service_stats` (merge it with the
        service's own :meth:`~EstimationService.stats_snapshot`)."""
        values = self.stats.snapshot()
        batches = values["batches"]
        snapshot = {
            "submitted": float(values["submitted"]),
            "completed": float(values["completed"]),
            "failed": float(values["failed"]),
            "timed_out": float(values["timed_out"]),
            "coalesced_batches": float(batches),
            "coalesced_requests": float(values["coalesced_requests"]),
            "mean_batch_size": values["batched_requests"] / batches if batches else 0.0,
            "max_queue_depth": float(values["max_queue_depth"]),
        }
        waits = self.queue_wait.snapshot()
        if waits.count:
            snapshot["queue_wait_p50_ms"] = waits.quantile(0.5) * 1000.0
            snapshot["queue_wait_p99_ms"] = waits.quantile(0.99) * 1000.0
            snapshot["queue_wait_max_ms"] = waits.max_seen * 1000.0
        return snapshot

    # ------------------------------------------------------------------ #
    # dispatcher thread

    def _run(self) -> None:
        # The liveness contract: this thread never exits while a submitted
        # future could still be unresolved.  The body keeps `batch` in scope
        # so even an exception raised *between* serve calls — mid-coalesce,
        # in stats recording — cannot strand the requests already pulled off
        # the queue, and the finally block closes the dispatcher and fails
        # whatever is still queued before the thread is allowed to die.
        error: BaseException | None = None
        batch: list[_PendingRequest] = []
        try:
            while True:
                item = self._queue.get()
                if item is _SENTINEL:
                    return
                batch = [item]
                with self._state_lock:  # one batch in service at a time
                    self._inline_done.wait_for(lambda: not self._inline)
                saw_sentinel = self._coalesce(batch)
                try:
                    self._serve(batch)
                except BaseException as serve_error:  # pragma: no cover - defensive
                    # _serve isolates per-request errors; anything reaching
                    # here is a dispatcher bug.  Fail the batch's futures
                    # rather than leaving callers blocked forever, and keep
                    # the thread alive.
                    for request in batch:
                        if not request.future.done():
                            request.future.set_exception(serve_error)
                    self.stats.add("failed", len(batch))
                with self._state_lock:
                    self._backlog -= len(batch)
                batch = []
                if saw_sentinel:
                    return
        except BaseException as run_error:
            # A bug outside the per-batch isolation (e.g. in _coalesce).
            # Without the cleanup below the thread would die silently: the
            # partial batch's futures would hang forever, and — worse — the
            # dispatcher would keep *accepting* requests into a queue nobody
            # drains.  Record the error and fall through to the drain.
            error = run_error
            self.last_error = run_error
        finally:
            self._fail_pending(batch, error)

    def _fail_pending(
        self, batch: list[_PendingRequest], error: BaseException | None
    ) -> None:
        """Close the dispatcher and resolve every still-pending future.

        Runs on every thread exit.  After a clean drain (sentinel) the
        dispatcher is already closed and the queue empty, so this is a
        no-op; after a crash it (1) closes the dispatcher *first* — once any
        future resolves with the error, callers must deterministically see
        new submissions refused rather than swallowed by a dead queue — then
        (2) fails the partially-coalesced batch and everything still queued.
        """
        with self._state_lock:
            self._closed = True
        failed = 0
        pending = list(batch)
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is not _SENTINEL:
                pending.append(item)
        for request in pending:
            if not request.future.done():
                request.future.set_exception(
                    error
                    if error is not None
                    else DispatcherShutdownError(
                        "dispatcher thread exited before serving this request"
                    )
                )
                failed += 1
        if failed:
            self.stats.add("failed", failed)

    def _coalesce(self, batch: list[_PendingRequest]) -> bool:
        """Sweep the backlog already queued behind the head, up to ``max_batch``.

        Never blocks: the only blocking queue call is ``_run``'s ``get()``
        for the head request.  Appends onto the caller's ``batch`` (seeded
        with the head) so the requests stay reachable for cleanup even if
        this method raises; returns whether the shutdown sentinel was
        consumed.
        """
        while len(batch) < self.max_batch:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _SENTINEL:
                return True
            batch.append(item)
        return False

    @staticmethod
    def _stamp(
        request: _PendingRequest,
    ) -> tuple[tuple[tuple[str, str], ...], float, float]:
        """A caller's own tags, queue wait and enqueue instant, for its result.

        Per-caller provenance — tags, and the enqueue→pickup wait measured at
        batch pickup — rides beside the batch as ``submit_batch``'s
        ``stamps``, with the enqueue instant the service starts the request's
        trace at.
        """
        tags = request.options.tags if request.options is not None else ()
        return tags, request.queue_wait_seconds, request.enqueued_at

    def _serve(self, batch: list[_PendingRequest]) -> None:
        self.stats.update(
            batches=1,
            batched_requests=len(batch),
            coalesced_requests=len(batch) if len(batch) > 1 else 0,
        )
        # The caller abandoned a cancelled request (a deadline expired, or an
        # explicit cancel) before pickup: skip the work entirely — it must
        # not occupy a batch slot or be counted as served.
        live = [request for request in batch if not request.future.cancelled()]
        cancelled = len(batch) - len(live)
        recorder = self.service.recorder
        if recorder is not None:
            from repro.observability.events import DispatcherBatch

            recorder.emit(
                DispatcherBatch(
                    size=len(batch),
                    groups=int(bool(live)),
                    cancelled=cancelled,
                    queue_depth=self._queue.qsize(),
                )
            )
        tracer = self.service.tracer
        batch_span = (
            tracer.begin("dispatcher_batch", members=len(batch))
            if tracer is not None
            else None
        )
        abandoned = cancelled
        try:
            # Promote to RUNNING only now, immediately before the batch
            # executes: a deadline expiring until here still cancels the
            # request instead of merely being noted after the fact.
            runnable = []
            pickup = time.perf_counter()
            for request in live:
                if not request.future.set_running_or_notify_cancel():
                    abandoned += 1
                    continue
                if request.enqueued_at is None:
                    request.enqueued_at = pickup
                wait = max(pickup - request.enqueued_at, 0.0)
                request.queue_wait_seconds = wait
                self.queue_wait.record(wait)
                runnable.append(request)
            if runnable:
                try:
                    served = self.service.submit_batch(
                        [request.query for request in runnable],
                        stamps=[self._stamp(request) for request in runnable],
                        context=batch_span,
                    )
                except Exception:
                    self._serve_individually(runnable, batch_span)
                else:
                    for request, item in zip(runnable, served):
                        request.future.set_result(item)
                    self.stats.add("completed", len(runnable))
        finally:
            if batch_span is not None:
                if abandoned:
                    # Cancelled before pickup: counted as dropped traces.
                    tracer.sample((), abandoned=abandoned)
                tracer.end(
                    batch_span,
                    size=len(batch),
                    groups=int(bool(live)),
                    cancelled=cancelled,
                )

    def _serve_individually(
        self,
        requests: Sequence[_PendingRequest],
        batch_span: SpanHandle | None,
    ) -> None:
        """Fallback when a coalesced batch fails as a whole.

        Retrying one by one confines the failure to the poison request(s):
        every other caller still receives its estimate, and each failing
        future carries the exception its request would have raised on the
        sequential path.
        """
        tracer = self.service.tracer
        for request in requests:
            try:
                served = self.service.submit_batch(
                    [request.query],
                    stamps=[self._stamp(request)],
                    context=batch_span,
                )[0]
            except Exception as error:
                request.future.set_exception(error)
                self.stats.add("failed")
                if tracer is not None:
                    tracer.fail(
                        error,
                        request.enqueued_at,
                        queue_wait=request.queue_wait_seconds,
                        context=batch_span,
                    )
            else:
                request.future.set_result(served)
                self.stats.add("completed")
