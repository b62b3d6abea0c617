"""Concurrency stress suite for the request-coalescing serving dispatcher.

Covers the tentpole guarantees: no lost or duplicated responses under many
submitting threads, estimates bit-identical to the sequential ``submit``
path, cache/dispatcher stats that add up, clean shutdown with in-flight
requests, failure isolation, and hot-swapping estimators (and growing the
queries pool) mid-traffic.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.baselines import PostgresCardinalityEstimator
from repro.core import (
    Cnt2CrdEstimator,
    CRNConfig,
    CRNEstimator,
    CRNModel,
    NoMatchingPoolQueryError,
    QueriesPool,
)
from repro.datasets import build_queries_pool_queries
from repro.observability import EventRecorder, EventStore, Tracer
from repro.serving import (
    DispatcherShutdownError,
    EstimationService,
    RequestOptions,
    ServingDispatcher,
)
from repro.sql.builder import QueryBuilder
from tests import conftest

THREADS = 8


@pytest.fixture(scope="module")
def pool(imdb_small, imdb_oracle):
    labeled = build_queries_pool_queries(imdb_small, count=60, seed=17, oracle=imdb_oracle)
    return QueriesPool.from_labeled_queries(labeled)


@pytest.fixture(scope="module")
def workload(imdb_small, imdb_oracle):
    labeled = build_queries_pool_queries(imdb_small, count=24, seed=23, oracle=imdb_oracle)
    return [item.query for item in labeled]


@pytest.fixture(scope="module")
def model(imdb_featurizer):
    return CRNModel(imdb_featurizer.vector_size, CRNConfig(hidden_size=16, seed=5))


def build_service(model, imdb_small, imdb_featurizer, pool):
    return conftest.build_service(
        model,
        imdb_featurizer,
        pool,
        fallback_estimator=PostgresCardinalityEstimator(imdb_small),
    )


@pytest.fixture()
def sequential_estimates(model, imdb_small, imdb_featurizer, pool, workload):
    """The reference answers: a fresh service serving one query at a time."""
    service = build_service(model, imdb_small, imdb_featurizer, pool)
    return {query: service.submit(query).estimate for query in workload}


def unmatched_query():
    # The generator only joins fact tables through title, so a FROM clause
    # of two fact tables without title never appears in the pool.
    return (
        QueryBuilder()
        .table("movie_companies", "mc")
        .table("movie_keyword", "mk")
        .build()
    )


class TestConcurrentServing:
    def test_n_threads_m_queries_no_lost_or_duplicated_responses(
        self, model, imdb_small, imdb_featurizer, pool, workload, sequential_estimates
    ):
        service = build_service(model, imdb_small, imdb_featurizer, pool)
        results: dict[int, list] = {}

        def worker(thread_index: int) -> None:
            # Each thread submits the whole workload in a thread-specific order.
            ordered = workload[thread_index:] + workload[:thread_index]
            futures = [(query, dispatcher.submit(query)) for query in ordered]
            results[thread_index] = [(query, future.result()) for query, future in futures]

        with ServingDispatcher(service, max_batch=32) as dispatcher:
            threads = [
                threading.Thread(target=worker, args=(index,)) for index in range(THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        # No thread lost a response and every response answers its own query.
        assert set(results) == set(range(THREADS))
        served_objects = set()
        for thread_index, answered in results.items():
            assert len(answered) == len(workload)
            for query, served in answered:
                assert served.query == query
                assert served.estimate == sequential_estimates[query]
                served_objects.add(id(served))
        # Every future resolved with its own EstimateResult (no duplication).
        assert len(served_objects) == THREADS * len(workload)
        assert dispatcher.stats.submitted == THREADS * len(workload)
        assert dispatcher.stats.completed == THREADS * len(workload)
        assert dispatcher.stats.failed == 0

    def test_cache_and_service_stats_sum_correctly(
        self, model, imdb_small, imdb_featurizer, pool, workload
    ):
        service = build_service(model, imdb_small, imdb_featurizer, pool)

        def worker() -> None:
            for future in [dispatcher.submit(query) for query in workload]:
                future.result()

        with ServingDispatcher(service, max_batch=16) as dispatcher:
            threads = [threading.Thread(target=worker) for _ in range(THREADS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            snapshot = {**service.stats_snapshot(), **dispatcher.stats_snapshot()}

        total = THREADS * len(workload)
        assert snapshot["submitted"] == total
        assert snapshot["completed"] == total
        assert snapshot["failed"] == 0
        # Every submitted request was served by the service, exactly once.
        assert snapshot["requests"] == total
        assert snapshot["scored_pairs"] <= snapshot["planned_pairs"]
        # The dispatcher thread is the single cache writer, so hit/miss
        # accounting is exact: only first-sight queries miss.
        feat_stats = service.estimator.containment_estimator.featurizer.stats
        feat_snapshot = service.estimator.containment_estimator.featurizer.stats_snapshot()
        lookups = feat_snapshot["hits"] + feat_snapshot["misses"]
        assert feat_snapshot["hit_rate"] == feat_snapshot["hits"] / lookups
        pool_queries = {entry.query for entry in pool}
        fresh = {query for query in workload if query not in pool_queries}
        assert feat_stats.misses <= len(pool_queries) + len(fresh)
        enc_stats = service.estimator.containment_estimator.encoding_cache.stats
        assert enc_stats.misses <= 2 * (len(pool_queries) + len(fresh))

    def test_requests_enqueued_before_start_coalesce_into_one_batch(
        self, model, imdb_small, imdb_featurizer, pool, workload, sequential_estimates
    ):
        service = build_service(model, imdb_small, imdb_featurizer, pool)
        dispatcher = ServingDispatcher(service, max_batch=64)
        futures = [dispatcher.submit(query) for query in workload]
        assert dispatcher.queue_depth() == len(workload)
        dispatcher.start()
        estimates = [future.result(timeout=30) for future in futures]
        dispatcher.shutdown()
        assert [item.estimate for item in estimates] == [
            sequential_estimates[query] for query in workload
        ]
        # Everything was already queued when the thread woke up: one batch.
        assert dispatcher.stats.batches == 1
        assert dispatcher.stats_snapshot()["mean_batch_size"] == len(workload)
        assert dispatcher.stats.coalesced_requests == len(workload)
        assert dispatcher.stats.max_queue_depth == len(workload)

    def test_max_batch_bounds_coalescing(
        self, model, imdb_small, imdb_featurizer, pool, workload
    ):
        service = build_service(model, imdb_small, imdb_featurizer, pool)
        dispatcher = ServingDispatcher(service, max_batch=10)
        futures = [dispatcher.submit(query) for query in workload]
        dispatcher.start()
        for future in futures:
            future.result(timeout=30)
        dispatcher.shutdown()
        assert dispatcher.stats.batches >= len(workload) // 10
        assert dispatcher.stats_snapshot()["mean_batch_size"] <= 10


class TestBacklogCoalescing:
    """The one policy: a batch is the backlog at pickup, capped by ``max_batch``."""

    @pytest.mark.parametrize("backlog", [1, 5, 8, 20])
    def test_backlog_built_during_batch_k_is_batch_k_plus_one(
        self,
        model,
        imdb_small,
        imdb_featurizer,
        pool,
        workload,
        sequential_estimates,
        backlog,
    ):
        max_batch = 8
        gated, service = gated_service(model, imdb_small, imdb_featurizer, pool)
        dispatcher = ServingDispatcher(service, max_batch=max_batch)
        sizes: list[int] = []
        serve = dispatcher._serve

        def recording_serve(batch):
            sizes.append(len(batch))
            serve(batch)

        dispatcher._serve = recording_serve
        dispatcher.start()
        try:
            held = dispatcher.submit(workload[0])
            assert gated.entered.wait(30)  # the dispatcher is inside batch 1
            queries = workload[:backlog]
            futures = [dispatcher.submit(query) for query in queries]
            gated.release.set()
            estimates = [future.result(timeout=30).estimate for future in futures]
            assert held.result(timeout=30).estimate == sequential_estimates[workload[0]]
        finally:
            gated.release.set()
            dispatcher.shutdown()
        # Batch 2 is exactly what queued up behind batch 1, capped; the rest
        # of the backlog follows in max_batch-sized batches, no request waits
        # for a window, and not one bit of any estimate moves.
        assert sizes[0] == 1
        assert sizes[1] == min(backlog, max_batch)
        chunks = [
            min(max_batch, backlog - start) for start in range(0, backlog, max_batch)
        ]
        assert sizes == [1] + chunks
        assert estimates == [sequential_estimates[query] for query in queries]

    def test_lone_request_on_an_idle_dispatcher_is_served_without_a_wait(
        self, model, imdb_small, imdb_featurizer, pool, workload, sequential_estimates
    ):
        # No timing: spy on the queue instead.  The only queue call allowed
        # to block is the head get() in the run loop; _coalesce may only
        # sweep (block=False), and nothing anywhere may pass a timeout.
        import queue

        calls: list[tuple[bool, bool, object]] = []  # (in _coalesce, block, timeout)
        coalescing = threading.local()

        class SpyQueue(queue.Queue):
            def get(self, block=True, timeout=None):
                calls.append((getattr(coalescing, "active", False), block, timeout))
                return super().get(block, timeout)

        service = build_service(model, imdb_small, imdb_featurizer, pool)
        dispatcher = ServingDispatcher(service)
        dispatcher._queue = SpyQueue()
        coalesce = dispatcher._coalesce

        def marked_coalesce(batch):
            coalescing.active = True
            try:
                return coalesce(batch)
            finally:
                coalescing.active = False

        dispatcher._coalesce = marked_coalesce
        with dispatcher:
            served = dispatcher.submit(workload[0]).result(timeout=30)
        assert served.estimate == sequential_estimates[workload[0]]
        assert dispatcher.stats.batches == 1
        assert all(timeout is None for _, _, timeout in calls)
        # One sweep attempt found the queue empty and the batch went out.
        assert [(block, timeout) for inside, block, timeout in calls if inside] == [
            (False, None)
        ]
        # Every blocking call is a head get(), outside _coalesce.
        assert all(not inside for inside, block, _ in calls if block)
        assert any(block for _, block, _ in calls)


def record_submit_batch_threads(service) -> list[int]:
    """Wrap ``service.submit_batch`` to record the identity of each calling thread."""
    threads: list[int] = []
    submit_batch = service.submit_batch

    def recording(*args, **kwargs):
        threads.append(threading.get_ident())
        return submit_batch(*args, **kwargs)

    service.submit_batch = recording
    return threads


class TestInlineServing:
    """``estimate`` on an idle dispatcher is a batch of one on the caller's thread."""

    def test_idle_dispatcher_serves_on_the_calling_thread(
        self, model, imdb_small, imdb_featurizer, pool, workload, sequential_estimates
    ):
        service = build_service(model, imdb_small, imdb_featurizer, pool)
        threads = record_submit_batch_threads(service)
        with ServingDispatcher(service) as dispatcher:
            results = [dispatcher.estimate(query) for query in workload]
            snapshot = dispatcher.stats_snapshot()
        assert threads == [threading.get_ident()] * len(workload)
        assert [r.estimate for r in results] == [sequential_estimates[q] for q in workload]
        assert all(r.queue_wait_seconds == 0.0 for r in results)
        assert snapshot["submitted"] == snapshot["completed"] == len(workload)
        assert snapshot["coalesced_batches"] == len(workload)
        assert snapshot["mean_batch_size"] == 1.0
        assert snapshot["coalesced_requests"] == 0.0
        assert snapshot["queue_wait_max_ms"] == 0.0

    def test_estimate_behind_an_inline_request_queues_and_coalesces(
        self, model, imdb_small, imdb_featurizer, pool, workload, sequential_estimates
    ):
        gated, service = gated_service(model, imdb_small, imdb_featurizer, pool)
        threads = record_submit_batch_threads(service)
        dispatcher = ServingDispatcher(service, max_batch=8).start()
        sizes: list[int] = []
        serve = dispatcher._serve

        def recording_serve(batch):
            sizes.append(len(batch))
            serve(batch)

        dispatcher._serve = recording_serve
        answers: dict[int, object] = {}

        def call(position):
            answers[position] = dispatcher.estimate(workload[position])

        held = threading.Thread(target=call, args=(0,))
        behind = [threading.Thread(target=call, args=(k,)) for k in (1, 2, 3)]
        try:
            held.start()
            assert gated.entered.wait(30)  # served inline, inside the gate
            for thread in behind:
                thread.start()
            # Every caller behind it enqueued: submitted counts after the put.
            deadline = time.monotonic() + 30
            while dispatcher.stats.submitted < 4:
                assert time.monotonic() < deadline, "callers never enqueued"
                time.sleep(0.001)
            gated.release.set()
            for thread in [held, *behind]:
                thread.join(30)
                assert not thread.is_alive()
        finally:
            gated.release.set()
            dispatcher.shutdown()
        # The held request ran on its caller's thread; the three behind it
        # waited for it (one batch in service at a time) and then went out as
        # one batch on the dispatcher thread.
        assert sizes == [1, 3]
        assert threads[0] == held.ident
        assert threads[1] == dispatcher._thread.ident
        assert gated.calls == [workload[0]]
        assert answers[0].estimate == sequential_estimates[workload[0]]
        assert answers[0].queue_wait_seconds == 0.0
        for position in (1, 2, 3):
            assert answers[position].estimate == sequential_estimates[workload[position]]
            assert answers[position].queue_wait_seconds > 0.0
        assert dispatcher.stats.coalesced_requests == 3

    def test_concurrent_estimates_serve_one_batch_at_a_time(
        self, model, imdb_small, imdb_featurizer, pool, workload, sequential_estimates
    ):
        # More callers than cores, a short switch interval: callers race for
        # the inline claim while others queue.  A lost update to the backlog
        # or inline state would leave the dispatcher busy (or let two batches
        # overlap) forever after.
        service = build_service(model, imdb_small, imdb_featurizer, pool)
        lock = threading.Lock()
        active, peak = [0], [0]
        submit_batch = service.submit_batch

        def counting(*args, **kwargs):
            with lock:
                active[0] += 1
                peak[0] = max(peak[0], active[0])
            try:
                return submit_batch(*args, **kwargs)
            finally:
                with lock:
                    active[0] -= 1

        service.submit_batch = counting
        dispatcher = ServingDispatcher(service, max_batch=8).start()
        answers: dict[int, list] = {}

        def caller(index):
            answers[index] = [dispatcher.estimate(query) for query in workload]

        threads = [threading.Thread(target=caller, args=(k,)) for k in range(THREADS)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
            dispatcher.shutdown()
        expected = [sequential_estimates[query] for query in workload]
        assert all([r.estimate for r in answers[k]] == expected for k in range(THREADS))
        assert peak[0] == 1
        assert dispatcher.stats.completed == THREADS * len(workload)
        assert (dispatcher._backlog, dispatcher._inline) == (0, False)

    @pytest.mark.parametrize("deadline", ["timeout", "options"])
    def test_a_deadline_always_takes_the_queue(
        self, model, imdb_small, imdb_featurizer, pool, workload, sequential_estimates, deadline
    ):
        service = build_service(model, imdb_small, imdb_featurizer, pool)
        threads = record_submit_batch_threads(service)
        with ServingDispatcher(service) as dispatcher:
            if deadline == "timeout":
                result = dispatcher.estimate(workload[0], timeout=30.0)
            else:
                result = dispatcher.estimate(
                    workload[0], options=RequestOptions(timeout_seconds=30.0)
                )
            dispatcher_thread = dispatcher._thread.ident
        assert threads == [dispatcher_thread]
        assert dispatcher_thread != threading.get_ident()
        assert result.estimate == sequential_estimates[workload[0]]
        assert result.queue_wait_seconds > 0.0

    def test_shutdown_waits_for_an_inline_request(self, workload):
        gated, dispatcher = gated_dispatcher(workload)
        answers: list = []
        completed_at_return: list[int] = []

        def stop():
            dispatcher.shutdown(wait=True)
            completed_at_return.append(dispatcher.stats.completed)

        held = threading.Thread(target=lambda: answers.append(dispatcher.estimate(workload[0])))
        stopper = threading.Thread(target=stop)
        try:
            held.start()
            assert gated.entered.wait(30)  # served inline, inside the gate
            stopper.start()
            stopper.join(0.05)
            assert stopper.is_alive()  # a shut gate holds shutdown, however long
            gated.release.set()
            stopper.join(30)
            assert not stopper.is_alive()
        finally:
            gated.release.set()
            held.join(30)
            stopper.join(30)
        assert not held.is_alive()
        # shutdown returned only after the inline request was served.
        assert completed_at_return == [1]
        assert answers[0].estimate == 7.0
        with pytest.raises(DispatcherShutdownError):
            dispatcher.estimate(workload[1])

    def test_traced_inline_request_accounts_for_its_latency(
        self, model, imdb_featurizer, pool, workload
    ):
        from repro.serving import (
            DispatcherConfig,
            ObservabilityConfig,
            ServingClient,
            ServingConfig,
            TracingConfig,
        )

        config = ServingConfig(
            model=model,
            featurizer=imdb_featurizer,
            pool=pool,
            dispatcher=DispatcherConfig(enabled=True),
            observability=ObservabilityConfig(enabled=True),
            tracing=TracingConfig(enabled=True, sample_every=1),
        )
        with ServingClient(config) as client:
            threads = record_submit_batch_threads(client.service)
            results = [client.estimate(query) for query in workload[:6]]
            client.recorder.flush()
            rows = client.event_store.trace_accounting()
        assert threads == [threading.get_ident()] * 6
        assert all(result.queue_wait_seconds == 0.0 for result in results)
        assert len(rows) == 6
        latencies = sorted(result.latency_seconds for result in results)
        assert sorted(row["latency_seconds"] for row in rows) == latencies
        for row in rows:
            # The fan-in identity holds for a batch of one served inline.
            assert row["amortized_seconds"] == row["latency_seconds"]


class TestConcurrencyMetrics:
    def test_service_stats_report_coalescing(
        self, model, imdb_small, imdb_featurizer, pool, workload
    ):
        from repro.evaluation import format_service_stats

        service = build_service(model, imdb_small, imdb_featurizer, pool)
        with ServingDispatcher(service, max_batch=16) as dispatcher:
            for future in [dispatcher.submit(query) for query in workload]:
                future.result()
            merged = {**service.stats_snapshot(), **dispatcher.stats_snapshot()}
        assert merged["coalesced_batches"] >= 1
        text = format_service_stats(merged, title="stats")
        assert "coalesced batches" in text and "max queue depth" in text


class TestLifecycle:
    def test_clean_shutdown_resolves_in_flight_requests(
        self, model, imdb_small, imdb_featurizer, pool, workload, sequential_estimates
    ):
        service = build_service(model, imdb_small, imdb_featurizer, pool)
        dispatcher = ServingDispatcher(service, max_batch=4)
        futures = [dispatcher.submit(query) for query in workload * 2]
        dispatcher.start()
        # Shut down immediately: everything already queued must still be served.
        dispatcher.shutdown(wait=True)
        assert all(future.done() for future in futures)
        for query, future in zip(workload * 2, futures):
            assert future.result().estimate == sequential_estimates[query]

    def test_shutdown_before_start_still_serves_queued_requests(
        self, model, imdb_small, imdb_featurizer, pool, workload, sequential_estimates
    ):
        # Regression: requests may be enqueued before start(); shutting down
        # a never-started dispatcher used to abandon them (futures hung).
        service = build_service(model, imdb_small, imdb_featurizer, pool)
        dispatcher = ServingDispatcher(service, max_batch=8)
        futures = [dispatcher.submit(query) for query in workload[:5]]
        dispatcher.shutdown(wait=True)
        assert all(future.done() for future in futures)
        for query, future in zip(workload[:5], futures):
            assert future.result().estimate == sequential_estimates[query]

    def test_shutdown_under_load_resolves_every_accepted_future(
        self, model, imdb_small, imdb_featurizer, pool, workload, sequential_estimates
    ):
        # Stress the shutdown/submit race: many threads submitting while the
        # main thread shuts the dispatcher down mid-stream.  Every future the
        # dispatcher *accepted* must resolve with its estimate — no request
        # is ever left hanging, none is dropped, and threads racing past the
        # close see DispatcherShutdownError rather than a silent swallow.
        service = build_service(model, imdb_small, imdb_featurizer, pool)
        dispatcher = ServingDispatcher(service, max_batch=4).start()
        accepted: list[tuple[object, object]] = []  # (query, future); GIL-safe appends
        started = threading.Barrier(THREADS + 1)

        def submitter():
            started.wait()
            for query in workload * 3:
                try:
                    accepted.append((query, dispatcher.submit(query)))
                except DispatcherShutdownError:
                    return  # raced past the close: the documented refusal

        threads = [threading.Thread(target=submitter) for _ in range(THREADS)]
        for thread in threads:
            thread.start()
        started.wait()
        time.sleep(0.01)  # let the flood build a backlog
        dispatcher.shutdown(wait=True)
        for thread in threads:
            thread.join()
        assert accepted  # the race actually exercised accepted requests
        for query, future in accepted:
            assert future.done()
            assert future.result(timeout=5).estimate == sequential_estimates[query]
        assert dispatcher.stats.completed == len(accepted)
        assert dispatcher.stats.failed == 0

    def test_dispatcher_thread_crash_fails_pending_futures_and_closes(
        self, model, imdb_small, imdb_featurizer, pool, workload
    ):
        # Regression: an exception escaping the coalescing loop (a dispatcher
        # bug outside _serve's per-batch isolation) used to kill the thread
        # silently — the pulled request's future hung forever and the
        # dispatcher kept accepting new requests into a queue nobody drains.
        # The thread must fail everything pending and close the dispatcher.
        service = build_service(model, imdb_small, imdb_featurizer, pool)
        dispatcher = ServingDispatcher(service)
        boom = RuntimeError("injected coalescing bug")

        def broken_coalesce(batch):
            raise boom

        dispatcher._coalesce = broken_coalesce
        dispatcher.start()
        future = dispatcher.submit(workload[0])
        with pytest.raises(RuntimeError, match="injected coalescing bug"):
            future.result(timeout=5)
        assert dispatcher.last_error is boom
        # The dispatcher closed itself before resolving the future, so the
        # refusal is deterministic by the time result() returned.
        with pytest.raises(DispatcherShutdownError):
            dispatcher.submit(workload[0])
        assert dispatcher.stats.failed >= 1

    def test_submit_after_shutdown_raises(self, model, imdb_small, imdb_featurizer, pool, workload):
        service = build_service(model, imdb_small, imdb_featurizer, pool)
        dispatcher = ServingDispatcher(service)
        dispatcher.start()
        dispatcher.shutdown()
        with pytest.raises(DispatcherShutdownError):
            dispatcher.submit(workload[0])
        # Idempotent shutdown, and start after shutdown is refused too.
        dispatcher.shutdown()
        with pytest.raises(DispatcherShutdownError):
            dispatcher.start()

    def test_context_manager_starts_and_drains(
        self, model, imdb_small, imdb_featurizer, pool, workload, sequential_estimates
    ):
        service = build_service(model, imdb_small, imdb_featurizer, pool)
        with ServingDispatcher(service) as dispatcher:
            futures = [dispatcher.submit(query) for query in workload]
        assert all(future.done() for future in futures)
        assert [f.result().estimate for f in futures] == [
            sequential_estimates[query] for query in workload
        ]


class TestFailureIsolation:
    def test_poison_request_fails_alone_others_still_served(
        self, model, imdb_featurizer, pool, workload
    ):
        # No fallback: the unmatched query raises on the sequential path, and
        # a naive dispatcher would fail its whole coalesced batch with it.
        service = EstimationService(Cnt2CrdEstimator(CRNEstimator(model, imdb_featurizer), pool))
        reference = {query: service.submit(query).estimate for query in workload[:6]}
        dispatcher = ServingDispatcher(service, max_batch=16)
        good = [dispatcher.submit(query) for query in workload[:3]]
        poison = dispatcher.submit(unmatched_query())
        more_good = [dispatcher.submit(query) for query in workload[3:6]]
        dispatcher.start()
        dispatcher.shutdown()
        for query, future in zip(workload[:3] + workload[3:6], good + more_good):
            assert future.result().estimate == reference[query]
        with pytest.raises(NoMatchingPoolQueryError):
            poison.result()
        assert dispatcher.stats.failed == 1
        assert dispatcher.stats.completed == 6


class GatedContainment(conftest.OneRatesContainment):
    """A containment model the test holds shut: a gated scoring call blocks
    until ``release``.

    Every call is gated, or with ``inner`` only the first.  Rates are 1, or
    with ``inner`` that model's, whose bits a test compares.  ``calls``
    lists the queries of the gated calls.  ``entered`` is set on the first
    call, so a test knows — without sleeping — that the dispatcher thread is
    inside a batch and will stay there until the gate opens.  (The 30 s
    bound only turns a test bug into a failure instead of a hang.)
    """

    name = "gated"

    def __init__(self, inner=None) -> None:
        self.inner = inner
        self.entered = threading.Event()
        self.release = threading.Event()
        self.calls: list = []  # GIL-safe appends

    def rates_against_pools(self, items):
        if self.inner is None or not self.entered.is_set():
            self.calls.extend(query for query, _ in items)
            self.entered.set()
            assert self.release.wait(30), "the test never opened the gate"
        if self.inner is None:
            return super().rates_against_pools(items)
        return self.inner.rates_against_pools(items)


def gated_dispatcher(workload, max_batch: int = 1):
    """A started dispatcher whose estimator answers 7.0 for ``workload``
    through a shut :class:`GatedContainment`."""
    gated = GatedContainment()
    service = EstimationService(conftest.constant_estimator(7.0, workload, containment=gated))
    return gated, ServingDispatcher(service, max_batch=max_batch).start()


def gated_service(model, imdb_small, imdb_featurizer, pool):
    """A service whose first request is held by a :class:`GatedContainment`
    and whose every answer has the bits of the real stack's estimator and
    fallback."""
    real = build_service(model, imdb_small, imdb_featurizer, pool).estimator
    gated = GatedContainment(inner=real.containment_estimator)
    return gated, EstimationService(Cnt2CrdEstimator(gated, pool, fallback=real.fallback))


def traced_service(estimator, sample_every: int = 1):
    """A bare service around ``estimator`` whose tracer writes into an
    in-memory event store."""
    store = EventStore(":memory:")
    recorder = EventRecorder(store=store, capacity=4096, source="test")
    tracer = Tracer(recorder, sample_every=sample_every)
    return EstimationService(estimator, recorder=recorder, tracer=tracer), store


def stored_request_traces(service, store) -> list[dict]:
    """Every stored request trace: its root, child stages and links."""
    service.recorder.flush()
    traces = []
    for root in store.query("SELECT * FROM spans WHERE name = 'request'"):
        spans = store.spans_for_trace(root["trace_id"])
        traces.append(
            {
                "root": next(span for span in spans if span["span_id"] == root["span_id"]),
                "children": [span for span in spans if span["parent_id"] == root["span_id"]],
                "links": store.links_for_trace(root["trace_id"]),
            }
        )
    return traces


def poisoned_batch(service, workload):
    """Serve three good requests, a poison one and three more as one batch.

    The service has no fallback, so the coalesced batch fails as a whole
    and the dispatcher retries its members one by one.
    """
    dispatcher = ServingDispatcher(service, max_batch=16)
    good = [dispatcher.submit(query) for query in workload[:3]]
    poison = dispatcher.submit(unmatched_query())
    good += [dispatcher.submit(query) for query in workload[3:6]]
    dispatcher.start()
    dispatcher.shutdown()
    with pytest.raises(NoMatchingPoolQueryError):
        poison.result()
    return [future.result() for future in good]


class TestDispatcherTraces:
    """Request traces of dispatched requests, read back from the event store."""

    def test_poison_request_leaves_one_error_trace_and_batch_mates_keep_theirs(
        self, model, imdb_featurizer, pool, workload
    ):
        service, store = traced_service(
            Cnt2CrdEstimator(CRNEstimator(model, imdb_featurizer), pool)
        )
        served = poisoned_batch(service, workload)
        traces = stored_request_traces(service, store)
        failed = [t for t in traces if "error" in t["root"]["attributes"]]
        kept = [t for t in traces if "error" not in t["root"]["attributes"]]
        assert len(failed) == 1 and len(kept) == len(served) == 6
        (poison,) = failed
        assert poison["root"]["attributes"]["error"].startswith("NoMatchingPoolQueryError: ")
        assert [span["name"] for span in poison["children"]] == ["queue_wait"]
        assert [(link["span_name"], link["link_kind"]) for link in poison["links"]] == [
            ("dispatcher_batch", "context")
        ]
        for trace in kept:
            attributes = trace["root"]["attributes"]
            assert set(attributes) == {
                "estimator",
                "latency_seconds",
                "queue_wait_seconds",
                "resolution",
            }
            assert [span["name"] for span in trace["children"]] == ["queue_wait"]
            assert [(link["span_name"], link["link_kind"]) for link in trace["links"]] == [
                ("dispatcher_batch", "context"),
                ("service_batch", "amortized"),
            ]
            assert trace["links"][1]["amortized_seconds"] == float(
                attributes["latency_seconds"]
            )
        assert sorted(float(t["root"]["attributes"]["latency_seconds"]) for t in kept) == sorted(
            item.latency_seconds for item in served
        )
        stats = service.tracer.stats_snapshot()
        assert stats["traces_started"] == stats["traces_finished"] == 7.0
        assert stats["traces_kept"] == 7.0
        store.close()

    def test_failed_trace_is_always_kept_with_the_error(
        self, model, imdb_featurizer, pool, workload
    ):
        # No head sampling: a batch-mate is kept only as a tail exemplar,
        # but the poison request's error trace is kept regardless.
        service, store = traced_service(
            Cnt2CrdEstimator(CRNEstimator(model, imdb_featurizer), pool), sample_every=0
        )
        poisoned_batch(service, workload)
        failed = [
            trace
            for trace in stored_request_traces(service, store)
            if "error" in trace["root"]["attributes"]
        ]
        assert len(failed) == 1
        assert failed[0]["root"]["attributes"]["error"].startswith(
            "NoMatchingPoolQueryError: "
        )
        store.close()

    def test_abandon_counts_a_drop_and_emits_nothing(self, workload):
        gated = GatedContainment()
        service, store = traced_service(
            conftest.constant_estimator(7.0, workload, containment=gated)
        )
        dispatcher = ServingDispatcher(service, max_batch=1).start()
        try:
            first = dispatcher.submit(workload[0])
            assert gated.entered.wait(30)  # the dispatcher is inside batch 1
            abandoned = dispatcher.submit(workload[1])
            assert abandoned.cancel()  # cancelled before pickup
            gated.release.set()
            assert first.result(timeout=30).estimate == 7.0
        finally:
            gated.release.set()
            dispatcher.shutdown()
        assert gated.calls == [workload[0]]
        stats = service.tracer.stats_snapshot()
        assert stats["traces_started"] == stats["traces_finished"] == 2.0
        assert stats["traces_kept"] == 1.0
        assert stats["traces_dropped"] == 1.0
        # Only the served request wrote a trace.
        traces = stored_request_traces(service, store)
        assert len(traces) == 1
        assert float(traces[0]["root"]["attributes"]["latency_seconds"]) == (
            first.result().latency_seconds
        )
        store.close()


class TestDeadlines:
    def test_timed_out_request_is_cancelled_at_pickup_and_counted(self, workload):
        # Regression: a timed-out caller abandoned its future but the request
        # still occupied a batch slot, ran to completion, and was counted as
        # served.  Now the deadline cancels the future; pickup skips it.
        from repro.serving import DeadlineExceededError

        gated, dispatcher = gated_dispatcher(workload)
        try:
            first = dispatcher.submit(workload[0])
            assert gated.entered.wait(30)  # the dispatcher is inside batch 1
            with pytest.raises(DeadlineExceededError):
                dispatcher.estimate(workload[1], timeout=0.01)
            gated.release.set()
            assert first.result(timeout=30).estimate == 7.0
        finally:
            gated.release.set()
            dispatcher.shutdown()
        # The abandoned request never executed: only the first query ran.
        assert gated.calls == [workload[0]]
        assert dispatcher.stats.timed_out == 1
        assert dispatcher.stats.completed == 1
        assert dispatcher.stats.failed == 0
        assert dispatcher.stats_snapshot()["timed_out"] == 1.0

    def test_deadline_error_is_a_timeout_error(self, workload):
        # Pre-taxonomy callers caught TimeoutError from future.result(); the
        # typed deadline error must still satisfy them.
        from repro.serving import DeadlineExceededError

        gated, dispatcher = gated_dispatcher(workload)
        try:
            dispatcher.submit(workload[0])
            assert gated.entered.wait(30)
            with pytest.raises(TimeoutError):
                dispatcher.estimate(workload[1], timeout=0.01)
            assert issubclass(DeadlineExceededError, TimeoutError)
        finally:
            gated.release.set()
            dispatcher.shutdown()

    def test_request_raising_timeout_error_is_not_a_deadline_expiry(self, workload):
        # An estimator that itself raises TimeoutError (e.g. a Postgres-backed
        # entry hitting a statement timeout) must propagate its own error —
        # not be rebranded DeadlineExceededError nor counted as timed_out.
        from repro.serving import DeadlineExceededError

        class TimeoutingContainment(conftest.OneRatesContainment):
            name = "timeouting"

            def estimate_containment(self, first, second) -> float:
                raise TimeoutError("statement timeout inside the estimator")

        service = EstimationService(
            conftest.constant_estimator(1.0, workload, containment=TimeoutingContainment())
        )
        dispatcher = ServingDispatcher(service).start()
        try:
            with pytest.raises(TimeoutError, match="statement timeout") as excinfo:
                dispatcher.estimate(workload[0])  # no deadline requested at all
            assert not isinstance(excinfo.value, DeadlineExceededError)
        finally:
            dispatcher.shutdown()
        assert dispatcher.stats.timed_out == 0
        assert dispatcher.stats.failed == 1

    def test_options_timeout_is_the_default_deadline(self, workload):
        from repro.serving import DeadlineExceededError, RequestOptions

        gated, dispatcher = gated_dispatcher(workload)
        try:
            dispatcher.submit(workload[0])
            assert gated.entered.wait(30)
            with pytest.raises(DeadlineExceededError):
                dispatcher.estimate(
                    workload[1], options=RequestOptions(timeout_seconds=0.01)
                )
        finally:
            gated.release.set()
            dispatcher.shutdown()


class TestPerRequestOptions:
    def test_tags_are_stamped_per_caller_within_one_batch(
        self, model, imdb_small, imdb_featurizer, pool, workload
    ):
        from repro.serving import RequestOptions

        service = build_service(model, imdb_small, imdb_featurizer, pool)
        dispatcher = ServingDispatcher(service, max_batch=16)
        tagged = dispatcher.submit(
            workload[0], options=RequestOptions(tags={"caller": "a"})
        )
        other = dispatcher.submit(
            workload[1], options=RequestOptions(tags={"caller": "b"})
        )
        untagged = dispatcher.submit(workload[2])
        dispatcher.start()
        dispatcher.shutdown()
        assert tagged.result().tags == (("caller", "a"),)
        assert other.result().tags == (("caller", "b"),)
        assert untagged.result().tags == ()
        # Tags never split a coalesced batch.
        assert dispatcher.stats.batches == 1


    def test_a_coalesced_batch_is_one_service_batch_whatever_its_options(
        self, model, imdb_small, imdb_featurizer, pool, workload, sequential_estimates
    ):
        # One estimator serves every request: tags and deadlines never split
        # a coalesced batch into several service batches.
        from repro.serving import RequestOptions

        service = build_service(model, imdb_small, imdb_featurizer, pool)
        calls = record_submit_batch_threads(service)
        dispatcher = ServingDispatcher(service, max_batch=16)
        options = [
            None,
            RequestOptions(tags={"caller": "a"}),
            RequestOptions(timeout_seconds=30.0),
            RequestOptions(timeout_seconds=20.0, tags={"caller": "b"}),
        ]
        futures = [
            dispatcher.submit(query, options=option)
            for query, option in zip(workload, options)
        ]
        dispatcher.start()
        dispatcher.shutdown()
        assert len(calls) == 1 and dispatcher.stats.batches == 1
        assert [future.result().estimate for future in futures] == [
            sequential_estimates[query] for query in workload[: len(options)]
        ]

    @pytest.mark.parametrize("cancel", ["none", "all"])
    def test_dispatcher_batch_event_counts_size_and_cancelled(self, workload, cancel):
        store = EventStore(":memory:")
        service = EstimationService(
            conftest.constant_estimator(3.0, workload),
            recorder=EventRecorder(store=store, source="test"),
        )
        dispatcher = ServingDispatcher(service, max_batch=4)
        futures = [dispatcher.submit(query) for query in workload[:3]]
        if cancel == "all":
            assert all(future.cancel() for future in futures)
        dispatcher.start()
        dispatcher.shutdown()
        service.recorder.flush()
        (event,) = store.events(kind="dispatcher_batch")
        assert (event.size, event.cancelled) == (3, 3 if cancel == "all" else 0)
        store.close()

    def test_a_dispatcher_batch_stored_with_groups_still_reads_back(self):
        # Rows stored before the event dropped its ``groups`` field (it read
        # 1, or 0 when every member was cancelled) still carry it.
        import json

        from repro.observability import DispatcherBatch

        store = EventStore(":memory:")
        payload = {"size": 3, "groups": 1, "cancelled": 0, "queue_depth": 2}
        store.query(
            "INSERT INTO events (source, sequence, ts, kind, value, payload) "
            "VALUES (?, ?, ?, ?, ?, ?)",
            ("test", 1, 0.0, "dispatcher_batch", 3.0, json.dumps(payload)),
        )
        (event,) = store.events(kind="dispatcher_batch")
        assert event == DispatcherBatch(size=3, cancelled=0, queue_depth=2)
        store.close()


class TestHotSwap:
    def test_a_request_after_replace_carries_the_new_generation(self, workload):
        service = EstimationService(conftest.constant_estimator(1.0, workload))
        with ServingDispatcher(service) as dispatcher:
            before = dispatcher.estimate(workload[0], timeout=30)
            service.replace(conftest.constant_estimator(2.0, workload))
            queued = dispatcher.submit(workload[0]).result(timeout=30)
            inline = dispatcher.estimate(workload[0])
        assert (before.estimate, before.model_generation) == (1.0, 1)
        assert (queued.estimate, queued.model_generation) == (2.0, 2)
        assert (inline.estimate, inline.model_generation) == (2.0, 2)

    def test_replace_estimator_mid_traffic(
        self, model, imdb_small, imdb_featurizer, pool, workload, sequential_estimates
    ):
        service = build_service(model, imdb_small, imdb_featurizer, pool)
        replacement = conftest.constant_estimator(42.0, workload)
        stop = threading.Event()
        failures: list[BaseException] = []

        def client() -> None:
            while not stop.is_set():
                for query in workload[:6]:
                    try:
                        served = dispatcher.estimate(query, timeout=30)
                    except BaseException as error:  # noqa: BLE001
                        failures.append(error)
                        stop.set()
                        return
                    # A request in flight during the swap may be answered by
                    # either estimator, but never by anything else — and
                    # never fail.
                    if served.estimate not in {sequential_estimates[query], 42.0}:
                        failures.append(
                            AssertionError(f"unexpected estimate {served.estimate}")
                        )
                        stop.set()
                        return

        with ServingDispatcher(service, max_batch=8) as dispatcher:
            clients = [threading.Thread(target=client) for _ in range(4)]
            for thread in clients:
                thread.start()
            time.sleep(0.1)
            previous = service.replace(replacement)
            time.sleep(0.1)
            stop.set()
            for thread in clients:
                thread.join()
            assert not failures
            # New traffic is answered by the replacement, without downtime.
            assert dispatcher.estimate(workload[0], timeout=30).estimate == 42.0
        assert isinstance(previous, Cnt2CrdEstimator)

    def test_pool_add_while_serving(
        self, model, imdb_small, imdb_featurizer, imdb_oracle, workload
    ):
        # A private pool (the module fixture is shared) that starts small and
        # grows concurrently with traffic.
        labeled = build_queries_pool_queries(
            imdb_small, count=40, seed=29, oracle=imdb_oracle
        )
        growing_pool = QueriesPool.from_labeled_queries(labeled[:10])
        service = build_service(model, imdb_small, imdb_featurizer, growing_pool)
        failures: list[BaseException] = []
        done = threading.Event()

        def adder() -> None:
            for item in labeled[10:]:
                growing_pool.add(item.query, item.cardinality)
            done.set()

        def client() -> None:
            while not done.is_set():
                for query in workload[:4]:
                    try:
                        served = dispatcher.estimate(query, timeout=30)
                    except BaseException as error:  # noqa: BLE001
                        failures.append(error)
                        done.set()
                        return
                    assert served.estimate >= 0.0

        with ServingDispatcher(service, max_batch=8) as dispatcher:
            threads = [threading.Thread(target=adder)] + [
                threading.Thread(target=client) for _ in range(3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not failures
        assert len(growing_pool) == len({item.query for item in labeled})
