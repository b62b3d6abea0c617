"""The tracer: span nesting, fan-in links, the accounting identity, and the
head + tail-exemplar sampling policy."""

from __future__ import annotations

import threading
import time

import pytest

from repro.observability import (
    EventBuffer,
    EventRecorder,
    EventStore,
    SpanLinked,
    SpanRecorded,
    Tracer,
)


@pytest.fixture()
def store():
    with EventStore(":memory:") as event_store:
        yield event_store


@pytest.fixture()
def recorder(store):
    return EventRecorder(store=store, capacity=4096, source="test")


def make_tracer(recorder, **kwargs):
    kwargs.setdefault("sample_every", 1)
    return Tracer(recorder, **kwargs)


def stored_spans(recorder, store):
    recorder.flush()
    return store.query("SELECT * FROM spans ORDER BY sequence")


def stored_links(recorder, store):
    recorder.flush()
    return store.query("SELECT * FROM span_links ORDER BY sequence")


class TestConstruction:
    def test_requires_a_recorder(self):
        with pytest.raises(ValueError):
            Tracer(None)

    def test_validates_sampling_parameters(self, recorder):
        with pytest.raises(ValueError):
            Tracer(recorder, sample_every=-1)
        with pytest.raises(ValueError):
            Tracer(recorder, tail_quantile=0.0)
        with pytest.raises(ValueError):
            Tracer(recorder, tail_quantile=1.5)


def keep_one(tracer, duration):
    """Sample one finished request of ``duration`` seconds; whether it is kept."""
    return tracer.sample([duration]) == [0]


class TestRequestTraces:
    def test_finished_trace_lands_root_stages_and_links(self, recorder, store):
        tracer = make_tracer(recorder)
        shared = tracer.begin("service_batch", members=4, estimator_name="crn")
        tracer.end(shared, size=4)
        assert keep_one(tracer, 0.006)
        tracer.emit_request(
            0.0,
            0.006,
            "crn",
            queue_wait=0.004,
            batch=shared,
            amortized_seconds=0.0025,
            latency_seconds=0.0025,
            resolution="indexed_slab",
        )
        spans = stored_spans(recorder, store)
        names = {row["name"] for row in spans}
        assert names == {"request", "queue_wait", "service_batch"}
        root = next(row for row in spans if row["name"] == "request")
        child = next(row for row in spans if row["name"] == "queue_wait")
        assert root["parent_id"] == ""
        assert child["parent_id"] == root["span_id"]
        assert child["trace_id"] == root["trace_id"]
        links = stored_links(recorder, store)
        assert len(links) == 1
        assert links[0]["trace_id"] == root["trace_id"]
        assert links[0]["span_name"] == "service_batch"
        assert links[0]["amortized_seconds"] == 0.0025
        assert links[0]["link_kind"] == "amortized"

    def test_latency_seconds_round_trips_exactly(self, recorder, store):
        tracer = make_tracer(recorder)
        latency = 0.0012345678901234567
        tracer.emit_request(0.0, 0.01, latency_seconds=latency)
        rows = store_accounting(recorder, store)
        assert rows[0]["latency_seconds"] == latency

    def test_each_sampled_member_finishes_once(self, recorder, store):
        tracer = make_tracer(recorder)
        assert tracer.sample([0.01]) == [0]
        assert tracer.stats_snapshot()["traces_finished"] == 1.0

    def test_abandon_counts_a_drop_and_emits_nothing(self, recorder, store):
        tracer = make_tracer(recorder)
        assert tracer.sample((), abandoned=1) == []
        stats = tracer.stats_snapshot()
        assert stats["traces_finished"] == 1.0
        assert stats["traces_kept"] == 0.0
        assert stored_spans(recorder, store) == []

    def test_failed_trace_is_always_kept_with_the_error(self, recorder, store):
        tracer = make_tracer(recorder, sample_every=0)
        tracer.fail(ValueError("boom"), time.perf_counter())
        spans = stored_spans(recorder, store)
        assert len(spans) == 1
        root = store.spans_for_trace(spans[0]["trace_id"])[0]
        assert root["attributes"]["error"] == "ValueError: boom"


def store_accounting(recorder, store):
    recorder.flush()
    return store.trace_accounting()


class TestSharedSpans:
    def test_begin_nests_under_the_open_span(self, recorder, store):
        tracer = make_tracer(recorder)
        outer = tracer.begin("dispatcher_batch", members=3)
        inner = tracer.begin("service_batch", members=3)
        assert inner.trace_id == outer.trace_id
        assert inner.parent_id == outer.span_id
        tracer.end(inner)
        tracer.end(outer)
        assert tracer.stats_snapshot()["shared_spans"] == 2.0

    def test_end_pops_leaked_nested_spans(self, recorder, store):
        tracer = make_tracer(recorder)
        outer = tracer.begin("dispatcher_batch")
        tracer.begin("service_batch")  # leaked (e.g. an exception unwound)
        tracer.end(outer)
        fresh = tracer.begin("dispatcher_batch")
        assert fresh.parent_id == ""  # the stack healed
        tracer.end(fresh)

    def test_standalone_begin_starts_its_own_trace(self, recorder, store):
        tracer = make_tracer(recorder)
        first = tracer.begin("index_build")
        tracer.end(first)
        second = tracer.begin("index_build")
        tracer.end(second)
        assert first.trace_id != second.trace_id

    def test_threads_do_not_share_the_span_stack(self, recorder, store):
        tracer = make_tracer(recorder)
        outer = tracer.begin("dispatcher_batch")
        seen = {}

        def worker():
            handle = tracer.begin("index_build")
            seen["parent"] = handle.parent_id
            tracer.end(handle)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        tracer.end(outer)
        assert seen["parent"] == ""  # not parented to the other thread's span


class TestAccountingIdentity:
    def test_amortized_links_sum_to_latency_exactly(self, recorder, store):
        tracer = make_tracer(recorder)
        members = 7
        batch = tracer.begin("dispatcher_batch", members=members)
        service = tracer.begin("service_batch", members=members)
        tracer.end(service)
        tracer.end(batch)
        elapsed = 0.0123456
        latency = elapsed / members
        kept = tracer.sample([0.02] * members)
        assert kept == list(range(members))
        for _ in kept:
            tracer.emit_request(
                0.0,
                0.02,
                "crn",
                queue_wait=0.001,
                context=batch,
                batch=service,
                amortized_seconds=latency,
                latency_seconds=latency,
            )
        rows = store_accounting(recorder, store)
        assert len(rows) == members
        for row in rows:
            # The identity the fan-in attribution is built on: amortized
            # links alone reconstruct the stamped latency, exactly.
            assert row["amortized_seconds"] == latency
            assert row["latency_seconds"] == latency
            assert row["own_seconds"] == 0.001

    def test_context_links_carry_no_time(self, recorder, store):
        tracer = make_tracer(recorder)
        batch = tracer.begin("dispatcher_batch", members=2)
        tracer.end(batch)
        tracer.emit_request(0.0, 0.6, context=batch, latency_seconds=0.5)
        rows = store_accounting(recorder, store)
        assert rows[0]["amortized_seconds"] in (None, 0.0)


class TestSampling:
    def test_head_sampling_keeps_every_nth(self, recorder, store):
        tracer = make_tracer(recorder, sample_every=4, min_tail_observations=10**9)
        kept = sum(keep_one(tracer, 0.01) for _ in range(20))
        stats = tracer.stats_snapshot()
        assert stats["traces_finished"] == 20.0
        # Ties are not "slowest so far" (the comparison is strict), so only
        # the head pattern keeps: the first trace (trivially the slowest,
        # and head index 0) plus every 4th after it.
        assert kept == 5
        assert stats["trace_tail_exemplars"] == 1.0

    def test_sample_every_zero_disables_head_sampling(self, recorder, store):
        tracer = make_tracer(recorder, sample_every=0, min_tail_observations=10**9)
        # Strictly decreasing durations: nothing after the first is ever the
        # slowest so far, and the tail threshold never activates.
        decisions = [keep_one(tracer, 1.0 - index * 0.01) for index in range(50)]
        assert decisions[0] is True  # slowest-so-far exemplar
        assert sum(decisions[1:]) == 0
        stats = tracer.stats_snapshot()
        assert stats["traces_dropped"] == 49.0
        assert stats["trace_tail_exemplars"] == 1.0

    def test_tail_exemplars_keep_the_slow_requests(self, recorder, store):
        tracer = make_tracer(
            recorder, sample_every=0, tail_quantile=0.9, min_tail_observations=20
        )
        for _ in range(40):
            keep_one(tracer, 0.001)
        assert keep_one(tracer, 0.5) is True
        assert tracer.stats_snapshot()["trace_tail_exemplars"] >= 1.0

    def test_warm_tail_threshold_is_the_quantile_buckets_upper_edge(
        self, recorder, store
    ):
        tracer = make_tracer(
            recorder, sample_every=0, tail_quantile=0.9, min_tail_observations=40
        )

        def finish_one(duration):
            return keep_one(tracer, duration)

        # Warm the histogram: a bulk at 1ms, one early maximum at 200ms
        # (kept as slowest-so-far), and a p90 shoulder at 100ms.  The 40th
        # finish triggers the first threshold refresh, so the cached
        # threshold below is computed from exactly these observations.
        finish_one(0.2)
        for _ in range(30):
            finish_one(0.001)
        for _ in range(9):
            finish_one(0.1)
        # 150ms: not a new maximum, but a full bucket above the p90 bucket
        # (the 100ms shoulder) — a genuine tail exemplar.
        assert finish_one(0.15) is True
        # 100ms ties the p90 bucket itself: NOT an exemplar.  A coalesced
        # batch stamping one latency on all members must not keep wholesale.
        assert finish_one(0.1) is False
        # And well below the tail: dropped.
        assert finish_one(0.05) is False

    def test_owned_batch_bulk_sampling_matches_sequential_head_pattern(
        self, recorder, store
    ):
        tracer = make_tracer(recorder, sample_every=4, min_tail_observations=10**9)
        # First batch: 10 members, finish counter starts at 0 -> head keeps
        # 0, 4, 8; the batch is trivially the slowest so far, so member 0
        # doubles as the single tail exemplar.
        assert tracer.sample([0.030] * 10) == [0, 4, 8]
        # Second batch: counter at 10 -> first head index is (-10) % 4 = 2;
        # a strictly slower batch still contributes only ONE exemplar.
        assert tracer.sample([0.050] * 10) == [0, 2, 6]
        # Third batch ties the maximum: no exemplar, head pattern only
        # (counter at 20 -> (-20) % 4 = 0, and member 0 is a head keep, not
        # a tail keep).
        assert tracer.sample([0.050] * 10) == [0, 4, 8]
        stats = tracer.stats_snapshot()
        assert stats["traces_started"] == stats["traces_finished"] == 30.0
        assert stats["traces_kept"] == 9.0
        assert stats["trace_tail_exemplars"] == 2.0

    def test_dispatched_members_are_judged_one_by_one(self, recorder, store):
        tracer = make_tracer(
            recorder, sample_every=0, tail_quantile=0.9, min_tail_observations=10**9
        )
        # Dispatched members differ by their queue waits: each new maximum
        # is an exemplar, wherever it sits in the batch.
        assert tracer.sample([0.05, 0.04, 0.06, 0.01]) == [0, 2]
        # The same durations one request at a time keep the same members.
        sequential = make_tracer(
            recorder, sample_every=0, tail_quantile=0.9, min_tail_observations=10**9
        )
        assert [keep_one(sequential, d) for d in (0.05, 0.04, 0.06, 0.01)] == [
            True,
            False,
            True,
            False,
        ]
        assert tracer.stats_snapshot() == sequential.stats_snapshot()

    def test_owned_member_round_trips_the_accounting_identity(
        self, recorder, store
    ):
        tracer = make_tracer(recorder)
        batch = tracer.begin("service_batch", members=4, estimator_name="crn")
        tracer.end(batch)
        trace_id = tracer.emit_request(
            5.0,
            5.2,
            "crn",
            batch=batch,
            amortized_seconds=0.05,
            latency_seconds=0.05,
            resolution="pool",
        )
        recorder.flush()
        rows = store.trace_accounting()
        row = next(r for r in rows if r["trace_id"] == trace_id)
        assert row["latency_seconds"] == 0.05
        assert row["amortized_seconds"] == 0.05
        assert row["root_seconds"] == pytest.approx(0.2)

    def test_degenerate_distribution_keeps_only_the_first(self, recorder, store):
        tracer = make_tracer(
            recorder, sample_every=0, tail_quantile=0.9, min_tail_observations=20
        )
        # > _TAIL_REFRESH finishes, so the warm threshold engages.
        decisions = [keep_one(tracer, 0.01) for _ in range(80)]
        assert decisions[0] is True  # trivially the slowest so far
        assert sum(decisions[1:]) == 0
        assert tracer.stats_snapshot()["trace_tail_exemplars"] == 1.0

    def test_dropped_traces_emit_nothing(self, recorder, store):
        tracer = make_tracer(recorder, sample_every=0, min_tail_observations=10**9)
        for index in range(10):
            duration = 1.0 - index * 0.05
            for _ in tracer.sample([duration]):
                tracer.emit_request(0.0, duration, queue_wait=0.001)
        spans = stored_spans(recorder, store)
        # Only the first (slowest-so-far) trace kept its spans.
        assert {row["name"] for row in spans} == {"request", "queue_wait"}
        assert len(spans) == 2


class TestIdentity:
    def test_ids_are_unique_across_tracer_instances(self, store):
        recorders = [
            EventRecorder(store=store, capacity=256, source=f"source-{i}")
            for i in range(2)
        ]
        tracers = [make_tracer(recorder) for recorder in recorders]
        for tracer in tracers:
            for _ in range(50):
                tracer.emit_request(0.0, 0.01, queue_wait=0.001)
        for recorder in recorders:
            recorder.flush()
        rows = store.query("SELECT trace_id, span_id FROM spans")
        assert len(rows) == 2 * 2 * 50
        assert len({row["trace_id"] for row in rows}) == 2 * 50
        assert len({row["span_id"] for row in rows}) == 2 * 2 * 50

    def test_span_events_round_trip_through_the_event_taxonomy(self, recorder, store):
        tracer = make_tracer(recorder)
        handle = tracer.begin("slab_kernel", members=3, mode="compiled")
        tracer.end(handle, requests=3)
        recorder.flush()
        rows = store.query("SELECT * FROM spans")
        assert len(rows) == 1
        assert rows[0]["members"] == 3
        parsed = store.spans_for_trace(rows[0]["trace_id"])[0]
        assert parsed["attributes"]["mode"] == "compiled"
        assert parsed["attributes"]["requests"] == "3"

    def test_span_recorded_event_value_is_the_duration(self):
        event = SpanRecorded(
            trace_id="t",
            span_id="s",
            parent_id="",
            name="x",
            start=0.0,
            duration_seconds=0.125,
        )
        assert event.value() == 0.125
        assert event.kind == "span"

    def test_span_linked_event_value_is_the_amortized_share(self):
        link = SpanLinked(
            trace_id="t",
            span_id="s",
            span_name="service_batch",
            amortized_seconds=0.25,
        )
        assert link.value() == 0.25
        assert link.kind == "span_link"
