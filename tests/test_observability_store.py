"""The SQLite event store: dedup idempotence, views, quantiles, round-trips."""

from __future__ import annotations

import math
from dataclasses import fields

import pytest

from repro.observability import EventRecorder, EventStore
from repro.observability.buffer import BufferedEvent
from repro.observability.events import (
    EVENT_KINDS,
    DriftTrip,
    FeedbackRecorded,
    ModelSwap,
    RequestServed,
    StatsDrained,
    event_from_payload,
)


def served(estimate=100.0, latency=0.002, estimator="crn", generation=1):
    return RequestServed(
        estimator_name=estimator,
        resolution="model",
        generation=generation,
        estimate=estimate,
        latency_seconds=latency,
        pool_matches=4,
        pairs_scored=8,
        used_fallback=False,
    )


def feedback(q_error=2.0, estimator="crn", sequence=0):
    return FeedbackRecorded(
        estimator_name=estimator,
        estimate=10.0,
        true_cardinality=10.0 * q_error,
        q_error=q_error,
        sequence=sequence,
    )


def buffered(event, sequence, timestamp=0.0):
    return BufferedEvent(sequence=sequence, timestamp=timestamp, event=event)


def test_insert_is_idempotent_on_source_and_sequence():
    with EventStore() as store:
        batch = [buffered(served(), 0), buffered(served(), 1)]
        assert store.insert("serving", batch) == 2
        # The identical batch again: at-least-once delivery, exactly-once rows.
        assert store.insert("serving", batch) == 0
        assert store.counts() == {"request_served": 2}
        # The same sequences under a different source are distinct records.
        assert store.insert("replica", batch) == 2
        assert store.counts() == {"request_served": 4}


def test_events_round_trip_through_payload_json():
    swap = ModelSwap(
        estimator_name="crn",
        generation=2,
        pre_swap_q_error=9.0,
        post_swap_q_error=1.5,
        requests_between_swaps=120,
        mode="incremental",
        retrain_seconds=0.5,
    )
    trip = DriftTrip(
        estimator_name="crn",
        q_error=8.0,
        baseline_q_error=1.2,
        observations=30,
        row_delta=600,
        reasons=("q_error_degraded", "rows_changed"),
    )
    with EventStore() as store:
        store.insert("serving", [buffered(swap, 0), buffered(trip, 1)])
        restored = store.events()
        assert restored == [swap, trip]
        # reasons survived as a tuple, not the JSON list it rode through.
        assert restored[1].reasons == ("q_error_degraded", "rows_changed")


def sample_event(cls):
    """An instance of ``cls`` whose numeric fields all hold distinct values."""
    values = {}
    for index, spec in enumerate(fields(cls), start=1):
        annotation = str(spec.type)
        if annotation == "bool":
            values[spec.name] = True
        elif annotation == "str":
            values[spec.name] = f"v{index}"
        elif annotation.startswith("int"):
            values[spec.name] = index
        elif annotation == "float":
            values[spec.name] = index + 0.25
        elif annotation == "tuple[str, ...]":
            values[spec.name] = ("reason",)
        else:
            assert annotation == "tuple[tuple[str, str], ...]", annotation
            values[spec.name] = (("key", "value"),)
    return cls(**values)


#: Where the store keeps each kind's primary scalar: the tracing kinds are
#: routed to their own tables, every other kind to ``events.value``.
STORED_VALUE_SQL = {
    "span": "SELECT duration_seconds AS value FROM spans",
    "span_link": "SELECT amortized_seconds AS value FROM span_links",
}


#: Each kind's primary scalar: the field its ``value`` column aggregates.
VALUE_FIELDS = {
    "request_served": "latency_seconds",
    "batch_served": "elapsed_seconds",
    "dispatcher_batch": "size",
    "index_build": "rows",
    "feedback": "q_error",
    "drift_trip": "q_error",
    "accept_gate": "candidate_q_error",
    "model_swap": "post_swap_q_error",
    "plan_compile": "compile_seconds",
    "plan_swap": "generation",
    "span": "duration_seconds",
    "span_link": "amortized_seconds",
    "artifact_saved": "size_bytes",
    "artifact_loaded": "generation",
    "artifact_promoted": "generation",
    "artifact_rolled_back": "generation",
    "stats_drained": "requests",
}


@pytest.mark.parametrize("kind", sorted(EVENT_KINDS))
def test_value_is_the_declared_field_on_the_event_and_in_the_store(kind):
    cls = EVENT_KINDS[kind]
    assert cls.value_field == VALUE_FIELDS[kind]
    event = sample_event(cls)
    expected = float(getattr(event, VALUE_FIELDS[kind]))
    assert type(event.value()) is float and event.value() == expected
    with EventStore() as store:
        store.insert("serving", [buffered(event, 0)])
        (row,) = store.query(STORED_VALUE_SQL.get(kind, "SELECT value FROM events"))
    assert row["value"] == expected


def test_event_from_payload_ignores_unknown_fields():
    payload = served().payload()
    payload["added_in_some_future_version"] = 42
    assert event_from_payload("request_served", payload) == served()


def test_per_estimator_q_error_view():
    with EventStore() as store:
        store.insert(
            "serving",
            [
                buffered(feedback(2.0, "crn", 0), 0),
                buffered(feedback(4.0, "crn", 1), 1),
                buffered(feedback(8.0, "postgres", 0), 2),
            ],
        )
        rows = {row["estimator"]: row for row in store.per_estimator_q_error()}
        assert rows["crn"]["observations"] == 2
        assert rows["crn"]["mean_q_error"] == pytest.approx(3.0)
        assert rows["crn"]["max_q_error"] == pytest.approx(4.0)
        assert rows["postgres"]["observations"] == 1


def test_tail_latency_view_and_exact_quantiles():
    latencies = [0.001, 0.002, 0.003, 0.004, 0.010]
    with EventStore() as store:
        store.insert(
            "serving",
            [
                buffered(served(latency=latency), index)
                for index, latency in enumerate(latencies)
            ],
        )
        (row,) = store.tail_latency()
        assert row["requests"] == 5
        assert row["max_latency_ms"] == pytest.approx(10.0)
        assert store.latency_quantile(0.5) == pytest.approx(0.003)
        assert store.latency_quantile(1.0) == pytest.approx(0.010)
        assert store.latency_quantile(0.0) == pytest.approx(0.001)


def test_quantiles_validate_and_handle_empty():
    with EventStore() as store:
        assert math.isnan(store.latency_quantile(0.5))
        assert math.isnan(store.q_error_quantile(0.9, estimator="crn"))
        with pytest.raises(ValueError):
            store.latency_quantile(1.5)


def test_nan_values_store_as_null_and_stay_out_of_aggregates():
    with EventStore() as store:
        store.insert(
            "serving",
            [
                buffered(feedback(float("nan"), "crn", 0), 0),
                buffered(feedback(3.0, "crn", 1), 1),
            ],
        )
        (row,) = store.per_estimator_q_error()
        # The NaN row is NULL-valued: invisible to the aggregate, not a
        # poisoned mean.
        assert row["observations"] == 1
        assert row["mean_q_error"] == pytest.approx(3.0)
        assert store.q_error_quantile(0.5) == pytest.approx(3.0)
        # But the event itself is still on the record, payload intact.
        assert store.counts() == {"feedback": 2}


def test_swap_history_is_keyed_by_model_generation():
    def swap(generation):
        return ModelSwap(
            estimator_name="crn",
            generation=generation,
            pre_swap_q_error=5.0,
            post_swap_q_error=1.0,
            requests_between_swaps=40,
            mode="full" if generation % 2 else "incremental",
            retrain_seconds=0.1,
        )

    with EventStore() as store:
        # Inserted out of order; the view orders by generation.
        store.insert("serving", [buffered(swap(3), 0), buffered(swap(2), 1)])
        history = store.swap_history()
        assert [row["model_generation"] for row in history] == [2, 3]
        assert history[0]["mode"] == "incremental"
        assert history[1]["mode"] == "full"
        assert history[0]["requests_between_swaps"] == 40


def test_stats_drained_events_of_an_older_build_stay_readable():
    # Nothing emits stats_drained any more, but a persistent store written
    # by an older build may hold such events, and events() must read them.
    drained = StatsDrained(
        requests=10,
        batches=2,
        planned_pairs=100,
        scored_pairs=80,
        fallbacks=0,
        total_seconds=0.25,
    )
    with EventStore() as store:
        store.insert("serving", [buffered(drained, 0), buffered(served(), 1)])
        assert store.events(kind="stats_drained") == [drained]
        assert [event.kind for event in store.events()] == ["stats_drained", "request_served"]


def test_file_backed_store_survives_reopen(tmp_path):
    path = tmp_path / "events.sqlite"
    with EventStore(str(path)) as store:
        store.insert("serving", [buffered(served(), 0)])
    with EventStore(str(path)) as reopened:
        assert reopened.counts() == {"request_served": 1}
        assert reopened.events() == [served()]


def test_recorder_flush_is_idempotent_against_the_store():
    with EventStore() as store:
        recorder = EventRecorder(store=store, source="serving")
        for index in range(5):
            recorder.emit(served(float(index)))
        first = recorder.flush()
        assert len(first) == 5
        assert recorder.flush() == []  # buffer is empty now
        # Re-sinking the already-flushed batch is a store-level no-op.
        assert store.insert("serving", first) == 0
        assert store.counts() == {"request_served": 5}
        snapshot = recorder.stats_snapshot()
        assert snapshot["events_emitted"] == 5.0
        assert snapshot["events_flushed"] == 5.0
        assert snapshot["events_dropped"] == 0.0


def test_every_event_kind_round_trips():
    """The taxonomy census: each registered kind survives storage intact."""
    samples = {
        "request_served": served(),
        "feedback": feedback(),
        "stats_drained": StatsDrained(
            requests=1, batches=1, planned_pairs=2, scored_pairs=2,
            fallbacks=0, total_seconds=0.1,
        ),
    }
    for kind, event_type in EVENT_KINDS.items():
        sample = samples.get(kind)
        if sample is None:
            continue
        assert type(sample) is event_type
        with EventStore() as store:
            store.insert("serving", [buffered(sample, 0)])
            assert store.events(kind=kind) == [sample]


def span_event(trace_id, span_id, name="request", parent="", duration=0.001):
    from repro.observability.events import SpanRecorded

    return SpanRecorded(
        trace_id=trace_id,
        span_id=span_id,
        parent_id=parent,
        name=name,
        start=0.0,
        duration_seconds=duration,
        attributes=(("latency_seconds", repr(duration)),),
    )


def test_windowed_quantile_sees_only_the_most_recent_events():
    with EventStore() as store:
        # 50 slow then 50 fast: the all-time median straddles, the windowed
        # median sees only the fast recent half.
        batch = [buffered(served(latency=0.100), i) for i in range(50)]
        batch += [buffered(served(latency=0.001), 50 + i) for i in range(50)]
        store.insert("serving", batch)
        assert store.latency_quantile(0.5) == pytest.approx(0.100)
        assert store.latency_quantile(0.5, window=50) == pytest.approx(0.001)
        assert store.latency_quantile(0.5, window=10**6) == pytest.approx(0.100)
        with pytest.raises(ValueError):
            store.latency_quantile(0.5, window=0)


def test_kind_estimator_index_exists():
    with EventStore() as store:
        rows = store.query(
            "SELECT name FROM sqlite_master WHERE type = 'index' "
            "AND name = 'idx_events_kind_estimator'"
        )
        assert rows, "the (kind, estimator) index must exist"


def test_reopen_preserves_events_spans_and_views(tmp_path):
    path = tmp_path / "events.sqlite"
    with EventStore(path) as store:
        store.insert(
            "serving",
            [
                buffered(served(), 0),
                buffered(feedback(q_error=3.0), 1),
                buffered(span_event("t1", "s1"), 2),
                buffered(span_event("t1", "s2", name="queue_wait", parent="s1"), 3),
            ],
        )
        before_views = (
            store.query("SELECT * FROM view_span_kind_latency ORDER BY name"),
            store.trace_accounting(),
        )
    with EventStore(path) as reopened:
        assert reopened.counts()["request_served"] == 1
        spans = reopened.spans_for_trace("t1")
        assert [row["name"] for row in spans] == ["request", "queue_wait"]
        after_views = (
            reopened.query("SELECT * FROM view_span_kind_latency ORDER BY name"),
            reopened.trace_accounting(),
        )
        assert after_views == before_views
        # Re-inserting the same batch after reopen is still a no-op.
        assert reopened.insert("serving", [buffered(served(), 0)]) == 0


def test_two_recorders_interleaved_flushes_are_exactly_once(tmp_path):
    """Satellite contract: two writers with distinct sources, interleaved
    flushes (including replayed ones), exactly-once rows, stable views."""
    path = tmp_path / "events.sqlite"
    with EventStore(path) as store:
        alpha = EventRecorder(store=store, capacity=64, source="alpha")
        beta = EventRecorder(store=store, capacity=64, source="beta")
        alpha.emit(served(latency=0.002))
        beta.emit(served(latency=0.004))
        first_alpha = alpha.flush()
        alpha.emit(served(latency=0.006))
        beta.emit(span_event("tb", "sb"))
        beta.flush()
        alpha.flush()
        # At-least-once delivery: replay both recorders' earlier batches.
        assert store.insert("alpha", first_alpha) == 0
        assert store.counts() == {"request_served": 3, "span": 1}
        views_before = store.query(
            "SELECT * FROM view_span_kind_latency ORDER BY name"
        )
    with EventStore(path) as reopened:
        assert reopened.counts() == {"request_served": 3, "span": 1}
        assert (
            reopened.query("SELECT * FROM view_span_kind_latency ORDER BY name")
            == views_before
        )
        # Same sequences, different sources: both survive as distinct rows.
        rows = reopened.query(
            "SELECT source, COUNT(*) AS n FROM events GROUP BY source ORDER BY source"
        )
        assert [(row["source"], row["n"]) for row in rows] == [("alpha", 2), ("beta", 1)]


def test_span_tables_dedup_on_source_and_sequence():
    with EventStore() as store:
        from repro.observability.events import SpanLinked

        batch = [
            buffered(span_event("t1", "s1"), 0),
            buffered(
                SpanLinked(
                    trace_id="t1",
                    span_id="shared",
                    span_name="service_batch",
                    amortized_seconds=0.5,
                ),
                1,
            ),
        ]
        assert store.insert("serving", batch) == 2
        assert store.insert("serving", batch) == 0
        assert store.counts() == {"span": 1, "span_link": 1}
        assert len(store.links_for_trace("t1")) == 1
