"""End-to-end observability: client wiring, the drain-consistency contract,
and every instrumented component landing its events in the store."""

from __future__ import annotations

import pytest

from repro.baselines import PostgresCardinalityEstimator
from repro.core import CRNConfig, CRNModel, QueriesPool
from repro.datasets import build_queries_pool_queries
from repro.observability import EventStore
from repro.serving import (
    DispatcherConfig,
    FeedbackConfig,
    ObservabilityConfig,
    ServingClient,
    ServingConfig,
)


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


def make_config(model, imdb_small, imdb_featurizer, pool, **overrides):
    defaults = dict(
        model=model,
        featurizer=imdb_featurizer,
        pool=pool,
        fallback_estimator=PostgresCardinalityEstimator(imdb_small),
        observability=ObservabilityConfig(enabled=True),
    )
    defaults.update(overrides)
    return ServingConfig(**defaults)


class TestClientWiring:
    def test_disabled_observability_wires_nothing(
        self, model, imdb_small, imdb_featurizer, pool, workload
    ):
        client = ServingClient(
            make_config(
                model,
                imdb_small,
                imdb_featurizer,
                pool,
                observability=ObservabilityConfig(enabled=False),
            )
        )
        assert client.recorder is None
        assert client.event_store is None
        client.estimate(workload[0])
        assert "events_emitted" not in client.stats()

    def test_requests_and_batches_land_in_the_store(
        self, model, imdb_small, imdb_featurizer, pool, workload
    ):
        client = ServingClient(make_config(model, imdb_small, imdb_featurizer, pool))
        client.estimate_many(workload)
        client.estimate(workload[0])
        stats = client.stats()  # flushes the recorder into the store
        counts = client.event_store.counts()
        assert counts["request_served"] == len(workload) + 1
        assert counts["batch_served"] == 2
        # The warm-up's pool-index slab builds were on the record too: the
        # recorder attaches before the warm.
        assert counts.get("index_build", 0) >= 1
        assert stats["events_dropped"] == 0.0
        assert stats["stored_events"] == stats["events_flushed"]
        (latency_row,) = client.event_store.tail_latency()
        assert latency_row["requests"] == len(workload) + 1

    def test_feedback_events_power_the_q_error_view(
        self, model, imdb_small, imdb_featurizer, pool, workload
    ):
        client = ServingClient(
            make_config(
                model,
                imdb_small,
                imdb_featurizer,
                pool,
                feedback=FeedbackConfig(enabled=True),
            )
        )
        for query in workload[:6]:
            served = client.estimate(query)
            client.record_feedback(served, true_cardinality=2.0 * served.estimate)
        client.stats()
        (row,) = client.event_store.per_estimator_q_error()
        assert row["observations"] == 6
        assert row["mean_q_error"] == pytest.approx(2.0)
        assert client.event_store.q_error_quantile(0.5) == pytest.approx(2.0)

    def test_dispatcher_batches_are_recorded(
        self, model, imdb_small, imdb_featurizer, pool, workload
    ):
        with ServingClient(
            make_config(
                model,
                imdb_small,
                imdb_featurizer,
                pool,
                dispatcher=DispatcherConfig(enabled=True, max_batch=8),
            )
        ) as client:
            futures = [client.estimate_future(query) for query in workload]
            for future in futures:
                future.result()
            client.stats()
            counts = client.event_store.counts()
        assert counts.get("dispatcher_batch", 0) >= 1
        assert counts["request_served"] == len(workload)

    def test_store_persists_to_the_configured_path(
        self, model, imdb_small, imdb_featurizer, pool, workload, tmp_path
    ):
        path = tmp_path / "events.sqlite"
        client = ServingClient(
            make_config(
                model,
                imdb_small,
                imdb_featurizer,
                pool,
                observability=ObservabilityConfig(enabled=True, sqlite_path=str(path)),
            )
        )
        client.estimate(workload[0])
        client.shutdown()  # flushes, leaves the store open for post-mortems
        client.event_store.close()
        with EventStore(str(path)) as reopened:
            assert reopened.counts()["request_served"] == 1


class TestDrainConsistency:
    def test_drained_snapshots_land_in_the_store(
        self, model, imdb_small, imdb_featurizer, pool, workload
    ):
        client = ServingClient(make_config(model, imdb_small, imdb_featurizer, pool))
        client.estimate_many(workload[:10])
        first = client.service.drain_stats()
        assert first["requests"] == 10.0
        client.estimate_many(workload[10:16])
        second = client.service.drain_stats()
        assert second["requests"] == 6.0
        client.recorder.flush()
        totals = client.event_store.drained_totals()
        assert totals["requests"] == 16.0
        assert totals["batches"] == 2.0
        assert totals["planned_pairs"] == first["planned_pairs"] + second["planned_pairs"]

    def test_store_intervals_plus_live_counters_equal_all_time_totals(
        self, model, imdb_small, imdb_featurizer, pool, workload
    ):
        """The consistency contract: draining moves history into the store
        instead of discarding it, so for every counter

            sum(stats_drained intervals) + live counter == all-time total

        holds at any point — ``stats()`` and the store can never disagree
        about how much traffic was served.
        """
        client = ServingClient(make_config(model, imdb_small, imdb_featurizer, pool))
        keys = ("requests", "batches", "planned_pairs", "scored_pairs", "fallbacks")
        all_time = dict.fromkeys(keys, 0.0)

        def checkpoint():
            live = client.stats()  # flushes buffered events into the store
            stored = client.event_store.drained_totals()
            for key in keys:
                assert stored[key] + live[key] == all_time[key], key

        for start, stop, drain in ((0, 8, True), (8, 14, False), (14, 20, True)):
            # All-time totals tracked independently via live deltas measured
            # around each submission (no drain happens inside the bracket).
            before = client.service.stats_snapshot()
            client.estimate_many(workload[start:stop])
            after = client.service.stats_snapshot()
            for key in keys:
                all_time[key] += after[key] - before[key]
            if drain:
                client.service.drain_stats()
            checkpoint()

    def test_checkpoint_pairs_and_fallbacks_are_consistent_too(
        self, model, imdb_small, imdb_featurizer, pool, workload
    ):
        client = ServingClient(make_config(model, imdb_small, imdb_featurizer, pool))
        client.estimate_many(workload[:12])
        before = client.service.stats_snapshot()
        client.service.drain_stats()
        client.estimate_many(workload[12:18])
        after = client.service.stats_snapshot()
        client.recorder.flush()
        stored = client.event_store.drained_totals()
        for key in ("requests", "batches", "planned_pairs", "scored_pairs", "fallbacks"):
            assert stored[key] + after[key] == pytest.approx(before[key] + after[key])
            assert stored[key] == pytest.approx(before[key])
