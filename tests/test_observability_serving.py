"""End-to-end observability: client wiring, and service counters that count
from boot across hot swaps, as the store does."""

from __future__ import annotations

import pytest

from repro.baselines import PostgresCardinalityEstimator
from repro.core import CRNConfig, CRNModel, QueriesPool, TrainingConfig, train_crn
from repro.datasets import build_queries_pool_queries, build_training_pairs
from repro.observability import EventStore
from repro.serving import (
    AdaptationConfig,
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


@pytest.fixture(scope="module")
def trained(imdb_small, imdb_featurizer, imdb_oracle):
    pairs = build_training_pairs(imdb_small, count=80, seed=12, oracle=imdb_oracle)
    return train_crn(
        imdb_featurizer,
        pairs,
        crn_config=CRNConfig(hidden_size=16, seed=2),
        training_config=TrainingConfig(epochs=4, batch_size=32),
    )


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


class TestCountsFromBoot:
    def test_service_counters_span_every_swap(self, trained, imdb_small, pool, workload):
        """A promote resets no service counter: after every swap ``stats()``
        counts each request served since boot, as the store's
        ``request_served`` events do, and ``requests_between_swaps`` is the
        traffic served since the swap before."""
        config = make_config(
            trained.model,
            imdb_small,
            trained.featurizer,
            pool,
            training_result=trained,
            database=imdb_small,
            feedback=FeedbackConfig(enabled=True),
            adaptation=AdaptationConfig(
                enabled=True,
                poll_interval_seconds=3600.0,
                training_pairs=20,
                incremental_epochs=1,
                full_epochs=1,
            ),
        )
        client = ServingClient(config)
        served, between = 0, []
        for start, stop in ((0, 10), (10, 16), (16, 24)):
            client.estimate_many(workload[start:stop])
            served += stop - start
            between.append(stop - start)
            # An empty feedback window skips the gate: the candidate promotes.
            assert client.trigger_adaptation().swapped
            stats = client.stats()  # flushes buffered events into the store
            assert stats["requests"] == served
            assert stats["batches"] == len(between)
            assert stats["requests_between_swaps"] == between[-1]
            assert client.event_store.counts()["request_served"] == served
        assert stats["swaps"] == 3.0
        swaps = client.event_store.events(kind="model_swap")
        assert [event.requests_between_swaps for event in swaps] == between
        assert "stats_drained" not in client.event_store.counts()
        client.shutdown()
