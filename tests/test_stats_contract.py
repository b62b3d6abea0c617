"""The ``ServingClient.stats()`` contract: exact keys and exact counts.

Every counter the serving stack keeps surfaces through ``client.stats()``,
and the repo benchmark derives its per-layer metrics (dedup share, pool-index
appends / rebuilds, cache hit rates) from those numbers.  These
tests pin the key set and the counts of a fixed, single-threaded request
sequence, so a change to *how* the counts are kept can never change *what*
they report.
"""

from __future__ import annotations

import math

import pytest

from repro.baselines import PostgresCardinalityEstimator
from repro.core import CRNConfig, CRNModel, QueriesPool
from repro.core.training import TrainingResult
from repro.datasets import build_queries_pool_queries
from repro.serving import ServingClient, ServingConfig
from repro.serving.config import (
    AdaptationConfig,
    ClusterConfig,
    DispatcherConfig,
    FeedbackConfig,
    ObservabilityConfig,
    TracingConfig,
)
from repro.sql.builder import QueryBuilder
from tests.conftest import assert_cluster_drained_cleanly

SERVICE_KEYS = {
    "requests",
    "batches",
    "planned_pairs",
    "scored_pairs",
    "deduplicated_pairs",
    "fallbacks",
    "mean_latency_ms",
    "throughput_qps",
    "latency_p50_ms",
    "latency_p90_ms",
    "latency_p99_ms",
    "featurization_hit_rate",
    "featurization_entries",
    "encoding_hit_rate",
    "encoding_entries",
}
POOL_INDEX_KEYS = {
    "pool_index_served",
    "pool_index_builds",
    "pool_index_rebuilds",
    "pool_index_appended_rows",
    "pool_index_signatures",
    "pool_index_rows",
    "pool_index_f32_mirrors",
}
DISPATCHER_KEYS = {
    "submitted",
    "completed",
    "failed",
    "timed_out",
    "coalesced_batches",
    "coalesced_requests",
    "mean_batch_size",
    "max_queue_depth",
    "queue_wait_p50_ms",
    "queue_wait_p99_ms",
    "queue_wait_max_ms",
}
LIFECYCLE_KEYS = {
    "evaluations",
    "drift_triggers",
    "manual_triggers",
    "retrains",
    "incremental_retrains",
    "full_retrains",
    "retrain_failures",
    "promote_failures",
    "escalations",
    "candidates_rejected",
    "swaps",
    "mean_retrain_seconds",
    "last_retrain_seconds",
    "pre_swap_q_error",
    "post_swap_q_error",
    "requests_between_swaps",
    "model_generation",
    "artifact_saves",
    "artifact_save_failures",
}
FEEDBACK_KEYS = {"feedback_observations", "feedback_p50_q_error", "feedback_p90_q_error"}
TRACER_KEYS = {
    "traces_started",
    "traces_finished",
    "traces_kept",
    "traces_dropped",
    "trace_tail_exemplars",
    "shared_spans",
}
OBSERVABILITY_KEYS = {
    "events_emitted",
    "events_buffered",
    "events_dropped",
    "events_flushed",
    "stored_events",
    "stored_swaps",
    "stored_drift_trips",
    "stored_artifact_saves",
}
CLUSTER_KEYS = {
    "cluster_requests_routed",
    "cluster_retries",
    "cluster_unavailable",
    "cluster_workers",
    "cluster_workers_ready",
    "cluster_workers_failed",
    "cluster_worker_restarts",
    "cluster_drain_timeouts",
    "cluster_signatures",
}

#: The counts the fixed sequence in ``local_stats`` produces.  The caches hold
#: request queries only (pool entries' encodings live in the index slabs):
#: the 12 distinct scored request queries are featurized once and encoded
#: once per slot, and of the 38 encoding lookups their first sightings are the
#: 24 misses.
EXPECTED_COUNTS = {
    "requests": 23.0,
    "batches": 18.0,
    "planned_pairs": 74.0,
    "scored_pairs": 64.0,
    "deduplicated_pairs": 10.0,
    "fallbacks": 1.0,
    "featurization_hit_rate": 0.5,
    "featurization_entries": 12.0,
    "encoding_hit_rate": 14 / 38,
    "encoding_entries": 24.0,
    "pool_index_served": 22.0,
    "pool_index_builds": 37.0,
    "pool_index_rebuilds": 1.0,
    "pool_index_appended_rows": 1.0,
    "pool_index_signatures": 37.0,
    "pool_index_rows": 56.0,
    "pool_index_f32_mirrors": 0.0,
    "submitted": 17.0,
    "completed": 17.0,
    "failed": 0.0,
    "timed_out": 0.0,
    "coalesced_batches": 17.0,
    "coalesced_requests": 0.0,
    "mean_batch_size": 1.0,
    "max_queue_depth": 0.0,
    "queue_wait_max_ms": 0.0,
    "evaluations": 0.0,
    "manual_triggers": 0.0,
    "retrains": 0.0,
    "swaps": 0.0,
    "mean_retrain_seconds": 0.0,
    "last_retrain_seconds": 0.0,
    "requests_between_swaps": 0.0,
    "model_generation": 1.0,
    "feedback_observations": 4.0,
    "traces_started": 23.0,
    "traces_finished": 23.0,
}


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
def local_stats(model, imdb_small, imdb_featurizer, imdb_oracle, workload):
    """``client.stats()`` after one fixed sequence with every component on.

    Sequential ``estimate`` calls on an idle dispatcher are served inline,
    one batch each, so every count below repeats exactly.
    """
    labeled = build_queries_pool_queries(imdb_small, count=60, seed=17, oracle=imdb_oracle)
    pool = QueriesPool.from_labeled_queries(labeled)
    unmatched = (
        QueryBuilder().table("movie_companies", "mc").table("movie_keyword", "mk").build()
    )
    config = ServingConfig(
        model=model,
        featurizer=imdb_featurizer,
        pool=pool,
        fallback_estimator=PostgresCardinalityEstimator(imdb_small),
        training_result=TrainingResult(model=model, featurizer=imdb_featurizer),
        database=imdb_small,
        oracle=imdb_oracle,
        dispatcher=DispatcherConfig(enabled=True, max_batch=8),
        feedback=FeedbackConfig(enabled=True, max_observations=64),
        # No policy evaluation inside the test: the worker's first poll is
        # an hour away.
        adaptation=AdaptationConfig(enabled=True, poll_interval_seconds=3600.0),
        observability=ObservabilityConfig(enabled=True),
        tracing=TracingConfig(enabled=True),
    )
    with ServingClient(config) as client:
        for index, query in enumerate(workload[:10] + workload[:4] + [unmatched]):
            result = client.estimate(query)
            if index < 4:
                client.record_feedback(result, true_cardinality=100.0)
        # One synchronous batch with repeats: the planner deduplicates them.
        client.estimate_many(workload[:3] * 2)
        # A new pool query appends one slab row on its signature's next
        # request; re-adding a pooled query with a new cardinality rebuilds.
        pool.add(workload[37], 167)
        client.estimate(workload[37])
        pool.add(workload[12], 7000)
        client.estimate(workload[12])
        stats = client.stats()
    return stats


class TestLocalStatsContract:
    def test_key_set_is_exact(self, local_stats):
        expected = (
            SERVICE_KEYS
            | POOL_INDEX_KEYS
            | DISPATCHER_KEYS
            | LIFECYCLE_KEYS
            | FEEDBACK_KEYS
            | TRACER_KEYS
            | OBSERVABILITY_KEYS
        )
        assert set(local_stats) == expected

    def test_counts_are_exact(self, local_stats):
        assert {key: local_stats[key] for key in EXPECTED_COUNTS} == EXPECTED_COUNTS

    def test_gauges_without_a_reading_are_nan(self, local_stats):
        for key in ("pre_swap_q_error", "post_swap_q_error"):
            assert math.isnan(local_stats[key]), key


def test_cluster_key_set_is_exact(model, imdb_small, imdb_featurizer, pool, workload):
    config = ServingConfig(
        model=model,
        featurizer=imdb_featurizer,
        pool=pool,
        fallback_estimator=PostgresCardinalityEstimator(imdb_small),
        cluster=ClusterConfig(mode="cluster", num_workers=2),
    )
    with ServingClient(config) as client:
        client.estimate(workload[0])
        client.estimate_many(workload[:4])
        stats = client.stats()
    assert_cluster_drained_cleanly(client)
    assert set(stats) == CLUSTER_KEYS
    assert stats["cluster_requests_routed"] == 5.0
    assert stats["cluster_retries"] == 0.0
    assert stats["cluster_unavailable"] == 0.0
