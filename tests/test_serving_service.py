"""Tests for the online estimation service (caches, batched Cnt2Crd scoring, registry)."""

from __future__ import annotations

import threading

import numpy as np
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
from repro.serving import (
    CacheConfig,
    EncodingCache,
    EstimationService,
    FeaturizationCache,
    RequestOptions,
)
from repro.sql.builder import QueryBuilder
from tests import conftest
from tests.conftest import ZeroRatesContainment


@pytest.fixture(scope="module")
def pool(imdb_small, imdb_oracle):
    labeled = build_queries_pool_queries(imdb_small, count=80, seed=17, oracle=imdb_oracle)
    return QueriesPool.from_labeled_queries(labeled)


@pytest.fixture(scope="module")
def workload(imdb_small, imdb_oracle):
    labeled = build_queries_pool_queries(imdb_small, count=40, seed=23, oracle=imdb_oracle)
    return [item.query for item in labeled]


@pytest.fixture(scope="module")
def model(imdb_featurizer):
    return CRNModel(imdb_featurizer.vector_size, CRNConfig(hidden_size=16, seed=5))


def build_service(model, imdb_small, imdb_featurizer, pool, max_cache_entries=None):
    return conftest.build_service(
        model,
        imdb_featurizer,
        pool,
        fallback_estimator=PostgresCardinalityEstimator(imdb_small),
        caches=CacheConfig(max_featurization_entries=max_cache_entries),
    )


class TestFeaturizationCache:
    def test_hit_miss_accounting(self, imdb_featurizer, workload):
        cache = FeaturizationCache(imdb_featurizer)
        first = cache.featurize(workload[0])
        assert cache.stats.misses == 1 and cache.stats.hits == 0
        again = cache.featurize(workload[0])
        assert cache.stats.misses == 1 and cache.stats.hits == 1
        assert again is first  # memoized, not recomputed
        np.testing.assert_array_equal(first, imdb_featurizer.featurize(workload[0]))
        assert cache.stats_snapshot()["hit_rate"] == 0.5

    def test_lru_eviction(self, imdb_featurizer, workload):
        cache = FeaturizationCache(imdb_featurizer, max_entries=2)
        cache.featurize(workload[0])
        cache.featurize(workload[1])
        cache.featurize(workload[2])  # evicts workload[0]
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        cache.featurize(workload[0])
        assert cache.stats.misses == 4  # re-featurized after eviction

    def test_passthrough_surface(self, imdb_featurizer, workload):
        cache = FeaturizationCache(imdb_featurizer)
        assert cache.vector_size == imdb_featurizer.vector_size
        assert cache.layout is imdb_featurizer.layout
        batch, mask = cache.featurize_batch(workload[:3])
        expected_batch, expected_mask = imdb_featurizer.featurize_batch(workload[:3])
        np.testing.assert_array_equal(batch, expected_batch)
        np.testing.assert_array_equal(mask, expected_mask)

    def test_cache_key_scopes_to_featurizer_fingerprint(self, imdb_featurizer, workload):
        key = imdb_featurizer.cache_key(workload[0])
        assert key == (imdb_featurizer.fingerprint, workload[0])
        assert hash(key)  # usable as a dict key


class TestEncodingCache:
    def test_position_is_part_of_the_key(self, model, imdb_featurizer, workload):
        cache = EncodingCache()
        estimator = CRNEstimator(model, imdb_featurizer, encoding_cache=cache)
        first = estimator.encode_query(workload[0], 1)
        second = estimator.encode_query(workload[0], 2)
        assert len(cache) == 2
        assert not np.array_equal(first, second)  # MLP1 vs MLP2
        assert cache.stats.misses == 2 and cache.stats.hits == 0
        assert estimator.encode_query(workload[0], 1) is first
        assert cache.stats.hits == 1

    def test_cache_rejects_a_second_model(self, model, imdb_featurizer):
        cache = EncodingCache()
        CRNEstimator(model, imdb_featurizer, encoding_cache=cache)
        other = CRNModel(imdb_featurizer.vector_size, CRNConfig(hidden_size=16, seed=99))
        with pytest.raises(ValueError, match="already bound"):
            CRNEstimator(other, imdb_featurizer, encoding_cache=cache)

    def test_rebind_clears_and_accepts_a_retrained_model(self, model, imdb_featurizer, workload):
        cache = EncodingCache()
        estimator = CRNEstimator(model, imdb_featurizer, encoding_cache=cache)
        estimator.encode_query(workload[0], 1)
        assert len(cache) == 1
        retrained = CRNModel(imdb_featurizer.vector_size, CRNConfig(hidden_size=16, seed=99))
        cache.rebind(retrained)
        assert len(cache) == 0  # the old model's encodings are gone
        CRNEstimator(retrained, imdb_featurizer, encoding_cache=cache)  # no raise

    def test_rebind_fences_stale_writers_and_readers(self, model, imdb_featurizer, workload):
        # The torn-swap race: during a same-featurizer hot swap, a request
        # still in flight on the old model must not re-poison the rebound
        # cache (its write lands after rebind cleared the store, under a key
        # the new model would read).  Owner-identified writes are fenced.
        cache = EncodingCache()
        estimator = CRNEstimator(model, imdb_featurizer, encoding_cache=cache)
        scope = imdb_featurizer.fingerprint
        old_encoding = estimator.encode_query(workload[0], 1)
        retrained = CRNModel(imdb_featurizer.vector_size, CRNConfig(hidden_size=16, seed=99))
        cache.rebind(retrained)
        # The old model's in-flight write is dropped, not stored.
        cache.put(workload[0], 1, old_encoding, scope=scope, owner=model)
        assert len(cache) == 0
        assert cache.get(workload[0], 1, scope=scope, owner=retrained) is None
        # The old model's in-flight reads miss instead of observing the swap.
        assert cache.get(workload[0], 1, scope=scope, owner=model) is None
        # The new model's writes land normally.
        fresh = CRNEstimator(retrained, imdb_featurizer, encoding_cache=cache)
        new_encoding = fresh.encode_query(workload[0], 1)
        assert cache.get(workload[0], 1, scope=scope, owner=retrained) is new_encoding

    def test_encodings_scoped_to_featurizer_snapshot(self, model, imdb_featurizer, workload):
        # Regression: the cache used to key by (query, position) only, so a
        # featurizer rebound to an updated database snapshot (see
        # repro.extensions.updates) silently served the old snapshot's
        # encodings.  The snapshot fingerprint is now part of the key.
        from repro.core.featurization import QueryFeaturizer
        from repro.datasets.imdb import SyntheticIMDbConfig, build_synthetic_imdb

        cache = EncodingCache()
        estimator = CRNEstimator(model, imdb_featurizer, encoding_cache=cache)
        estimator.encode_query(workload[0], 1)
        updated = build_synthetic_imdb(SyntheticIMDbConfig(num_titles=350, seed=99))
        updated_featurizer = QueryFeaturizer(updated)
        assert updated_featurizer.fingerprint != imdb_featurizer.fingerprint
        estimator.featurizer = updated_featurizer  # rebound after a db update
        misses_before = cache.stats.misses
        fresh = estimator.encode_query(workload[0], 1)
        assert cache.stats.misses == misses_before + 1  # not served stale
        np.testing.assert_array_equal(
            fresh, model.encode_set(updated_featurizer.featurize(workload[0]), 1)
        )
        # Flipping back to the original snapshot hits its still-cached entry.
        estimator.featurizer = imdb_featurizer
        hits_before = cache.stats.hits
        estimator.encode_query(workload[0], 1)
        assert cache.stats.hits == hits_before + 1

    def test_featurization_deduplicated_within_call_without_cache(
        self, model, imdb_featurizer, workload
    ):
        calls = []
        original = imdb_featurizer.featurize

        class CountingFeaturizer:
            vector_size = imdb_featurizer.vector_size

            def featurize(self, query):
                calls.append(query)
                return original(query)

        estimator = CRNEstimator(model, CountingFeaturizer())
        query, other = workload[0], workload[1]
        # query appears in both slots of many pairs, spanning many PASS_ROWS
        # tiles of the pair head.
        pairs = [(query, other), (other, query), (query, query)] * 200
        estimator.estimate_containments(pairs)
        assert len(calls) == 2  # one featurization per unique query, whole call


class TestBatchedScoring:
    def test_identical_requests_share_one_slab_token(
        self, model, imdb_featurizer, pool, workload
    ):
        estimator = Cnt2CrdEstimator(CRNEstimator(model, imdb_featurizer), pool)
        (single,), single_scored = estimator.slab_values([workload[0]])
        doubled, doubled_scored = estimator.slab_values([workload[0], workload[0]])
        assert single_scored == 2 * len(single[0].entries) > 0
        # The core routine deduplicates on (query, slab token).
        (first, first_values), (second, second_values) = doubled
        assert first.token == second.token
        assert first_values is second_values
        assert doubled_scored == single_scored
        service = EstimationService()
        service.register("crn", estimator)
        service.submit_batch([workload[0], workload[0]])
        assert service.stats.planned_pairs == 2 * single_scored
        assert service.stats.scored_pairs == single_scored
        assert service.stats_snapshot()["deduplicated_pairs"] == single_scored

    def test_every_matched_request_resolves_to_a_slab(
        self, model, imdb_featurizer, pool, workload
    ):
        # A bare estimator (no index) resolves row-less slabs — never None —
        # covering exactly the eligible entries, with aligned cardinalities.
        estimator = Cnt2CrdEstimator(CRNEstimator(model, imdb_featurizer), pool)
        queries = workload[:5]
        results, scored = estimator.slab_values(queries)
        for query, (slab, values) in zip(queries, results):
            assert pool.has_match(query)
            assert slab is not None and slab.first is None
            assert list(slab.entries) == estimator.eligible_entries(query)
            assert slab.cardinalities.tolist() == [
                float(entry.cardinality) for entry in slab.entries
            ]
            assert 0 < values.size <= len(slab.entries)
        assert scored == sum(2 * len(slab.entries) for slab, _ in results)
        service = EstimationService()
        service.register("crn", estimator)
        served = service.submit_batch(queries)
        assert [item.resolution for item in served] == ["pair_batch"] * len(queries)
        assert [item.pairs_scored for item in served] == [
            2 * len(slab.entries) for slab, _ in results
        ]

    def test_served_estimates_match_naive_path_bit_for_bit(
        self, model, imdb_small, imdb_featurizer, pool, workload
    ):
        # The naive path: a fresh, cache-less estimator answering one request
        # at a time, exactly as today's Cnt2CrdEstimator would be called.
        naive = Cnt2CrdEstimator(
            CRNEstimator(model, imdb_featurizer),
            pool,
            fallback=PostgresCardinalityEstimator(imdb_small),
        )
        naive_estimates = [naive.estimate_cardinality(query) for query in workload]
        service = build_service(model, imdb_small, imdb_featurizer, pool)
        served = service.submit_batch(workload)
        assert [item.estimate for item in served] == naive_estimates

    def test_single_submit_matches_batched_submit_bit_for_bit(
        self, model, imdb_small, imdb_featurizer, pool, workload
    ):
        service = build_service(model, imdb_small, imdb_featurizer, pool)
        batched = [item.estimate for item in service.submit_batch(workload)]
        singles = [service.submit(query).estimate for query in workload]
        assert singles == batched


class TestEstimationService:
    def test_registry_default_and_unknown_name(self, model, imdb_small, imdb_featurizer, pool):
        service = build_service(model, imdb_small, imdb_featurizer, pool)
        assert service.default_estimator == "crn"
        assert set(service.names()) == {"crn", "fallback"}
        with pytest.raises(KeyError, match="unknown estimator"):
            service.get("mscn")

    def test_registry_fallback_on_no_matching_pool_query(
        self, model, imdb_small, imdb_featurizer, pool
    ):
        # The generator only joins fact tables through title, so a FROM
        # clause of two fact tables without title never appears in the pool.
        unmatched = (
            QueryBuilder()
            .table("movie_companies", "mc")
            .table("movie_keyword", "mk")
            .build()
        )
        assert not pool.has_match(unmatched)
        service = build_service(model, imdb_small, imdb_featurizer, pool)
        served = service.submit(unmatched)
        postgres = PostgresCardinalityEstimator(imdb_small)
        assert served.used_fallback
        assert served.estimator_name == "fallback"
        assert served.estimate == postgres.estimate_cardinality(unmatched)
        assert service.stats.fallbacks == 1

    def test_all_filtered_request_is_rerouted_and_flagged(
        self, imdb_small, imdb_featurizer, pool, workload
    ):
        # Regression: a matched request whose every y_rate fell under the
        # epsilon guard used to be served a flat 0.0, bypassing the registry
        # fallback entirely.  It must re-route exactly like the no-match
        # case — flagged, attributed to the fallback entry, counted.

        postgres = PostgresCardinalityEstimator(imdb_small)
        service = EstimationService(fallback="fallback")
        service.register("crn", Cnt2CrdEstimator(ZeroRatesContainment(), pool), default=True)
        service.register("fallback", postgres)
        query = next(q for q in workload if pool.has_match(q))
        served = service.submit(query)
        assert served.used_fallback
        assert served.estimator_name == "fallback"
        assert served.estimate == postgres.estimate_cardinality(query)
        assert served.pool_matches > 0  # the pool DID match; scoring happened
        assert service.stats.fallbacks == 1

    def test_all_filtered_prefers_the_estimator_builtin_fallback(
        self, imdb_small, imdb_oracle, pool, workload
    ):
        # With a built-in fallback on the estimator itself, the re-route
        # stays inside the estimator (unflagged), mirroring the no-match path.

        from repro.core.oracle import OracleCardinalityEstimator

        oracle_fallback = OracleCardinalityEstimator(imdb_small, oracle=imdb_oracle)
        service = EstimationService()
        service.register(
            "crn", Cnt2CrdEstimator(ZeroRatesContainment(), pool, fallback=oracle_fallback)
        )
        query = next(q for q in workload if pool.has_match(q))
        served = service.submit(query)
        assert not served.used_fallback
        assert served.estimator_name == "crn"
        assert served.estimate == imdb_oracle.cardinality(query)

    def test_all_filtered_without_any_fallback_serves_the_zero_collapse(
        self, pool, workload
    ):
        # No built-in fallback, no registry fallback: the legacy collapse
        # to 0.0 stands (and the batch must not raise).

        service = EstimationService()
        service.register("crn", Cnt2CrdEstimator(ZeroRatesContainment(), pool))
        query = next(q for q in workload if pool.has_match(q))
        served = service.submit(query)
        assert served.estimate == 0.0
        assert not served.used_fallback

    def test_no_fallback_raises(self, model, imdb_featurizer, pool):
        unmatched = (
            QueryBuilder()
            .table("movie_companies", "mc")
            .table("movie_keyword", "mk")
            .build()
        )
        service = EstimationService()
        service.register(
            "crn", Cnt2CrdEstimator(CRNEstimator(model, imdb_featurizer), pool)
        )
        with pytest.raises(NoMatchingPoolQueryError):
            service.submit(unmatched)

    def test_failed_batch_leaves_stats_consistent(self, model, imdb_featurizer, pool, workload):
        unmatched = (
            QueryBuilder()
            .table("movie_companies", "mc")
            .table("movie_keyword", "mk")
            .build()
        )
        service = EstimationService()
        service.register(
            "crn", Cnt2CrdEstimator(CRNEstimator(model, imdb_featurizer), pool)
        )
        with pytest.raises(NoMatchingPoolQueryError):
            service.submit_batch([workload[0], unmatched])
        # The aborted batch must not leave pair work attributed to zero requests.
        assert service.stats.requests == 0
        assert service.stats.batches == 0
        assert service.stats.planned_pairs == 0
        assert service.stats.scored_pairs == 0

    def test_bounded_service_cache_admits_two_encodings_per_query(
        self, model, imdb_small, imdb_featurizer, pool
    ):
        service = build_service(
            model, imdb_small, imdb_featurizer, pool, max_cache_entries=len(pool)
        )
        # Warming inserts one encoding per pair slot per scored (non-empty)
        # pool query; a bound sized to the pool must not evict half of what
        # it just warmed.
        eligible = sum(1 for entry in pool if entry.cardinality > 0)
        assert 0 < eligible < len(pool)
        assert len(service.encoding_cache) == 2 * eligible
        assert service.encoding_cache.stats.evictions == 0

    def test_non_cnt2crd_estimators_are_served_per_query(
        self, model, imdb_small, imdb_featurizer, pool, workload
    ):
        service = build_service(model, imdb_small, imdb_featurizer, pool)
        postgres = PostgresCardinalityEstimator(imdb_small)
        served = service.submit_batch(workload[:5], RequestOptions(estimator="fallback"))
        assert [item.estimate for item in served] == [
            postgres.estimate_cardinality(query) for query in workload[:5]
        ]
        assert all(item.estimator_name == "fallback" for item in served)
        assert not any(item.used_fallback for item in served)

    def test_stats_and_snapshot_accounting(self, model, imdb_small, imdb_featurizer, pool, workload):
        service = build_service(model, imdb_small, imdb_featurizer, pool)
        service.submit_batch(workload)
        snapshot = service.stats_snapshot()
        assert snapshot["requests"] == len(workload)
        assert snapshot["batches"] == 1
        assert snapshot["scored_pairs"] <= snapshot["planned_pairs"]
        # The pool was warmed at build time, so every pool-side encoding hits.
        assert snapshot["encoding_hit_rate"] > 0.0
        # The warm featurized every scored pool query (cardinality > 0).
        assert snapshot["featurization_entries"] >= sum(1 for e in pool if e.cardinality > 0)
        served_again = service.submit_batch(workload)
        assert service.stats.batches == 2
        assert served_again[0].latency_seconds > 0.0

    def test_warm_pool_featurizes_pool_once_ever(
        self, model, imdb_small, imdb_featurizer, pool, workload
    ):
        service = build_service(model, imdb_small, imdb_featurizer, pool)
        misses_after_warm = service.featurization_cache.stats.misses
        service.submit_batch(workload)
        service.submit_batch(workload)
        pool_queries = {entry.query for entry in pool}
        new_misses = service.featurization_cache.stats.misses - misses_after_warm
        # Only never-seen incoming queries miss; pool queries never miss again.
        assert new_misses <= len({q for q in workload if q not in pool_queries})


class TestRegistryEdgeCases:
    def test_register_duplicate_name_raises(self, imdb_small):
        service = EstimationService()
        service.register("only", PostgresCardinalityEstimator(imdb_small))
        with pytest.raises(ValueError, match="already registered"):
            service.register("only", PostgresCardinalityEstimator(imdb_small))
        # The original entry and its generation are untouched.
        assert service.names() == ["only"]
        assert service.generation("only") == 1

    def test_replace_bumps_generation_stamped_into_results(
        self, model, imdb_small, imdb_featurizer, pool, workload
    ):
        service = build_service(model, imdb_small, imdb_featurizer, pool)
        matched = next(q for q in workload if pool.has_match(q))
        assert service.submit(matched).model_generation == 1
        service.replace("crn", service.get("crn"))
        service.replace("crn", service.get("crn"))
        served = service.submit(matched)
        assert served.model_generation == 3
        assert service.generation("crn") == 3

    def test_registry_fallback_result_carries_fallback_generation(
        self, model, imdb_small, imdb_featurizer, pool
    ):
        unmatched = (
            QueryBuilder()
            .table("movie_companies", "mc")
            .table("movie_keyword", "mk")
            .build()
        )
        service = build_service(model, imdb_small, imdb_featurizer, pool)
        service.replace("fallback", PostgresCardinalityEstimator(imdb_small))
        served = service.submit(unmatched)
        assert served.used_fallback and served.estimator_name == "fallback"
        # The stamped generation is the ANSWERING entry's, not the primary's.
        assert served.model_generation == 2


class TestStatsDraining:
    def test_drain_returns_counters_and_zeroes_them(
        self, model, imdb_small, imdb_featurizer, pool, workload
    ):
        service = build_service(model, imdb_small, imdb_featurizer, pool)
        service.submit_batch(workload[:5])
        drained = service.drain_stats()
        assert drained["requests"] == 5.0
        assert drained["batches"] == 1.0
        assert "featurization_hit_rate" not in drained  # counters only
        assert service.stats.requests == 0
        assert service.stats_snapshot()["requests"] == 0.0

    def test_drain_zeroes_under_lock(
        self, model, imdb_small, imdb_featurizer, pool, workload
    ):
        service = build_service(model, imdb_small, imdb_featurizer, pool)
        service.submit_batch(workload[:3])
        service.drain_stats()
        assert service.stats.requests == 0

    def test_concurrent_drains_count_every_request_exactly_once(
        self, model, imdb_small, imdb_featurizer, pool, workload
    ):
        # The race drain_stats closes: with separate snapshot + reset calls,
        # requests landing between the two are lost (or double-counted by
        # the next interval).  Drained intervals must partition the traffic.
        service = build_service(model, imdb_small, imdb_featurizer, pool)
        rounds, submitters = 20, 4
        drained: list[float] = []
        stop = threading.Event()

        def submit_worker():
            for _ in range(rounds):
                service.submit_batch(workload[:3])

        def drain_worker():
            while not stop.is_set():
                drained.append(service.drain_stats()["requests"])

        drainer = threading.Thread(target=drain_worker)
        workers = [threading.Thread(target=submit_worker) for _ in range(submitters)]
        drainer.start()
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        stop.set()
        drainer.join()
        drained.append(service.drain_stats()["requests"])
        assert sum(drained) == rounds * submitters * 3


class TestServingMetrics:
    def test_time_service_and_tables(self, model, imdb_small, imdb_featurizer, pool, imdb_oracle):
        from repro.evaluation import format_service_stats, format_serving_table, time_service

        labeled = build_queries_pool_queries(
            imdb_small, count=20, seed=31, oracle=imdb_oracle
        )
        service = build_service(model, imdb_small, imdb_featurizer, pool)
        timed = time_service(service, labeled, batch_size=8)
        assert timed.name == "crn"
        assert timed.mean_latency_seconds > 0.0
        assert timed.throughput_qps > 0.0
        assert 0.0 <= timed.featurization_hit_rate <= 1.0
        table = format_serving_table({"batched+cached": timed}, title="serving")
        assert "batched+cached" in table and "qps" in table
        stats_text = format_service_stats(service.stats_snapshot(), title="service stats")
        assert "requests served" in stats_text and "hit rate" in stats_text
