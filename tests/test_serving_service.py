"""Tests for the online estimation service (caches, batched Cnt2Crd scoring, hot swap)."""

from __future__ import annotations

import copy
import sys
import threading
from collections import Counter

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
)
from repro.core.estimators import CardinalityEstimator
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

    def test_equal_queries_share_one_entry(self, imdb_featurizer, workload):
        cache = FeaturizationCache(imdb_featurizer)
        first = cache.featurize(workload[0])
        twin = copy.deepcopy(workload[0])
        assert twin == workload[0] and twin is not workload[0]
        assert cache.featurize(twin) is first
        assert len(cache) == 1
        assert cache.stats.misses == 1 and cache.stats.hits == 1

    def test_passthrough_surface(self, imdb_featurizer, workload):
        cache = FeaturizationCache(imdb_featurizer)
        assert cache.vector_size == imdb_featurizer.vector_size
        rows, counts = cache.featurize_many(workload[:3])
        expected_rows, expected_counts = imdb_featurizer.featurize_many(workload[:3])
        assert rows.tobytes() == expected_rows.tobytes()
        assert counts.tolist() == expected_counts.tolist()
        # Bulk featurization bypasses the cache: it holds request queries only.
        assert len(cache) == 0 and cache.stats.misses == cache.stats.hits == 0


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

    def test_equal_queries_share_one_encoding(self, model, imdb_featurizer, workload):
        cache = EncodingCache()
        estimator = CRNEstimator(model, imdb_featurizer, encoding_cache=cache)
        first = estimator.encode_query(workload[0], 1)
        twin = copy.deepcopy(workload[0])
        assert twin == workload[0] and twin is not workload[0]
        assert estimator.encode_query(twin, 1) is first
        assert cache.get(twin, 1) is first and cache.get(twin, 2) is None
        assert len(cache) == 1

    def test_cache_rejects_a_second_model(self, model, imdb_featurizer):
        cache = EncodingCache()
        CRNEstimator(model, imdb_featurizer, encoding_cache=cache)
        other = CRNModel(imdb_featurizer.vector_size, CRNConfig(hidden_size=16, seed=99))
        with pytest.raises(ValueError, match="already bound"):
            CRNEstimator(other, imdb_featurizer, encoding_cache=cache)

    def test_a_retrained_model_encodes_into_a_cache_of_its_own(
        self, model, imdb_featurizer, workload
    ):
        # A hot swap wires the retrained model a fresh cache: the outgoing
        # model's in-flight requests keep hitting their own encodings, and
        # neither model ever reads or writes the other's.
        old_cache, new_cache = EncodingCache(), EncodingCache()
        old = CRNEstimator(model, imdb_featurizer, encoding_cache=old_cache)
        old_encoding = old.encode_query(workload[0], 1)
        retrained = CRNModel(imdb_featurizer.vector_size, CRNConfig(hidden_size=16, seed=99))
        fresh = CRNEstimator(retrained, imdb_featurizer, encoding_cache=new_cache)
        new_encoding = fresh.encode_query(workload[0], 1)
        assert not np.array_equal(old_encoding, new_encoding)
        assert new_cache.stats.misses == 1 and new_cache.stats.hits == 0
        assert old.encode_query(workload[0], 1) is old_encoding
        assert old.encode_query(workload[1], 2) is not None  # a late old-model write
        assert len(old_cache) == 2 and len(new_cache) == 1
        assert fresh.encode_query(workload[0], 1) is new_encoding
        assert new_cache.stats.hits == 1

    def test_featurization_deduplicated_within_call_without_cache(
        self, model, imdb_featurizer, workload
    ):
        calls = []
        original = imdb_featurizer.featurize_many

        class CountingFeaturizer:
            vector_size = imdb_featurizer.vector_size

            def featurize_many(self, queries):
                calls.append(list(queries))
                return original(queries)

        estimator = CRNEstimator(model, CountingFeaturizer())
        query, other = workload[0], workload[1]
        # query appears in both slots of many pairs, spanning many PASS_ROWS
        # tiles of the pair head.
        pairs = [(query, other), (other, query), (query, query)] * 200
        rates = estimator.estimate_containments(pairs)
        # One bulk pass over the unique queries, whole call, both slots.
        assert calls == [[query, other]]
        assert rates == CRNEstimator(model, imdb_featurizer).estimate_containments(pairs)


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
        service = EstimationService(estimator)
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
            assert list(slab.entries) == [
                entry for entry in pool.matching_entries(query) if entry.cardinality > 0
            ]
            assert slab.cardinalities.tolist() == [
                float(entry.cardinality) for entry in slab.entries
            ]
            assert 0 < values.size <= len(slab.entries)
        assert scored == sum(2 * len(slab.entries) for slab, _ in results)
        service = EstimationService(estimator)
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
    def test_fallback_on_no_matching_pool_query(
        self, model, imdb_small, imdb_featurizer, pool
    ):
        # The generator only joins fact tables through title, so a FROM
        # clause of two fact tables without title never appears in the pool.
        unmatched = unmatched_query()
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
        # epsilon guard used to be served a flat 0.0, bypassing the
        # fallback entirely.  It must re-route exactly like the no-match
        # case — flagged, attributed to the fallback, counted.

        postgres = PostgresCardinalityEstimator(imdb_small)
        service = EstimationService(
            Cnt2CrdEstimator(ZeroRatesContainment(), pool, fallback=postgres)
        )
        query = next(q for q in workload if pool.has_match(q))
        served = service.submit(query)
        assert served.used_fallback
        assert served.estimator_name == "fallback"
        assert served.estimate == postgres.estimate_cardinality(query)
        assert served.pool_matches > 0  # the pool DID match; scoring happened
        assert service.stats.fallbacks == 1

    def test_all_filtered_without_any_fallback_serves_the_zero_collapse(
        self, pool, workload
    ):
        # No fallback: the legacy collapse to 0.0 stands (and the batch must
        # not raise).

        service = EstimationService(Cnt2CrdEstimator(ZeroRatesContainment(), pool))
        query = next(q for q in workload if pool.has_match(q))
        served = service.submit(query)
        assert served.estimate == 0.0
        assert not served.used_fallback

    def test_no_fallback_raises(self, model, imdb_featurizer, pool):
        unmatched = unmatched_query()
        service = EstimationService(Cnt2CrdEstimator(CRNEstimator(model, imdb_featurizer), pool))
        with pytest.raises(NoMatchingPoolQueryError, match="has no fallback estimator"):
            service.submit(unmatched)

    def test_failed_batch_leaves_stats_consistent(self, model, imdb_featurizer, pool, workload):
        unmatched = unmatched_query()
        service = EstimationService(Cnt2CrdEstimator(CRNEstimator(model, imdb_featurizer), pool))
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
        # The pool warm at build time filled the index slabs, not the caches.
        crn = service.estimator.containment_estimator
        assert len(crn.featurizer) == len(crn.encoding_cache) == 0
        # Warming request queries inserts one encoding per pair slot per
        # query; the encoding bound (twice the featurization bound) must not
        # evict half of what it just warmed.
        queries = [entry.query for entry in pool]
        service.warm(queries)
        assert len(crn.encoding_cache) == 2 * len(queries)
        assert crn.encoding_cache.stats.evictions == 0

    def test_unmatched_request_goes_to_the_fallback_at_generation_one(
        self, imdb_small, pool
    ):
        postgres = PostgresCardinalityEstimator(imdb_small)
        service = EstimationService(
            Cnt2CrdEstimator(ZeroRatesContainment(), pool, fallback=postgres), generation=4
        )
        (served,) = service.submit_batch([unmatched_query()])
        assert (served.estimator_name, served.resolution) == ("fallback", "registry_fallback")
        assert served.used_fallback and served.model_generation == 1
        assert (served.pool_matches, served.pairs_scored) == (0, 0)
        assert served.estimate == postgres.estimate_cardinality(unmatched_query())
        assert service.stats.fallbacks == 1

    def test_without_any_answer_the_request_raises(self, pool):
        # No fallback, or a fallback that has no answer either: the error
        # reaches the caller and no counter moves.
        for fallback in (None, Unanswering()):
            service = EstimationService(
                Cnt2CrdEstimator(ZeroRatesContainment(), pool, fallback=fallback)
            )
            with pytest.raises(NoMatchingPoolQueryError):
                service.submit(unmatched_query())
            assert service.stats.requests == 0

    def test_mixed_batch_counts_each_fallback(self, model, imdb_small, imdb_featurizer, pool, workload):
        unmatched = unmatched_query()
        matched = [q for q in workload if pool.has_match(q)][:3]
        service = build_service(model, imdb_small, imdb_featurizer, pool)
        served = service.submit_batch([matched[0], unmatched, *matched[1:], unmatched])
        assert [item.estimator_name for item in served] == [
            "crn", "fallback", "crn", "crn", "fallback"
        ]
        assert [item.model_generation for item in served] == [1] * 5
        assert service.stats.fallbacks == 2
        assert service.stats.planned_pairs == sum(item.pairs_scored for item in served)

    def test_an_estimator_that_is_not_cnt2crd_is_refused(self, imdb_small, pool):
        # Refused where it is handed over, not at the first request on the
        # dispatcher thread.
        postgres = PostgresCardinalityEstimator(imdb_small)
        with pytest.raises(TypeError, match="Cnt2CrdEstimator"):
            EstimationService(postgres)
        served = Cnt2CrdEstimator(ZeroRatesContainment(), pool)
        service = EstimationService(served)
        with pytest.raises(TypeError, match="Cnt2CrdEstimator"):
            service.replace(postgres)
        assert service.estimator is served and service.generation == 1

    def test_stats_and_snapshot_accounting(self, model, imdb_small, imdb_featurizer, pool, workload):
        service = build_service(model, imdb_small, imdb_featurizer, pool)
        service.submit_batch(workload)
        snapshot = service.stats_snapshot()
        assert snapshot["requests"] == len(workload)
        assert snapshot["batches"] == 1
        assert snapshot["scored_pairs"] <= snapshot["planned_pairs"]
        # The caches hold request queries only: each distinct request query
        # scored against a slab was featurized once and encoded once per
        # slot, every encoding lookup of the first batch missing.
        scored = scored_requests(service, pool, workload)
        assert 0 < len(scored) <= len(workload)
        assert snapshot["featurization_entries"] == len(scored)
        assert snapshot["encoding_entries"] == 2 * len(scored)
        assert snapshot["encoding_hit_rate"] == 0.0
        served_again = service.submit_batch(workload)
        assert service.stats.batches == 2
        assert served_again[0].latency_seconds > 0.0
        # The repeat batch hit every one of them.
        assert service.stats_snapshot()["encoding_hit_rate"] == 0.5

    def test_warm_pool_featurizes_pool_once_ever(
        self, model, imdb_small, imdb_featurizer, pool, workload, monkeypatch
    ):
        service = build_service(model, imdb_small, imdb_featurizer, pool)
        # The warm featurized the pool in bulk, outside the cache.
        assert service.estimator.containment_estimator.featurizer.stats.misses == 0
        featurized = []
        original = imdb_featurizer.featurize_many

        def spy(queries):
            featurized.extend(queries)
            return original(queries)

        monkeypatch.setattr(imdb_featurizer, "featurize_many", spy)
        service.submit_batch(workload)
        service.submit_batch(workload)
        # Serving never featurizes a pool query again (its encodings live in
        # the slabs); each scored request query is featurized once, ever.
        scored = scored_requests(service, pool, workload)
        assert Counter(featurized) == Counter(scored)
        assert service.estimator.containment_estimator.featurizer.stats.misses == len(scored)
        assert len(service.estimator.containment_estimator.featurizer) == len(scored)


def scored_requests(service, pool, workload) -> set:
    """The distinct queries of ``workload`` the service scores against a slab."""
    estimator = service.estimator
    return {
        query for query in workload if pool.has_match(query) and estimator.resolve(query).entries
    }


def unmatched_query():
    # Two fact tables without `title`: no generated pool query has this
    # FROM clause.
    return QueryBuilder().table("movie_companies", "mc").table("movie_keyword", "mk").build()


class Unanswering(CardinalityEstimator):
    """A fallback with no answer for any query."""

    name = "unanswering"

    def estimate_cardinality(self, query) -> float:
        raise NoMatchingPoolQueryError(f"no answer for {query.from_signature()}")


class TestHotSwap:
    def test_a_stamped_generation_always_belongs_to_the_answering_estimator(self, workload):
        # Submitters race replace() with a short switch interval: every
        # answer must carry the generation of the estimator that produced
        # it, which a generation read apart from the estimator would break.
        # Each estimator answers with the generation it is swapped in at.
        service = EstimationService(conftest.constant_estimator(1.0, workload[:4]))
        stop = threading.Event()
        torn: list = []

        def submitter():
            while not stop.is_set():
                for item in service.submit_batch(workload[:4]):
                    if item.estimate != item.model_generation:
                        torn.append(item)

        threads = [threading.Thread(target=submitter) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for generation in range(2, 20_002):
                service.replace(conftest.constant_estimator(float(generation), workload[:4]))
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not torn
        assert service.generation == 20_001
        assert service.submit(workload[0]).estimate == 20_001.0

    def test_stats_snapshot_reports_the_served_estimators_caches(
        self, model, imdb_small, imdb_featurizer, pool, workload
    ):
        service = build_service(model, imdb_small, imdb_featurizer, pool)
        service.submit_batch(workload)
        assert service.stats_snapshot()["encoding_entries"] > 0
        # The replacement brings caches of its own, empty; the service's
        # counters keep counting from boot.
        fresh = build_service(model, imdb_small, imdb_featurizer, pool).estimator
        service.replace(fresh)
        snapshot = service.stats_snapshot()
        assert snapshot["encoding_entries"] == snapshot["featurization_entries"] == 0.0
        assert snapshot["requests"] == len(workload)
        # A served estimator over a rate model that is not a CRN has no
        # caches and reports none.
        service.replace(Cnt2CrdEstimator(ZeroRatesContainment(), pool))
        assert "encoding_hit_rate" not in service.stats_snapshot()

    def test_warm_without_a_crn_is_a_no_op(self, pool, workload):
        service = EstimationService(Cnt2CrdEstimator(ZeroRatesContainment(), pool))
        service.warm(workload)
        assert service.stats.requests == 0

    def test_replace_bumps_generation_stamped_into_results(
        self, model, imdb_small, imdb_featurizer, pool, workload
    ):
        service = build_service(model, imdb_small, imdb_featurizer, pool)
        matched = next(q for q in workload if pool.has_match(q))
        assert service.submit(matched).model_generation == 1
        booted = service.estimator
        assert service.replace(booted) is booted
        service.replace(booted)
        served = service.submit(matched)
        assert served.model_generation == 3
        assert service.generation == 3

    def test_replace_serves_the_replacement(self, model, imdb_small, imdb_featurizer, pool, workload):
        service = build_service(model, imdb_small, imdb_featurizer, pool)
        replacement = conftest.constant_estimator(5.0, workload[:1])
        booted = service.replace(replacement)
        assert service.estimator is replacement
        served = service.submit(workload[0])
        assert (served.estimate, served.resolution) == (5.0, "pair_batch")
        service.replace(booted)
        assert service.estimator is booted and service.generation == 3

    def test_generation_starts_where_the_constructor_says(self, workload):
        estimator = conftest.constant_estimator(1.0, workload[:1])
        service = EstimationService(estimator, generation=7)
        assert service.submit(workload[0]).model_generation == 7
        for bad in (0, -1, True, 1.5):
            with pytest.raises(ValueError, match="positive int"):
                EstimationService(estimator, generation=bad)

    def test_fallback_result_carries_generation_one_across_swaps(
        self, model, imdb_small, imdb_featurizer, pool
    ):
        unmatched = unmatched_query()
        service = build_service(model, imdb_small, imdb_featurizer, pool)
        service.replace(service.estimator)
        served = service.submit(unmatched)
        assert served.used_fallback and served.estimator_name == "fallback"
        # The stamped generation is the ANSWERING estimator's: the fallback,
        # never replaced, answers at 1 while the served one is at 2.
        assert served.model_generation == 1
        assert service.generation == 2


class TestServingMetrics:
    def test_service_stats_table(self, model, imdb_small, imdb_featurizer, pool, imdb_oracle):
        from repro.evaluation import format_service_stats

        labeled = build_queries_pool_queries(
            imdb_small, count=20, seed=31, oracle=imdb_oracle
        )
        service = build_service(model, imdb_small, imdb_featurizer, pool)
        queries = [item.query for item in labeled]
        for begin in range(0, len(queries), 8):
            service.submit_batch(queries[begin : begin + 8])
        stats_text = format_service_stats(service.stats_snapshot(), title="service stats")
        assert "requests served" in stats_text and "hit rate" in stats_text
