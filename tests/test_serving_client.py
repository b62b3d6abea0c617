"""Tests for the unified serving client API: config, façade, provenance, errors."""

from __future__ import annotations

import json

import pytest

from repro.baselines import PostgresCardinalityEstimator
from repro.core import Cnt2CrdEstimator, CRNConfig, CRNEstimator, CRNModel, QueriesPool
from repro.datasets import build_queries_pool_queries
from repro.serving import (
    CacheConfig,
    DeadlineExceededError,
    DispatcherConfig,
    DispatcherShutdownError,
    EstimateResult,
    EstimationService,
    FeedbackConfig,
    InferenceConfig,
    NoMatchingPoolQueryError,
    ObservabilityConfig,
    PoolConfig,
    RequestOptions,
    ServingClient,
    ServingConfig,
    ServingError,
    TracingConfig,
)
from repro.serving.config import AdaptationConfig, ClusterConfig
from repro.sql.builder import QueryBuilder


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
    )
    defaults.update(overrides)
    return ServingConfig(**defaults)


def unmatched_query():
    # Two fact tables without title never appear in the generated pool.
    return (
        QueryBuilder().table("movie_companies", "mc").table("movie_keyword", "mk").build()
    )


class TestConfigValidation:
    def test_cache_bounds_zero_and_negative_raise(self):
        with pytest.raises(ValueError, match="max_featurization_entries"):
            CacheConfig(max_featurization_entries=0)
        with pytest.raises(ValueError, match="max_featurization_entries"):
            CacheConfig(max_featurization_entries=-4)
        with pytest.raises(ValueError, match="max_encoding_entries"):
            CacheConfig(max_encoding_entries=0)

    def test_encoding_bound_defaults_to_double_featurization(self):
        assert CacheConfig(max_featurization_entries=10).resolved_encoding_entries() == 20
        assert CacheConfig().resolved_encoding_entries() is None
        explicit = CacheConfig(max_featurization_entries=10, max_encoding_entries=5)
        assert explicit.resolved_encoding_entries() == 5

    @pytest.mark.parametrize(
        "value", [float("nan"), True, "5"], ids=["nan", "bool", "str"]
    )
    @pytest.mark.parametrize(
        "section, field",
        [
            (AdaptationConfig, "quantile"),
            (AdaptationConfig, "max_q_error"),
            (AdaptationConfig, "degradation_ratio"),
            (AdaptationConfig, "max_row_delta"),
            (AdaptationConfig, "cooldown_seconds"),
            (AdaptationConfig, "poll_interval_seconds"),
            (AdaptationConfig, "accept_ratio"),
            (ClusterConfig, "request_timeout_seconds"),
            (ClusterConfig, "boot_timeout_seconds"),
            (ClusterConfig, "poll_interval_seconds"),
            (ClusterConfig, "drain_timeout_seconds"),
        ],
    )
    def test_float_fields_reject_nan_bools_and_strings(self, section, field, value):
        # NaN compares false both ways: a NaN accept_ratio would reject
        # every candidate, a NaN timeout would fail every wait.  ``True``
        # passed as 1, and a string raised TypeError from the range check,
        # which a saved bundle's boot does not report as a schema error.
        with pytest.raises(ValueError, match=field):
            section(**{field: value})

    @pytest.mark.parametrize("value", [1, "false", None], ids=["int", "str", "none"])
    @pytest.mark.parametrize(
        "section, field",
        [
            (PoolConfig, "warm"),
            (DispatcherConfig, "enabled"),
            (FeedbackConfig, "enabled"),
            (ObservabilityConfig, "enabled"),
            (TracingConfig, "enabled"),
            (AdaptationConfig, "enabled"),
        ],
    )
    def test_switches_must_be_bools(self, section, field, value):
        # A saved "enabled": "false" is truthy and used to switch its
        # section on.
        with pytest.raises(ValueError, match=field):
            section(**{field: value})

    @pytest.mark.parametrize("value", [2.5, True, "5"], ids=["float", "bool", "str"])
    @pytest.mark.parametrize(
        "section, field",
        [
            (DispatcherConfig, "max_batch"),
            (FeedbackConfig, "max_observations"),
            (ObservabilityConfig, "capacity"),
            (TracingConfig, "sample_every"),
            (AdaptationConfig, "min_observations"),
            (AdaptationConfig, "holdout_size"),
            (AdaptationConfig, "max_incremental_failures"),
            (AdaptationConfig, "training_pairs"),
            (AdaptationConfig, "incremental_epochs"),
            (AdaptationConfig, "full_epochs"),
            (AdaptationConfig, "seed"),
            (ClusterConfig, "num_workers"),
            (ClusterConfig, "worker_threads"),
            (ClusterConfig, "retry_attempts"),
            (ClusterConfig, "max_restarts"),
        ],
    )
    def test_integer_fields_reject_floats_and_bools(self, section, field, value):
        # A float passed the range check and failed deep inside serving
        # (``range``, array shapes), or changed behaviour silently
        # (``sample_every=1.5`` kept every trace); ``True`` passed as 1.
        with pytest.raises(ValueError, match=field):
            section(**{field: value})

    def test_dispatcher_section_bounds(self):
        with pytest.raises(ValueError, match="max_batch"):
            DispatcherConfig(max_batch=0)
        # max_batch is the dispatcher's only knob: there is no wait window
        # to configure (only from_artifact forgives the key, in saved bundles).
        with pytest.raises(TypeError, match="max_wait_ms"):
            DispatcherConfig(max_wait_ms=1.0)

    def test_adaptation_requires_feedback_and_training_state(
        self, model, imdb_small, imdb_featurizer, pool
    ):
        with pytest.raises(ValueError, match="feedback.enabled"):
            make_config(
                model,
                imdb_small,
                imdb_featurizer,
                pool,
                adaptation=AdaptationConfig(enabled=True),
            )
        with pytest.raises(ValueError, match="training_result and database"):
            make_config(
                model,
                imdb_small,
                imdb_featurizer,
                pool,
                feedback=FeedbackConfig(enabled=True),
                adaptation=AdaptationConfig(enabled=True),
            )

    def test_adaptation_window_must_fit_min_observations(
        self, model, imdb_small, imdb_featurizer, pool
    ):
        with pytest.raises(ValueError, match="max_observations"):
            make_config(
                model,
                imdb_small,
                imdb_featurizer,
                pool,
                training_result=object(),
                database=imdb_small,
                feedback=FeedbackConfig(enabled=True, max_observations=5),
                adaptation=AdaptationConfig(enabled=True, min_observations=20),
            )

    @pytest.mark.parametrize(
        "section, field",
        [
            (ClusterConfig, "request_timeout_seconds"),
            (ClusterConfig, "boot_timeout_seconds"),
            (ClusterConfig, "drain_timeout_seconds"),
            (ClusterConfig, "poll_interval_seconds"),
            (AdaptationConfig, "poll_interval_seconds"),
        ],
    )
    def test_infinite_durations_are_rejected(self, section, field):
        # An infinite duration reaches socket.settimeout, Event.wait or
        # Future.result, which raise OverflowError instead of waiting.
        with pytest.raises(ValueError, match=field):
            section(**{field: float("inf")})

    def test_request_options_validation_and_tag_normalization(self):
        # A NaN deadline failed every request at once; an infinite one
        # raised OverflowError, outside the ServingError taxonomy.
        for timeout in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="timeout_seconds"):
                RequestOptions(timeout_seconds=timeout)
        from_mapping = RequestOptions(tags={"tenant": "a", "app": "b"})
        from_pairs = RequestOptions(tags=(("tenant", "a"), ("app", "b")))
        assert from_mapping.tags == (("app", "b"), ("tenant", "a"))
        assert from_mapping.tags == from_pairs.tags

    def test_a_bool_timeout_is_rejected(self):
        # bool is an int subclass: True used to pass as a 1-second deadline.
        with pytest.raises(ValueError, match="timeout_seconds"):
            RequestOptions(timeout_seconds=True)


class TestServiceStack:
    @pytest.mark.parametrize(
        "inference",
        [InferenceConfig(), InferenceConfig(mode="compiled", slab_dtype="float32")],
        ids=["reference", "compiled-f32"],
    )
    def test_stack_serves_at_the_generation_it_was_built_for(
        self, inference, model, imdb_small, imdb_featurizer, pool, workload
    ):
        from repro.observability import EventRecorder, EventStore
        from repro.serving import build_service_stack

        store = EventStore()
        config = make_config(model, imdb_small, imdb_featurizer, pool, inference=inference)
        stack = build_service_stack(config, recorder=EventRecorder(store=store), generation=5)
        matched = next(q for q in workload if pool.has_match(q))
        assert stack.service.generation == 5
        assert stack.service.submit(matched).model_generation == 5
        assert stack.service.submit(unmatched_query()).model_generation == 1
        # A compiled plan is compiled for the generation it serves.
        stack.service.recorder.flush()
        compiles = [row["model_generation"] for row in store.plan_history()]
        assert compiles == ([] if inference.mode == "reference" else [5])
        store.close()

    def test_stack_estimator_follows_a_replace(self, model, imdb_small, imdb_featurizer, pool):
        from repro.serving import build_service_stack

        stack = build_service_stack(make_config(model, imdb_small, imdb_featurizer, pool))
        assert stack.estimator is stack.service.estimator
        replacement = PostgresCardinalityEstimator(imdb_small)
        stack.service.replace(replacement)
        assert stack.estimator is replacement


class TestConfigRoundTrip:
    def test_to_mapping_from_mapping_round_trip(self, model, imdb_small, imdb_featurizer, pool):
        config = make_config(
            model,
            imdb_small,
            imdb_featurizer,
            pool,
            caches=CacheConfig(max_featurization_entries=64),
            pool_options=PoolConfig(warm=False),
            dispatcher=DispatcherConfig(enabled=False, max_batch=8),
        )
        mapping = json.loads(json.dumps(config.to_mapping()))  # JSON-clean
        rebuilt = ServingConfig.from_mapping(
            mapping,
            model=model,
            featurizer=imdb_featurizer,
            pool=pool,
            fallback_estimator=config.fallback_estimator,
        )
        assert rebuilt == config

    def test_from_mapping_rejects_unknown_sections_and_fields(
        self, model, imdb_small, imdb_featurizer, pool
    ):
        with pytest.raises(ValueError, match="unknown config section"):
            ServingConfig.from_mapping(
                {"dispatch": {}}, model=model, featurizer=imdb_featurizer, pool=pool
            )
        with pytest.raises(ValueError, match="unknown field"):
            ServingConfig.from_mapping(
                {"dispatcher": {"max_batches": 3}},
                model=model,
                featurizer=imdb_featurizer,
                pool=pool,
            )


class TestClientFacade:
    def test_client_surfaces_match_naive_estimator_bit_for_bit(
        self, model, imdb_small, imdb_featurizer, pool, workload
    ):
        naive = Cnt2CrdEstimator(
            CRNEstimator(model, imdb_featurizer),
            pool,
            fallback=PostgresCardinalityEstimator(imdb_small),
        )
        legacy_estimates = [naive.estimate_cardinality(query) for query in workload]
        config = make_config(model, imdb_small, imdb_featurizer, pool)
        with ServingClient(config) as client:
            batched = client.estimate_many(workload)
            singles = [client.estimate(query) for query in workload]
            futures = [client.estimate_future(query) for query in workload]
            dispatched = [future.result(timeout=30) for future in futures]
        assert [item.estimate for item in batched] == legacy_estimates
        assert [item.estimate for item in singles] == legacy_estimates
        assert [item.estimate for item in dispatched] == legacy_estimates
        assert all(isinstance(item, EstimateResult) for item in batched)

    def test_start_classmethod_and_shutdown_idempotence(
        self, model, imdb_small, imdb_featurizer, pool, workload
    ):
        client = ServingClient.start(make_config(model, imdb_small, imdb_featurizer, pool))
        assert client.started
        first = client.estimate(workload[0])
        assert first.estimate == client.estimate(workload[0]).estimate
        client.shutdown()
        client.shutdown()  # idempotent
        assert not client.started
        with pytest.raises(DispatcherShutdownError):
            client.dispatcher.submit(workload[0])
        with pytest.raises(ServingError, match="shut down"):
            client.__enter__()
        # A shut-down client refuses ALL request surfaces — the synchronous
        # path must not keep silently serving while the dispatcher refuses.
        with pytest.raises(ServingError, match="no new requests"):
            client.estimate(workload[0])
        with pytest.raises(ServingError, match="no new requests"):
            client.estimate_many(workload[:2])
        with pytest.raises(ServingError, match="no new requests"):
            client.estimate_future(workload[0])

    def test_unstarted_client_serves_synchronously(
        self, model, imdb_small, imdb_featurizer, pool, workload
    ):
        client = ServingClient(make_config(model, imdb_small, imdb_featurizer, pool))
        served = client.estimate(workload[0])
        assert served.estimate == client.service.submit(workload[0]).estimate
        with pytest.raises(ServingError, match="started client"):
            client.estimate_future(workload[0])
        with pytest.raises(ServingError, match="deadlines need the dispatcher"):
            client.estimate(workload[0], RequestOptions(timeout_seconds=5.0))

    def test_estimate_future_requires_dispatcher(
        self, model, imdb_small, imdb_featurizer, pool, workload
    ):
        config = make_config(
            model, imdb_small, imdb_featurizer, pool, dispatcher=DispatcherConfig(enabled=False)
        )
        with ServingClient(config) as client:
            assert client.dispatcher is None
            served = client.estimate(workload[0])  # synchronous path
            assert served.estimate >= 0.0
            with pytest.raises(ServingError, match="needs the dispatcher"):
                client.estimate_future(workload[0])
            with pytest.raises(ServingError, match="cannot honor"):
                client.estimate_many(workload[:2], RequestOptions(timeout_seconds=1.0))

    def test_feedback_and_adaptation_require_enabling(
        self, model, imdb_small, imdb_featurizer, pool, workload
    ):
        with ServingClient(make_config(model, imdb_small, imdb_featurizer, pool)) as client:
            served = client.estimate(workload[0])
            with pytest.raises(ServingError, match="feedback is not enabled"):
                client.record_feedback(served, true_cardinality=10.0)
            with pytest.raises(ServingError, match="adaptation is not enabled"):
                client.trigger_adaptation()

    def test_feedback_recording_and_merged_stats(
        self, model, imdb_small, imdb_featurizer, pool, workload, imdb_oracle
    ):
        config = make_config(
            model,
            imdb_small,
            imdb_featurizer,
            pool,
            oracle=imdb_oracle,
            feedback=FeedbackConfig(enabled=True, max_observations=32),
        )
        with ServingClient(config) as client:
            served = client.estimate(workload[0])
            observation = client.record_feedback(served)  # oracle supplies truth
            assert observation.true_cardinality == imdb_oracle.cardinality(workload[0])
            stats = client.stats()
        # One merged snapshot across service, dispatcher, and feedback.
        assert stats["requests"] >= 1.0
        assert stats["submitted"] >= 1.0
        assert stats["feedback_observations"] == 1.0
        assert "encoding_hit_rate" in stats and "pool_index_served" in stats

    def test_warm_defaults_to_the_pool(self, model, imdb_small, imdb_featurizer, pool):
        config = make_config(
            model,
            imdb_small,
            imdb_featurizer,
            pool,
            pool_options=PoolConfig(warm=False),
        )
        client = ServingClient(config)
        assert len(client.stack.estimator.pool_index) == 0
        client.warm()
        # Every scored pool query (cardinality > 0) is indexed, and its
        # encodings live in the slabs only: the request caches stay empty.
        eligible = sum(1 for entry in pool if entry.cardinality > 0)
        assert len(client.stack.estimator.pool_index) == eligible
        assert len(client.stack.estimator.containment_estimator.featurizer) == 0
        assert len(client.stack.estimator.containment_estimator.encoding_cache) == 0
        # Given queries, warm encodes them into the encoding cache instead,
        # both slots, featurized in one bulk pass outside the featurization cache.
        queries = [entry.query for entry in pool][:5]
        client.warm(queries)
        assert len(client.stack.estimator.containment_estimator.encoding_cache) == 2 * len(queries)
        assert len(client.stack.estimator.containment_estimator.featurizer) == 0
        assert len(client.stack.estimator.pool_index) == eligible


class TestProvenance:
    def test_indexed_and_pair_batch_resolutions(
        self, model, imdb_small, imdb_featurizer, pool, workload
    ):
        matched = next(q for q in workload if pool.has_match(q))
        # A bare estimator (no pool index) resolves row-less slabs.
        bare = Cnt2CrdEstimator(CRNEstimator(model, imdb_featurizer), pool)
        client = ServingClient(make_config(model, imdb_small, imdb_featurizer, pool))
        served = client.estimate(matched)
        assert served.resolution == "indexed_slab"
        assert served.model_generation == 1
        pair_served = EstimationService(bare, client.service.fallback).submit(matched)
        assert pair_served.resolution == "pair_batch"
        assert pair_served.estimate == served.estimate  # identical bits either way

    def test_registry_fallback_and_direct_resolutions(
        self, model, imdb_small, imdb_featurizer, pool
    ):
        client = ServingClient(make_config(model, imdb_small, imdb_featurizer, pool))
        rerouted = client.estimate(unmatched_query())
        assert rerouted.resolution == "registry_fallback"
        assert rerouted.used_fallback and rerouted.estimator_name == "fallback"
        assert rerouted.model_generation == 1  # the fallback's generation
        # The same estimator served as the primary answers directly.
        direct = EstimationService(client.service.fallback).submit(unmatched_query())
        assert direct.resolution == "direct"
        assert not direct.used_fallback
        assert direct.estimate == rerouted.estimate

    @pytest.mark.parametrize(
        "inference",
        [InferenceConfig(), InferenceConfig(mode="compiled", slab_dtype="float32")],
        ids=["reference", "compiled-f32"],
    )
    def test_all_filtered_recovery_chain_on_a_resident_slab(
        self, inference, imdb_small, imdb_featurizer, pool, workload
    ):
        # A CRN whose output bias is saturated negative rates every pair ~0,
        # so every y_rate falls under the epsilon guard — on slabs whose rows
        # ARE resident (the ZeroRatesContainment pins cover the row-less route).
        saturated = CRNModel(imdb_featurizer.vector_size, CRNConfig(hidden_size=16, seed=5))
        saturated.out_final.bias.data[:] = -1e3
        postgres = PostgresCardinalityEstimator(imdb_small)
        client = ServingClient(
            make_config(saturated, imdb_small, imdb_featurizer, pool, inference=inference)
        )
        query = next(q for q in workload if pool.has_match(q))
        # 1. The estimator's own fallback answers first, unflagged.
        client.stack.estimator.fallback = postgres
        builtin = client.estimate(query)
        assert builtin.resolution == "estimator_fallback"
        assert not builtin.used_fallback and builtin.estimator_name == "crn"
        assert builtin.estimate == postgres.estimate_cardinality(query)
        # 2. Without one, the service's fallback answers, flagged.
        client.stack.estimator.fallback = None
        rerouted = client.estimate(query)
        assert rerouted.resolution == "registry_fallback"
        assert rerouted.used_fallback and rerouted.estimator_name == "fallback"
        assert rerouted.estimate == postgres.estimate_cardinality(query)
        # 3. With neither, the zero collapse stands.
        client.service.fallback = None
        collapsed = client.estimate(query)
        assert collapsed.resolution == "indexed_slab"
        assert collapsed.estimate == 0.0 and not collapsed.used_fallback
        for served in (builtin, rerouted, collapsed):
            assert served.pool_matches > 0  # the pool DID match; scoring happened
            assert served.pairs_scored == 2 * served.pool_matches
        stats = client.stats()
        assert stats["pool_index_served"] == 3.0
        assert stats["fallbacks"] == 1.0

    def test_tags_and_cache_hit_counts_are_stamped(
        self, model, imdb_small, imdb_featurizer, pool, workload
    ):
        matched = next(q for q in workload if pool.has_match(q))
        with ServingClient(make_config(model, imdb_small, imdb_featurizer, pool)) as client:
            options = RequestOptions(tags={"tenant": "acme", "tier": "gold"})
            served = client.estimate(matched, options)
            assert served.tags == (("tenant", "acme"), ("tier", "gold"))
            # The caches hold request queries only: a first request misses
            # both pair slots' encodings, its repeat hits both.
            assert served.encoding_cache_hits == 0
            untagged = client.estimate(matched)
            assert untagged.tags == ()
            assert untagged.encoding_cache_hits == 2

    def test_replace_bumps_generation_stamped_into_results(
        self, model, imdb_small, imdb_featurizer, pool, workload
    ):
        matched = next(q for q in workload if pool.has_match(q))
        client = ServingClient(make_config(model, imdb_small, imdb_featurizer, pool))
        before = client.estimate(matched)
        assert before.model_generation == 1
        client.service.replace(client.service.estimator)
        after = client.estimate(matched)
        assert after.model_generation == 2
        assert client.service.generation == 2
        assert after.estimate == before.estimate  # same model object, same bits


class TestEveryResultField:
    """A result is built once, when its batch is over: every field against
    its own source, on the three paths that used to rebuild it."""

    TAGS = {"tier": "gold", "tenant": "acme"}

    def expected(self, client, query, served, batch_size, queue_wait=0.0):
        estimator = client.stack.estimator
        entries = estimator.resolve(query).entries
        return EstimateResult(
            query=query,
            estimate=estimator.estimate_cardinality(query),
            estimator_name="crn",
            # One batch since boot: its elapsed time is the total.
            latency_seconds=client.service.stats.total_seconds / batch_size,
            pool_matches=len(entries),
            pairs_scored=2 * len(entries),
            used_fallback=False,
            resolution="indexed_slab",
            model_generation=1,
            featurization_cache_hits=served.featurization_cache_hits,
            encoding_cache_hits=served.encoding_cache_hits,
            tags=(("tenant", "acme"), ("tier", "gold")),
            queue_wait_seconds=queue_wait,
        )

    def cache_hits(self, client):
        return (
            client.service.estimator.containment_estimator.featurizer.stats.hits,
            client.service.estimator.containment_estimator.encoding_cache.stats.hits,
        )

    def test_synchronous_estimate_and_estimate_many(
        self, model, imdb_small, imdb_featurizer, pool, workload
    ):
        matched = [q for q in workload if pool.has_match(q)][:4]
        client = ServingClient(make_config(model, imdb_small, imdb_featurizer, pool))
        options = RequestOptions(tags=self.TAGS)

        before = self.cache_hits(client)
        served = client.estimate(matched[0], options)
        after = self.cache_hits(client)
        assert served.latency_seconds > 0.0
        assert (served.featurization_cache_hits, served.encoding_cache_hits) == (
            after[0] - before[0],
            after[1] - before[1],
        )
        assert served == self.expected(client, matched[0], served, batch_size=1)

        # A client of its own, whose counters hold this one batch.
        client = ServingClient(make_config(model, imdb_small, imdb_featurizer, pool))
        before = self.cache_hits(client)
        batch = client.estimate_many(matched, options)
        after = self.cache_hits(client)
        deltas = (after[0] - before[0], after[1] - before[1])
        # estimate_cardinality below warms the caches further: read the deltas first.
        for query, item in zip(matched, batch):
            assert (item.featurization_cache_hits, item.encoding_cache_hits) == deltas
            assert item == self.expected(client, query, item, batch_size=len(matched))

    def test_started_dispatcher_with_tags_and_queue_wait(
        self, model, imdb_small, imdb_featurizer, pool, workload
    ):
        import time

        matched = [q for q in workload if pool.has_match(q)][:3]
        client = ServingClient(make_config(model, imdb_small, imdb_featurizer, pool))
        dispatcher = client.dispatcher
        # Enqueued before the thread runs: the wait is real, and one batch serves all.
        tagged = [
            dispatcher.submit(query, options=RequestOptions(tags=self.TAGS))
            for query in matched
        ]
        untagged = dispatcher.submit(matched[0])
        time.sleep(0.01)
        with client:
            results = [future.result(30) for future in tagged]
            plain = untagged.result(30)
        assert dispatcher.stats.batches == 1
        waits = [item.queue_wait_seconds for item in results] + [plain.queue_wait_seconds]
        assert all(wait >= 0.01 for wait in waits)
        assert max(waits) == dispatcher.queue_wait.snapshot().max_seen
        assert waits == sorted(waits, reverse=True)  # one pickup instant, FIFO enqueue
        for query, item in zip(matched, results):
            assert item == self.expected(
                client, query, item, batch_size=4, queue_wait=item.queue_wait_seconds
            )
        assert plain.tags == () and plain.estimate == results[0].estimate
        assert plain.latency_seconds == results[0].latency_seconds

    def test_one_stamp_per_query_or_none(
        self, model, imdb_small, imdb_featurizer, pool, workload
    ):
        client = ServingClient(make_config(model, imdb_small, imdb_featurizer, pool))
        matched = [q for q in workload if pool.has_match(q)][:2]
        with pytest.raises(ValueError):
            client.service.submit_batch(matched, stamps=[((), 0.0, 0.0)])


class TestErrorTaxonomy:
    def test_taxonomy_members_keep_legacy_bases(self):
        assert issubclass(DeadlineExceededError, ServingError)
        assert issubclass(DeadlineExceededError, TimeoutError)
        assert issubclass(DispatcherShutdownError, ServingError)
        assert issubclass(DispatcherShutdownError, RuntimeError)

    def test_one_except_clause_covers_the_surface(
        self, model, imdb_small, imdb_featurizer, pool, workload
    ):
        client = ServingClient(make_config(model, imdb_small, imdb_featurizer, pool))
        caught = []
        for shut_down in (False, True):
            if shut_down:
                client.shutdown()
            try:
                client.estimate(workload[0])
            except ServingError as error:
                caught.append(error)
        assert len(caught) == 1  # the open client's estimate succeeded
