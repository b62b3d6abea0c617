"""Tests for the adaptive model lifecycle (feedback, drift, retrain, hot swap)."""

from __future__ import annotations

import threading
import time
from dataclasses import replace

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
    QueryFeaturizer,
    TrainingConfig,
    TrainingResult,
    train_crn,
)
from repro.core.metrics import q_errors
from repro.core.oracle import OracleCardinalityEstimator
from repro.core.training import CRNTrainer, RaggedPairs
from repro.datasets import build_queries_pool_queries, build_training_pairs
from repro.datasets.imdb import SyntheticIMDbConfig, build_synthetic_imdb
from repro.db import TrueCardinalityOracle
from repro.extensions import incremental_update, retrain_from_scratch
from repro.observability import EventRecorder, EventStore
import repro.serving.lifecycle as lifecycle_module
from repro.serving import (
    AdaptationConfig,
    AdaptationManager,
    DriftMonitor,
    EstimationService,
    FeedbackCollector,
    FeedbackConfig,
    InferenceConfig,
    PoolEncodingIndex,
    ServingClient,
    ServingConfig,
    ServingDispatcher,
    build_service_stack,
)
from repro.serving.stack import wire_estimator
from repro.sql.builder import QueryBuilder
from tests.conftest import build_service, scored_bits, slab_bytes


@pytest.fixture(scope="module")
def trained(request):
    imdb_small = request.getfixturevalue("imdb_small")
    imdb_featurizer = request.getfixturevalue("imdb_featurizer")
    imdb_oracle = request.getfixturevalue("imdb_oracle")
    pairs = build_training_pairs(imdb_small, count=80, seed=12, oracle=imdb_oracle)
    return train_crn(
        imdb_featurizer,
        pairs,
        crn_config=CRNConfig(hidden_size=16, seed=2),
        training_config=TrainingConfig(epochs=4, batch_size=32),
    )


@pytest.fixture(scope="module")
def pool(imdb_small, imdb_oracle):
    labeled = build_queries_pool_queries(imdb_small, count=60, seed=17, oracle=imdb_oracle)
    return QueriesPool.from_labeled_queries(labeled)


@pytest.fixture(scope="module")
def workload(imdb_small, imdb_oracle):
    return build_queries_pool_queries(imdb_small, count=25, seed=23, oracle=imdb_oracle)


@pytest.fixture(scope="module")
def updated_database():
    """An updated snapshot: the same schema over different data."""
    return build_synthetic_imdb(SyntheticIMDbConfig(num_titles=350, seed=99))


def make_service(trained, imdb_small, pool):
    return build_service(
        trained.model,
        trained.featurizer,
        pool,
        fallback_estimator=PostgresCardinalityEstimator(imdb_small),
    )


def make_stack(trained, imdb_small, pool, inference=None, fallback=None, **adaptation):
    """A config-wired stack whose adaptation section carries ``adaptation``,
    with the training state an :class:`AdaptationManager` reads, and
    ``fallback`` (PostgreSQL's estimate when None) as its fallback."""
    return build_service_stack(
        ServingConfig(
            model=trained.model,
            featurizer=trained.featurizer,
            pool=pool,
            fallback_estimator=fallback or PostgresCardinalityEstimator(imdb_small),
            training_result=trained,
            database=imdb_small,
            adaptation=AdaptationConfig(**adaptation),
            inference=inference or InferenceConfig(),
        )
    )


class TestFeedbackCollector:
    def test_record_and_quantiles(self, workload):
        collector = FeedbackCollector(max_observations=10)
        collector.record(workload[0].query, 20.0, 10.0, estimator_name="crn")
        collector.record(workload[1].query, 10.0, 10.0, estimator_name="crn")
        collector.record(workload[2].query, 40.0, 10.0, estimator_name="other")
        assert len(collector) == 3
        assert collector.quantile(1.0) == 4.0
        assert collector.quantile(1.0, estimator="crn") == 2.0
        assert collector.mean_q_error(estimator="crn") == pytest.approx(1.5)
        summary = collector.summary()
        assert summary.count == 3 and summary.max == 4.0

    def test_window_is_bounded(self, workload):
        collector = FeedbackCollector(max_observations=4)
        for index in range(10):
            collector.record(workload[0].query, float(index + 1), 1.0)
        assert len(collector) == 4
        assert collector.observations()[-1].sequence == 9  # ten recorded
        # Only the four most recent estimates remain (7, 8, 9, 10).
        assert collector.window_errors() == [7.0, 8.0, 9.0, 10.0]
        assert [obs.sequence for obs in collector.observations()] == [6, 7, 8, 9]

    def test_holdout_is_most_recent(self, workload):
        collector = FeedbackCollector()
        for index in range(6):
            collector.record(workload[0].query, float(index + 1), 1.0)
        holdout = collector.holdout(2)
        assert [obs.q_error for obs in holdout] == [5.0, 6.0]

    def test_record_served_with_oracle_ground_truth(
        self, trained, imdb_small, imdb_oracle, pool, workload
    ):
        service = make_service(trained, imdb_small, pool)
        collector = FeedbackCollector(oracle=imdb_oracle)
        served = service.submit(workload[0].query)
        observation = collector.record_served(served)
        assert observation.true_cardinality == workload[0].cardinality
        assert observation.estimator_name == served.estimator_name
        assert observation.q_error >= 1.0

    def test_record_served_requires_truth_or_oracle(
        self, trained, imdb_small, pool, workload
    ):
        service = make_service(trained, imdb_small, pool)
        served = service.submit(workload[0].query)
        collector = FeedbackCollector()
        with pytest.raises(ValueError, match="no true_cardinality"):
            collector.record_served(served)
        collector.record_served(served, true_cardinality=workload[0].cardinality)
        assert len(collector) == 1

    def test_concurrent_recording_loses_nothing(self, workload):
        collector = FeedbackCollector(max_observations=10_000)

        def writer():
            for _ in range(200):
                collector.record(workload[0].query, 2.0, 1.0)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(obs.sequence for obs in collector.observations()) == list(range(800))


class TestDriftMonitor:
    def record_errors(self, collector, workload, estimates):
        for value in estimates:
            collector.record(workload[0].query, value, 1.0)

    def test_conditions_armed_only_after_min_observations(self, workload):
        collector = FeedbackCollector()
        monitor = DriftMonitor(
            collector, AdaptationConfig(max_q_error=2.0, min_observations=5)
        )
        self.record_errors(collector, workload, [10.0] * 4)
        assert not monitor.evaluate().triggered
        self.record_errors(collector, workload, [10.0])
        verdict = monitor.evaluate()
        assert verdict.triggered
        assert any("exceeds" in reason for reason in verdict.reasons)
        assert verdict.observations == 5

    def test_baseline_freezes_and_degradation_fires(self, workload):
        collector = FeedbackCollector(max_observations=8)
        policy = AdaptationConfig(
            max_q_error=None, degradation_ratio=2.0, min_observations=4
        )
        monitor = DriftMonitor(collector, policy)
        self.record_errors(collector, workload, [1.5] * 8)
        verdict = monitor.evaluate()
        assert monitor.baseline_frozen
        assert not verdict.triggered  # current == baseline
        # The window degrades: errors double the baseline.
        self.record_errors(collector, workload, [4.0] * 8)
        verdict = monitor.evaluate()
        assert verdict.triggered
        assert any("degraded" in reason for reason in verdict.reasons)
        monitor.rebaseline()
        assert not monitor.baseline_frozen

    def test_row_delta_fires_without_feedback(self, workload):
        collector = FeedbackCollector()
        monitor = DriftMonitor(collector, AdaptationConfig(max_row_delta=0.25))
        quiet = monitor.evaluate(current_rows=110, rows_at_refresh=100)
        assert not quiet.triggered and quiet.row_delta == pytest.approx(0.1)
        verdict = monitor.evaluate(current_rows=200, rows_at_refresh=100)
        assert verdict.triggered
        assert any("row count" in reason for reason in verdict.reasons)

    def test_empty_window_nan_quantile_is_no_signal(self):
        # Regression: an empty window yields a NaN rolling quantile; the
        # policy must treat it explicitly as "no signal" — quiet verdict, no
        # reasons — not as something NaN comparison semantics happen to hide.
        collector = FeedbackCollector()
        monitor = DriftMonitor(
            collector, AdaptationConfig(max_q_error=1.5, min_observations=1)
        )
        verdict = monitor.evaluate()
        assert not verdict.triggered
        assert verdict.reasons == ()
        assert verdict.q_error != verdict.q_error  # NaN, surfaced as-is

    def test_nan_observations_poisoning_the_window_do_not_fire(self, workload):
        # A diverged model can emit NaN estimates; their q-errors are NaN and
        # NaN-poison every window quantile.  The armed conditions must stay
        # explicitly quiet instead of relying on `NaN > threshold` being
        # False, and the degradation condition must not divide by the NaN.
        collector = FeedbackCollector()
        policy = AdaptationConfig(max_q_error=1.5, degradation_ratio=2.0, min_observations=2)
        monitor = DriftMonitor(collector, policy)
        self.record_errors(collector, workload, [1.0] * 4)  # healthy baseline
        assert not monitor.evaluate().triggered
        self.record_errors(collector, workload, [float("nan")] * 4)
        verdict = monitor.evaluate()
        assert not verdict.triggered
        assert verdict.reasons == ()
        assert verdict.q_error != verdict.q_error  # NaN reading, reported

    def test_nan_window_is_never_frozen_as_the_baseline(self, workload):
        # Regression (ordering matters): a model diverging during its FIRST
        # full window used to freeze the NaN window as the baseline — and
        # since rebaseline() only runs after a swap, the degradation
        # condition could then never arm again, even after the window
        # recovered and later genuinely degraded.
        collector = FeedbackCollector(max_observations=4)
        policy = AdaptationConfig(
            max_q_error=None, degradation_ratio=2.0, min_observations=4
        )
        monitor = DriftMonitor(collector, policy)
        self.record_errors(collector, workload, [float("nan")] * 4)
        assert not monitor.evaluate().triggered
        assert not monitor.baseline_frozen  # the NaN window was refused
        self.record_errors(collector, workload, [1.0] * 4)  # recovery
        assert not monitor.evaluate().triggered
        assert monitor.baseline_frozen  # the healthy window froze instead
        self.record_errors(collector, workload, [10.0] * 4)  # real degradation
        verdict = monitor.evaluate()
        assert verdict.triggered
        assert any("degraded" in reason for reason in verdict.reasons)

    def test_unknown_row_counts_are_no_signal(self):
        collector = FeedbackCollector()
        monitor = DriftMonitor(collector, AdaptationConfig(max_row_delta=0.1))
        verdict = monitor.evaluate()  # row counts not supplied -> NaN delta
        assert not verdict.triggered
        assert verdict.row_delta != verdict.row_delta  # NaN

    def test_estimator_filter_ignores_other_estimators_feedback(self, workload):
        collector = FeedbackCollector()
        monitor = DriftMonitor(
            collector,
            AdaptationConfig(max_q_error=2.0, min_observations=3),
            estimator="crn",
        )
        # A drifted *baseline* estimator sharing the collector must not fire
        # the CRN's policy.
        for _ in range(5):
            collector.record(workload[0].query, 100.0, 1.0, estimator_name="postgres")
        verdict = monitor.evaluate()
        assert not verdict.triggered and verdict.observations == 0
        for _ in range(3):
            collector.record(workload[0].query, 100.0, 1.0, estimator_name="crn")
        assert monitor.evaluate().triggered

    def test_unattributed_feedback_counts_toward_any_filter(self, workload):
        collector = FeedbackCollector()
        monitor = DriftMonitor(
            collector,
            AdaptationConfig(max_q_error=2.0, min_observations=3),
            estimator="crn",
        )
        # Caller-supplied feedback without an estimator name must still arm
        # the watched estimator's conditions (the common single-estimator
        # deployment never labels its feedback).
        for _ in range(3):
            collector.record(workload[0].query, 100.0, 1.0)
        assert monitor.evaluate().triggered

    def test_window_bound_must_admit_min_observations(self, workload):
        collector = FeedbackCollector(max_observations=8)
        with pytest.raises(ValueError, match="window bound"):
            DriftMonitor(collector, AdaptationConfig(min_observations=20))

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AdaptationConfig(quantile=0.0)
        with pytest.raises(ValueError):
            AdaptationConfig(degradation_ratio=1.0)
        with pytest.raises(ValueError):
            AdaptationConfig(min_observations=0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "field",
        ["cooldown_seconds", "max_q_error", "degradation_ratio", "max_row_delta"],
    )
    def test_non_finite_drift_fields_are_rejected(self, field, value):
        # Every comparison with NaN is False: max_q_error=nan silently turned
        # the threshold off, and cooldown_seconds=nan made the cooldown never
        # apply.  None is the only way to disable a condition.
        with pytest.raises(ValueError, match=field):
            AdaptationConfig(**{field: value})


class TestAdaptationManager:
    def build(self, trained, imdb_small, pool, inference=None, fallback=None, **kwargs):
        adaptation = dict(
            cooldown_seconds=0.0,
            holdout_size=8,
            training_pairs=20,
            incremental_epochs=1,
            full_epochs=1,
            seed=7,
        )
        adaptation.update(kwargs)
        stack = make_stack(trained, imdb_small, pool, inference, fallback, **adaptation)
        collector = FeedbackCollector()
        return stack.service, collector, AdaptationManager(stack, collector)

    def test_manual_trigger_swaps_without_feedback(self, trained, imdb_small, pool):
        service, _, manager = self.build(trained, imdb_small, pool)
        before = service.estimator
        assert service.generation == 1
        # Pre-swap, the gauge already agrees with the generation stamped on
        # every response (not a 0 placeholder).
        assert manager.stats_snapshot()["model_generation"] == 1.0
        outcome = manager.trigger()  # not started: runs synchronously
        assert outcome.swapped and outcome.mode == "incremental"
        assert service.estimator is not before
        assert manager.stats.swaps == 1
        # The candidate is a model of its own, not the booted one.
        assert service.estimator.containment_estimator.model is not trained.model
        # The promote went through replace(): the served generation bumped
        # and the lifecycle gauge records the same number.
        assert service.generation == 2
        assert manager.stats_snapshot()["model_generation"] == 2.0

    def test_post_swap_results_carry_the_new_generation(
        self, trained, imdb_small, pool, workload
    ):
        # The acceptance contract: across a live hot swap, every response is
        # attributable to the exact model that produced it — the generation
        # stamped into EstimateResult flips from 1 to 2 at the swap.
        service, _, manager = self.build(trained, imdb_small, pool)
        query = next(l.query for l in workload if pool.has_match(l.query))
        pre_swap = service.submit(query)
        assert pre_swap.model_generation == 1
        assert pre_swap.resolution == "indexed_slab"
        assert manager.trigger().swapped
        post_swap = service.submit(query)
        assert post_swap.model_generation == 2
        # The promote pre-warmed the rebound index, so the new generation is
        # served from the fast path too.
        assert post_swap.resolution == "indexed_slab"

    def test_gate_rejects_candidate_and_leaves_the_service_alone(
        self, trained, imdb_small, imdb_oracle, pool, workload
    ):
        service, collector, manager = self.build(
            trained, imdb_small, pool, accept_ratio=1e-9  # nothing can pass the gate
        )
        for labeled in workload[:10]:
            collector.record_served(
                service.submit(labeled.query), true_cardinality=labeled.cardinality
            )
        before = service.estimator
        outcome = manager.trigger()
        assert outcome.action == "rejected"
        assert service.estimator is before
        assert manager.stats.candidates_rejected == 1
        assert service.generation == 1

    def test_validation_books_no_traffic_and_exposes_no_candidate(
        self, trained, imdb_small, pool, workload
    ):
        # The candidate scores its holdout off the service: a rejected cycle
        # leaves the request count at the real traffic, the next swap
        # attributes only real requests to the outgoing generation, and the
        # service never serves the candidate before, during or after a cycle.
        service, collector, manager = self.build(
            trained, imdb_small, pool, accept_ratio=1e-9
        )
        assert manager.config.holdout_size == 8
        matched = [l for l in workload if pool.has_match(l.query)][:10]
        assert len(matched) == 10
        shadows: list = []
        probes: list[str] = []
        validate = manager._validate

        def probe_candidate():
            served = service.estimator
            return "served" if any(served is shadow for shadow in shadows) else "unknown"

        def probing_validate(shadow):
            shadows.append(shadow)
            containment = shadow.containment_estimator
            score = containment.rates_against_pools

            def probing(items):
                if not probes:
                    probes.append("pending")  # a served probe re-enters here
                    probes[0] = probe_candidate()
                return score(items)

            containment.rates_against_pools = probing
            return validate(shadow)

        manager._validate = probing_validate

        def serve_real_traffic():
            for labeled in matched:
                collector.record_served(
                    service.submit(labeled.query), true_cardinality=labeled.cardinality
                )

        assert probe_candidate() == "unknown"
        serve_real_traffic()
        assert manager.trigger().action == "rejected"
        assert probes == ["unknown"]
        assert service.stats.requests == 10
        assert probe_candidate() == "unknown"
        serve_real_traffic()
        manager.config = replace(manager.config, accept_ratio=1e9)
        assert manager.trigger().swapped
        assert manager.stats.requests_between_swaps == 20
        assert probe_candidate() == "unknown"
        assert len(shadows) == 2

    def test_gate_reads_the_candidates_own_estimates_with_the_fallback(
        self, trained, imdb_small, imdb_oracle, pool, workload
    ):
        oracle_fallback = OracleCardinalityEstimator(imdb_small, imdb_oracle)
        service, collector, manager = self.build(
            trained, imdb_small, pool, fallback=oracle_fallback, accept_ratio=1e-9
        )
        # Six distinct matched queries, the first one repeated.
        matched = [l for l in workload if pool.has_match(l.query)][:6]
        for labeled in matched + matched[:1]:
            collector.record_served(
                service.submit(labeled.query), true_cardinality=labeled.cardinality
            )
        # Two fact tables without `title`: no pool query shares this FROM
        # clause, so only a fallback can answer it.
        unmatched = (
            QueryBuilder()
            .table("movie_companies", "mc")
            .table("movie_keyword", "mk")
            .join("mc.movie_id", "mk.movie_id")
            .build()
        )
        served = service.submit(unmatched)
        assert served.used_fallback
        collector.record(
            unmatched,
            served.estimate,
            imdb_oracle.cardinality(unmatched),
            estimator_name="crn",
        )
        shadows = []
        scoring_calls = []
        validate = manager._validate

        def capture(shadow):
            shadows.append(shadow)
            containment = shadow.containment_estimator
            score = containment.rates_against_pools

            def counting(items):
                scoring_calls.append(len(items))
                return score(items)

            containment.rates_against_pools = counting
            result = validate(shadow)
            containment.rates_against_pools = score
            return result

        manager._validate = capture
        outcome = manager.trigger()
        assert outcome.action == "rejected"
        (shadow,) = shadows
        # The distinct matched holdout queries are scored together, in one
        # call: the repeat shares its first occurrence's rates.
        assert scoring_calls == [6]
        holdout = collector.holdout(8, estimator="crn")
        assert len(holdout) == 8
        assert not shadow.pool.has_match(holdout[-1].query)
        # The gate asks the deployment's fallback what the pool cannot answer.
        assert shadow.fallback is oracle_fallback
        truth = float(imdb_oracle.cardinality(unmatched))
        assert PostgresCardinalityEstimator(imdb_small).estimate_cardinality(unmatched) != truth
        assert shadow.estimate_cardinality(unmatched) == truth
        expected = np.median(
            q_errors(
                [shadow.estimate_cardinality(item.query) for item in holdout],
                [item.true_cardinality for item in holdout],
                epsilon=collector.epsilon,
            )
        )
        assert outcome.candidate_q_error == float(expected)

    def test_requests_between_swaps_counts_from_the_managers_construction(
        self, trained, imdb_small, pool, workload
    ):
        stack = make_stack(
            trained, imdb_small, pool, training_pairs=20, incremental_epochs=1, seed=7
        )
        queries = [labeled.query for labeled in workload]
        stack.service.submit_batch(queries[:5])  # before the manager watches
        manager = AdaptationManager(stack, FeedbackCollector())
        stack.service.submit_batch(queries[5:8])
        assert manager.trigger().swapped
        assert manager.stats.requests_between_swaps == 3
        assert stack.service.stats.requests == 8

    def test_a_failed_promote_leaves_its_requests_to_the_next_swap(
        self, trained, imdb_small, pool, workload, monkeypatch
    ):
        service, _, manager = self.build(trained, imdb_small, pool)
        queries = [labeled.query for labeled in workload]
        service.submit_batch(queries[:4])
        assert manager.trigger().swapped
        assert manager.stats.requests_between_swaps == 4

        def refuse(estimator):
            raise RuntimeError("the service refused the swap")

        service.submit_batch(queries[4:6])
        monkeypatch.setattr(service, "replace", refuse)
        assert manager.trigger().action == "promote-failed"
        assert manager.stats.requests_between_swaps == 4  # the gauge holds
        monkeypatch.undo()
        service.submit_batch(queries[6:13])
        assert manager.trigger().swapped
        assert manager.stats.requests_between_swaps == 9
        assert service.stats.requests == 13

    @pytest.mark.parametrize("with_fallback", [True, False], ids=["fallback", "none"])
    def test_the_deployments_fallback_answers_after_a_promote(
        self, trained, imdb_small, imdb_oracle, pool, workload, with_fallback
    ):
        # Boot, the shadow and the promoted estimator are all wired with the
        # config's fallback: after a promote an unmatched query is still
        # answered by it and flagged, and without one it still raises.
        fallback = OracleCardinalityEstimator(imdb_small, imdb_oracle) if with_fallback else None
        stack = build_service_stack(
            ServingConfig(
                model=trained.model,
                featurizer=trained.featurizer,
                pool=pool,
                fallback_estimator=fallback,
                training_result=trained,
                database=imdb_small,
                adaptation=AdaptationConfig(
                    holdout_size=8,
                    training_pairs=20,
                    incremental_epochs=1,
                    accept_ratio=1e9,
                    seed=7,
                ),
            )
        )
        service = stack.service
        collector = FeedbackCollector()
        manager = AdaptationManager(stack, collector)
        booted = service.estimator
        for labeled in [l for l in workload if pool.has_match(l.query)][:8]:
            collector.record_served(
                service.submit(labeled.query), true_cardinality=labeled.cardinality
            )
        shadows = []
        validate = manager._validate

        def capture(shadow):
            shadows.append(shadow)
            return validate(shadow)

        manager._validate = capture
        assert manager.trigger().swapped
        (shadow,) = shadows
        assert service.estimator is not booted and service.generation == 2
        for estimator in (booted, shadow, service.estimator):
            assert estimator.fallback is fallback
        unmatched = (
            QueryBuilder()
            .table("movie_companies", "mc")
            .table("movie_keyword", "mk")
            .join("mc.movie_id", "mk.movie_id")
            .build()
        )
        if fallback is None:
            with pytest.raises(NoMatchingPoolQueryError, match="has no fallback estimator"):
                service.submit(unmatched)
            return
        served = service.submit(unmatched)
        assert served.used_fallback
        assert (served.estimator_name, served.resolution, served.model_generation) == (
            "fallback",
            "registry_fallback",
            1,
        )
        assert served.estimate == float(imdb_oracle.cardinality(unmatched))

    def test_nan_holdout_signal_rejects_the_candidate(
        self, trained, imdb_small, pool, workload
    ):
        # NaN feedback (a diverged incumbent recording NaN estimates) gives
        # the accept gate a NaN incumbent median.  That is "no signal": the
        # gate must reject explicitly rather than let NaN comparisons decide.
        service, collector, manager = self.build(trained, imdb_small, pool)
        for labeled in workload[:10]:
            collector.record(
                labeled.query, float("nan"), labeled.cardinality, estimator_name="crn"
            )
        before = service.estimator
        outcome = manager.trigger()
        assert outcome.action == "rejected"
        assert service.estimator is before
        assert outcome.incumbent_q_error != outcome.incumbent_q_error  # NaN

    def test_promote_recompiles_the_inference_plan(self, trained, imdb_small, pool):
        # A compiled-mode deployment must come out of a hot swap still
        # compiled: the candidate gets its own freshly compiled plan before
        # the hot swap, and the plan lifecycle lands in the event store as plan_compile+plan_swap.
        service, _, manager = self.build(
            trained,
            imdb_small,
            pool,
            inference=InferenceConfig(mode="compiled", slab_dtype="float32"),
        )
        store = EventStore()
        service.recorder = EventRecorder(store=store)
        incumbent = service.estimator.containment_estimator
        plan = incumbent.inference_plan
        assert plan is not None  # compiled at boot
        outcome = manager.trigger()
        assert outcome.swapped
        swapped = service.estimator.containment_estimator
        recompiled = swapped.inference_plan
        assert recompiled is not None and recompiled is not plan
        assert recompiled.model is swapped.model
        assert recompiled.dtype == plan.dtype
        # The incumbent keeps its own plan (rollback never needs a re-attach).
        assert incumbent.inference_plan is plan
        service.recorder.flush()
        history = store.plan_history()
        assert [(row["kind"], row["outcome"]) for row in history] == [
            ("plan_compile", None),
            ("plan_swap", "promoted"),
        ]
        generation = service.generation
        assert all(row["model_generation"] == generation for row in history)
        assert all(row["dtype"] == "float32" for row in history)

    def test_reference_mode_swap_compiles_nothing(self, trained, imdb_small, pool):
        service, _, manager = self.build(trained, imdb_small, pool)
        assert service.estimator.containment_estimator.inference_plan is None
        assert manager.trigger().swapped
        assert service.estimator.containment_estimator.inference_plan is None

    def test_promote_warms_the_candidates_own_index_before_the_swap(
        self, trained, imdb_small, pool, workload
    ):
        service, _, manager = self.build(trained, imdb_small, pool)
        incumbent = service.estimator
        outcome = manager.trigger()
        assert outcome.swapped
        swapped = service.estimator
        # The candidate was wired an index of its own, over the refreshed
        # pool, and warmed during the promote (a promote always pre-warms),
        # so the first post-swap request resolves without a re-encoding stall.
        index = swapped.pool_index
        assert index is not incumbent.pool_index
        assert index.crn is swapped.containment_estimator
        assert index.pool is swapped.pool
        assert len(index) > 0
        builds_before = index.stats.builds + index.stats.rebuilds
        query = next(l.query for l in workload if swapped.pool.has_match(l.query))
        assert index.resolve(query).first is not None
        assert index.stats.builds + index.stats.rebuilds == builds_before
        # Serving through the swapped estimator matches a fresh index-less
        # estimator on the same model/pool, bit for bit.
        served = swapped.containment_estimator
        reference = Cnt2CrdEstimator(
            CRNEstimator(served.model, served.featurizer.featurizer), swapped.pool
        )
        assert scored_bits(swapped, query) == scored_bits(reference, query)

    @pytest.mark.parametrize("mode", ["reference", "compiled"])
    def test_the_incumbent_serves_its_own_slabs_through_and_after_a_promote(
        self, trained, imdb_small, pool, workload, monkeypatch, mode
    ):
        inference = InferenceConfig(
            mode=mode, slab_dtype="float32" if mode == "compiled" else "float64"
        )
        service, _, manager = self.build(trained, imdb_small, pool, inference=inference)
        incumbent = service.estimator
        query = next(l.query for l in workload if pool.has_match(l.query))
        (before,) = service.submit_batch([query])
        assert before.resolution == "indexed_slab"
        bits = scored_bits(incumbent, query)
        during = []
        warm = PoolEncodingIndex.warm

        def serve_then_warm(index, *args):
            # The candidate's warm: the incumbent is still the served
            # estimator, and its requests keep their fast path and bits.
            during.append(service.submit(query))
            return warm(index, *args)

        monkeypatch.setattr(PoolEncodingIndex, "warm", serve_then_warm)
        assert manager.trigger().swapped
        (served,) = during
        assert (served.resolution, served.model_generation) == ("indexed_slab", 1)
        assert served.estimate == before.estimate
        # After the replace, the outgoing estimator object still scores its
        # own slabs: an in-flight batch finishes on them.
        assert service.estimator is not incumbent
        assert incumbent.resolve(query).first is not None
        assert scored_bits(incumbent, query) == bits
        outgoing = EstimationService(incumbent)
        (late,) = outgoing.submit_batch([query])
        assert (late.resolution, late.estimate) == ("indexed_slab", before.estimate)

    @pytest.mark.parametrize("mode", ["reference", "compiled"])
    def test_promote_failure_is_recovered_and_counted(
        self, trained, imdb_small, pool, workload, monkeypatch, mode
    ):
        inference = InferenceConfig(
            mode=mode, slab_dtype="float32" if mode == "compiled" else "float64"
        )
        service, _, manager = self.build(trained, imdb_small, pool, inference=inference)
        store = EventStore()
        service.recorder = EventRecorder(store=store)
        incumbent = service.estimator
        query = next(l.query for l in workload if pool.has_match(l.query))
        (before,) = service.submit_batch([query])

        def refuse(estimator):
            raise RuntimeError("the service refused the swap")

        monkeypatch.setattr(service, "replace", refuse)
        outcome = manager.trigger()
        assert outcome.action == "promote-failed"
        assert manager.stats_snapshot()["promote_failures"] == 1.0
        assert manager._consecutive_failures == 1
        assert isinstance(manager.last_error, RuntimeError)
        # The candidate was wired on caches and an index of its own, so the
        # incumbent was never touched: still served, it answers
        # bit-identically from its own fast path.
        assert service.estimator is incumbent
        assert incumbent.pool_index.crn is incumbent.containment_estimator
        (after,) = service.submit_batch([query])
        assert (after.estimate, after.resolution) == (before.estimate, "indexed_slab")
        service.recorder.flush()
        swaps = [row["outcome"] for row in store.plan_history() if row["kind"] == "plan_swap"]
        assert swaps == (["rollback"] if mode == "compiled" else [])

    def test_client_warm_after_a_swap_warms_the_promoted_model(
        self, trained, imdb_small, pool, workload
    ):
        config = ServingConfig(
            model=trained.model,
            featurizer=trained.featurizer,
            pool=pool,
            training_result=trained,
            database=imdb_small,
            feedback=FeedbackConfig(enabled=True),
            adaptation=AdaptationConfig(
                enabled=True, training_pairs=20, incremental_epochs=1, full_epochs=1
            ),
        )
        client = ServingClient(config)
        assert client.trigger_adaptation().swapped
        # client.warm() warms the live estimator's index: the promoted model's.
        client.warm()
        query = next(l.query for l in workload if pool.has_match(l.query))
        served = client.estimate(query)
        assert (served.model_generation, served.resolution) == (2, "indexed_slab")

    def test_escalates_to_full_after_repeated_failures(
        self, trained, imdb_small, pool
    ):
        service, _, manager = self.build(
            trained, imdb_small, pool, max_incremental_failures=0
        )
        outcome = manager.trigger()
        assert outcome.swapped and outcome.mode == "full"
        assert manager.stats.full_retrains == 1
        assert manager.stats.escalations == 1

    def test_paused_policy_cycle_does_nothing(self, trained, imdb_small, pool, workload):
        _, collector, manager = self.build(
            trained, imdb_small, pool, max_q_error=1.5, min_observations=2
        )
        # Simulate a badly drifted incumbent: estimates 100x off the truth.
        for labeled in workload[:2]:
            collector.record(
                labeled.query,
                labeled.cardinality * 100.0 + 100.0,
                labeled.cardinality,
                estimator_name="crn",
            )
        manager.pause()
        outcome = manager.run_cycle()
        assert outcome.action == "paused"
        manager.resume()
        outcome = manager.run_cycle()
        assert outcome.swapped

    def test_needs_the_training_state_in_the_stack_config(self, trained, imdb_small, pool):
        stack = build_service_stack(
            ServingConfig(model=trained.model, featurizer=trained.featurizer, pool=pool)
        )
        with pytest.raises(ValueError, match="training_result and database"):
            AdaptationManager(stack, FeedbackCollector())

    def test_accept_ratio_validation(self, trained, imdb_small, pool):
        with pytest.raises(ValueError):
            self.build(trained, imdb_small, pool, accept_ratio=0.0)


class WatchedLock:
    """A lock that records when an acquirer found it held, then waits for it."""

    def __init__(self):
        self.lock = threading.Lock()
        self.contended = threading.Event()

    def __enter__(self):
        if not self.lock.acquire(blocking=False):
            self.contended.set()
            self.lock.acquire()

    def __exit__(self, *exc_info):
        self.lock.release()


class GatedRetrain:
    """Stands in for ``incremental_update``: records the thread of every call
    and the most retrains ever in flight, holds the first call until
    :attr:`release` is set, then trains for real."""

    def __init__(self, monkeypatch):
        self.train = lifecycle_module.incremental_update
        self.entered = threading.Event()
        self.release = threading.Event()
        self.threads: list[threading.Thread] = []
        self.events: list[str] = []
        self.in_flight = self.most_in_flight = 0
        self.lock = threading.Lock()
        monkeypatch.setattr(lifecycle_module, "incremental_update", self)

    def __call__(self, *args, **kwargs):
        with self.lock:
            self.threads.append(threading.current_thread())
            self.in_flight += 1
            self.most_in_flight = max(self.most_in_flight, self.in_flight)
            first = len(self.threads) == 1
        self.entered.set()
        if first:
            assert self.release.wait(60), "the test never released the retrain"
        try:
            return self.train(*args, **kwargs)
        finally:
            with self.lock:
                self.in_flight -= 1
                self.events.append("retrained")


def wait_for(event, what):
    # A liveness guard: the verdicts below never depend on how long this takes.
    assert event.wait(60), f"timed out waiting for {what}"


class TestManualTrigger:
    """A manual trigger runs its cycle on the caller's thread; the cycle lock
    serializes it with the worker's cycles and with stop(wait=True)."""

    def build(self, trained, imdb_small, pool, **adaptation):
        stack = make_stack(
            trained, imdb_small, pool,
            cooldown_seconds=0.0, training_pairs=20, incremental_epochs=1, seed=7,
            **adaptation,
        )
        collector = FeedbackCollector()
        manager = AdaptationManager(stack, collector)
        manager._cycle_lock = WatchedLock()
        return collector, manager

    def test_trigger_on_a_started_manager_runs_on_the_callers_thread(
        self, trained, imdb_small, pool, monkeypatch
    ):
        retrain = GatedRetrain(monkeypatch)
        retrain.release.set()
        _, manager = self.build(trained, imdb_small, pool)
        with manager:
            assert manager._thread.is_alive()
            outcome = manager.trigger()
        assert outcome.swapped
        assert retrain.threads == [threading.current_thread()]
        assert manager.last_outcome is outcome

    def test_trigger_waits_for_the_workers_cycle(
        self, trained, imdb_small, pool, workload, monkeypatch
    ):
        retrain = GatedRetrain(monkeypatch)
        collector, manager = self.build(
            trained, imdb_small, pool,
            max_q_error=1.5, min_observations=2, poll_interval_seconds=0.01,
        )
        for labeled in workload[:2]:  # a drifted window: the policy fires
            collector.record(
                labeled.query,
                labeled.cardinality * 100.0 + 100.0,
                labeled.cardinality,
                estimator_name="crn",
            )
        outcomes = []
        with manager:
            wait_for(retrain.entered, "the worker's retrain")
            trigger = threading.Thread(target=lambda: outcomes.append(manager.trigger()))
            trigger.start()
            # The worker holds the cycle lock inside its gated retrain, so the
            # trigger finds the lock held and waits.
            wait_for(manager._cycle_lock.contended, "the trigger to reach the cycle lock")
            assert retrain.threads == [manager._thread]
            retrain.release.set()
            trigger.join()
        assert [outcome.swapped for outcome in outcomes] == [True]
        assert retrain.threads[1] is trigger
        assert retrain.most_in_flight == 1
        assert manager.stats.swaps == 2 and manager.stats.manual_triggers == 1

    def test_stop_waits_for_a_cycle_on_another_thread(
        self, trained, imdb_small, pool, monkeypatch
    ):
        retrain = GatedRetrain(monkeypatch)
        # The worker sleeps until stop() wakes it, so only stop() can find
        # the cycle lock held.
        _, manager = self.build(trained, imdb_small, pool, poll_interval_seconds=3600.0)
        manager.start()
        trigger = threading.Thread(target=manager.trigger)
        trigger.start()
        wait_for(retrain.entered, "the trigger's retrain")

        def stop():
            manager.stop(wait=True)
            retrain.events.append("stopped")

        stopper = threading.Thread(target=stop)
        stopper.start()
        wait_for(manager._cycle_lock.contended, "stop() to reach the cycle lock")
        assert retrain.events == []
        retrain.release.set()
        stopper.join()
        trigger.join()
        assert retrain.events == ["retrained", "stopped"]
        assert not manager._thread.is_alive()
        assert manager.last_outcome.swapped


class TestDatabaseUpdate:
    """An update is followed one way: the manager trains a new model over a
    new featurizer, and the promote wires them a new estimator."""

    @pytest.mark.parametrize("mode", ["reference", "compiled"])
    def test_the_promoted_estimator_serves_the_candidates_own_state(
        self, trained, imdb_small, pool, workload, updated_database, mode
    ):
        inference = InferenceConfig(
            mode=mode, slab_dtype="float32" if mode == "compiled" else "float64"
        )
        stack = make_stack(
            trained, imdb_small, pool, inference,
            cooldown_seconds=0.0, training_pairs=20, incremental_epochs=1, seed=7,
        )
        manager = AdaptationManager(stack, FeedbackCollector())
        queries = [labeled.query for labeled in workload if pool.has_match(labeled.query)]
        stack.service.submit_batch(queries)
        incumbent = stack.estimator.containment_estimator
        assert len(incumbent.featurizer) > 0 and len(incumbent.encoding_cache) > 0
        manager.set_database(updated_database)
        assert manager.trigger().swapped  # forced: the empty window skips the gate
        served = stack.estimator.containment_estimator
        model, featurizer = served.model, served.featurizer.featurizer
        assert model is not incumbent.model
        assert featurizer is not incumbent.featurizer.featurizer
        assert featurizer.database is updated_database
        # The slabs are the bytes a fresh stack builds over the candidate
        # model, its featurizer and the refreshed pool.
        refreshed = stack.estimator.pool
        assert refreshed is not pool
        updated_oracle = TrueCardinalityOracle(updated_database)
        assert [entry.cardinality for entry in refreshed] == [
            updated_oracle.cardinality(entry.query) for entry in pool
        ]
        fresh = build_service_stack(
            ServingConfig(model=model, featurizer=featurizer, pool=refreshed, inference=inference)
        )
        assert slab_bytes(stack) == slab_bytes(fresh)
        # The caches start empty and fill with the candidate's encodings only.
        assert len(served.featurizer) == 0 and len(served.encoding_cache) == 0
        stack.service.submit_batch(queries)
        assert len(served.encoding_cache) > 0
        for query in queries:
            vectors = featurizer.featurize(query)
            for position in (1, 2):
                expected = model.encode_set(vectors, position)
                assert served.encoding_cache.get(query, position).tobytes() == expected.tobytes()

    @staticmethod
    def written_out(base, database, training_config, seed, epochs, warm):
        """One retrain, written out: a featurizer, pairs and a model of its
        own, fitted with no validation split, patience or best-epoch restore."""
        featurizer = QueryFeaturizer(database)
        pairs = build_training_pairs(database, count=20, seed=seed)
        model = CRNModel(featurizer.vector_size, base.model.config)
        if warm:
            model.load_state_dict(base.model.state_dict())
        config = replace(training_config, epochs=epochs, early_stopping_patience=0)
        CRNTrainer(model, config).fit(
            TrainingResult(model=model, featurizer=featurizer),
            RaggedPairs.featurize(featurizer, pairs),
            restore_best=False,
        )
        return model.state_dict()

    @staticmethod
    def same_bytes(state, expected):
        return state.keys() == expected.keys() and all(
            state[name].tobytes() == expected[name].tobytes() for name in state
        )

    def test_each_retrain_is_a_written_out_fit(self, trained, updated_database):
        # A step size at which neither mode ends on its best epoch, so a
        # best-epoch restore would show in the bytes.
        training_config = TrainingConfig(epochs=1, batch_size=8, learning_rate=0.2)
        pairs = build_training_pairs(updated_database, count=20, seed=8)
        incremental = incremental_update(
            trained, updated_database, pairs, training_config, epochs=3
        )
        full = retrain_from_scratch(
            updated_database, pairs, trained.model.config, training_config, epochs=3
        )
        for result, warm in ((incremental, True), (full, False)):
            assert result.featurizer.database is updated_database
            assert result.epochs_run == 3 and result.best_epoch < 3
            assert all(parameter.data.flags.owndata for parameter in result.model.parameters())
            expected = self.written_out(trained, updated_database, training_config, 8, 3, warm)
            assert self.same_bytes(result.model.state_dict(), expected)

    def test_attempt_n_trains_on_pairs_drawn_at_seed_plus_n(
        self, trained, imdb_small, pool, updated_database
    ):
        stack = make_stack(
            trained, imdb_small, pool,
            cooldown_seconds=0.0, training_pairs=20, incremental_epochs=2, full_epochs=3,
            seed=7,
        )
        manager = AdaptationManager(stack, FeedbackCollector())
        manager.set_database(updated_database)
        # Attempt 1 fine-tunes the accepted weights on pairs drawn at seed 8
        # with the default TrainingConfig; the forced swap accepts it.
        assert manager.trigger().mode == "incremental"
        first = stack.estimator.containment_estimator.model.state_dict()
        expected = self.written_out(trained, updated_database, TrainingConfig(), 8, 2, True)
        assert self.same_bytes(first, expected)
        # Attempt 2, escalated, trains fresh weights on pairs drawn at seed 9.
        manager.config = replace(manager.config, max_incremental_failures=0)
        assert manager.trigger().mode == "full"
        second = stack.estimator.containment_estimator.model.state_dict()
        expected = self.written_out(trained, updated_database, TrainingConfig(), 9, 3, False)
        assert self.same_bytes(second, expected)


class TestHotSwapUnderTraffic:
    def test_wire_estimator_shares_no_model_state_between_estimators(
        self, imdb_small, imdb_featurizer, pool
    ):
        model_a = CRNModel(imdb_featurizer.vector_size, CRNConfig(hidden_size=16, seed=5))
        model_b = CRNModel(imdb_featurizer.vector_size, CRNConfig(hidden_size=16, seed=99))
        config = ServingConfig(
            model=model_a,
            featurizer=imdb_featurizer,
            pool=pool,
            fallback_estimator=PostgresCardinalityEstimator(imdb_small),
            inference=InferenceConfig(mode="compiled", slab_dtype="float32"),
        )
        first = wire_estimator(config, model_a, imdb_featurizer, pool, generation=1)
        second = wire_estimator(config, model_b, imdb_featurizer, pool, generation=2)
        crns = [estimator.containment_estimator for estimator in (first, second)]
        assert [crn.model for crn in crns] == [model_a, model_b]
        assert crns[0].featurizer is not crns[1].featurizer
        assert crns[0].encoding_cache is not crns[1].encoding_cache
        assert crns[0].inference_plan is not crns[1].inference_plan
        assert all(crn.inference_plan is not None for crn in crns)
        for estimator, crn in zip((first, second), crns):
            assert estimator.pool is pool
            assert estimator.pool_index.pool is pool and estimator.pool_index.crn is crn
            assert len(estimator.pool_index) == 0  # no slab is built at wiring
        # Without a generation no plan is compiled (the adaptation shadow).
        shadow = wire_estimator(config, model_b, imdb_featurizer, pool)
        assert shadow.containment_estimator.inference_plan is None

    def test_replace_mid_flight_never_tears_a_request(
        self, imdb_small, imdb_featurizer, pool, workload
    ):
        """Stress the swap primitive: every estimate comes wholly from one model.

        Client threads hammer the dispatcher while the main thread hot-swaps
        between two models repeatedly, each swap a freshly wired estimator
        (its own caches and pool index, warmed) handed to ``replace``, as a
        promote does.  No request may be dropped, fail, or observe a *mix* of
        the two models — each served estimate must be bit-identical to one
        model's reference answer.
        """
        queries = [labeled.query for labeled in workload]
        fallback = PostgresCardinalityEstimator(imdb_small)
        model_a = CRNModel(imdb_featurizer.vector_size, CRNConfig(hidden_size=16, seed=5))
        model_b = CRNModel(imdb_featurizer.vector_size, CRNConfig(hidden_size=16, seed=99))
        references = {}
        for key, model in (("a", model_a), ("b", model_b)):
            reference_service = build_service(
                model, imdb_featurizer, pool, fallback_estimator=fallback
            )
            references[key] = {
                query: item.estimate
                for query, item in zip(queries, reference_service.submit_batch(queries))
            }

        config = ServingConfig(
            model=model_a, featurizer=imdb_featurizer, pool=pool, fallback_estimator=fallback
        )
        service = build_service_stack(config).service
        stop = threading.Event()
        results: list[list[tuple]] = [[] for _ in range(4)]
        errors: list[BaseException] = []

        def client(index):
            share = queries[index::4]
            try:
                while not stop.is_set():
                    futures = [(query, dispatcher.submit(query)) for query in share]
                    results[index].extend(
                        (query, future.result(timeout=30).estimate)
                        for query, future in futures
                    )
            except BaseException as error:  # noqa: BLE001 - re-raised below
                errors.append(error)

        with ServingDispatcher(service, max_batch=16) as dispatcher:
            threads = [threading.Thread(target=client, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            current = model_b
            for _ in range(6):  # several swaps while requests are in flight
                time.sleep(0.03)
                estimator = wire_estimator(config, current, imdb_featurizer, pool)
                estimator.pool_index.warm()
                service.replace(estimator)
                current = model_a if current is model_b else model_b
            time.sleep(0.03)
            stop.set()
            for thread in threads:
                thread.join()

        assert not errors, f"client raised: {errors[0]!r}"
        assert dispatcher.stats.failed == 0
        total = sum(len(chunk) for chunk in results)
        assert dispatcher.stats.completed == total
        assert total > 0
        torn = [
            (query, estimate)
            for chunk in results
            for query, estimate in chunk
            if estimate != references["a"][query] and estimate != references["b"][query]
        ]
        assert not torn, f"{len(torn)} estimates match neither model: {torn[:3]}"


class TestEndToEndAdaptation:
    def test_database_update_degrade_retrain_swap_recover(
        self, trained, imdb_small, imdb_oracle, pool, workload
    ):
        """The acceptance scenario: update → drift → background retrain → swap.

        A database update triples the data under a live service.  The stale
        model's rolling q-error degrades past the degradation-ratio policy,
        the background worker retrains and hot-swaps while client threads
        keep submitting through the dispatcher, and the post-swap rolling
        q-error recovers to within 1.5x of the healthy pre-update window.
        No request is dropped or failed across the whole episode.
        """
        stack = make_stack(
            trained,
            imdb_small,
            pool,
            quantile=0.5,  # the rolling median: robust to the near-zero-truth
            # tail, shifts ~3x with the simulated update
            max_q_error=None,
            degradation_ratio=1.5,
            min_observations=15,
            cooldown_seconds=0.0,
            poll_interval_seconds=0.05,
            holdout_size=15,
            accept_ratio=1.0,
            training_pairs=30,
            incremental_epochs=2,
            full_epochs=2,
            seed=9,
        )
        service = stack.service
        collector = FeedbackCollector(max_observations=60)
        manager = AdaptationManager(stack, collector)
        updated_database = build_synthetic_imdb(
            SyntheticIMDbConfig(num_titles=900, seed=3)
        )
        updated_oracle = TrueCardinalityOracle(updated_database)
        truth_lock = threading.Lock()
        truths = {
            labeled.query: float(labeled.cardinality) for labeled in workload
        }

        stop = threading.Event()
        failures: list[BaseException] = []

        def client():
            while not stop.is_set():
                for labeled in workload:
                    if stop.is_set():
                        break
                    try:
                        served = dispatcher.estimate(labeled.query, timeout=30)
                        with truth_lock:
                            truth = truths[labeled.query]
                        collector.record_served(served, true_cardinality=truth)
                    except BaseException as error:  # noqa: BLE001
                        failures.append(error)
                        return

        with ServingDispatcher(service, max_batch=32) as dispatcher:
            with manager:
                # Phase 1 — healthy traffic against the original snapshot.
                for labeled in workload:
                    served = dispatcher.estimate(labeled.query, timeout=30)
                    collector.record_served(
                        served, true_cardinality=float(labeled.cardinality)
                    )
                deadline = time.monotonic() + 10.0
                while not manager.monitor.baseline_frozen:
                    assert time.monotonic() < deadline, "baseline never froze"
                    time.sleep(0.02)
                pre_update = collector.summary()
                assert manager.stats.swaps == 0

                # Phase 2 — the database update lands; ground truth moves.
                manager.set_database(updated_database)
                with truth_lock:
                    for labeled in workload:
                        truths[labeled.query] = float(
                            updated_oracle.cardinality(labeled.query)
                        )
                clients = [threading.Thread(target=client) for _ in range(3)]
                for thread in clients:
                    thread.start()

                # Phase 3 — the worker notices, retrains, swaps; traffic never stops.
                deadline = time.monotonic() + 60.0
                while manager.stats.swaps < 1:
                    assert time.monotonic() < deadline, (
                        f"no hot swap within 60s; last outcome: {manager.last_outcome}"
                    )
                    time.sleep(0.05)
                stop.set()
                for thread in clients:
                    thread.join()

                # Phase 4 — post-swap traffic against the refreshed estimator
                # (lifecycle paused so a second swap cannot clear the window
                # under the summary below).
                manager.pause()
                collector.clear()
                for labeled in workload:
                    served = dispatcher.estimate(labeled.query, timeout=30)
                    collector.record_served(
                        served,
                        true_cardinality=float(
                            updated_oracle.cardinality(labeled.query)
                        ),
                    )
                recovered = collector.summary()

        assert not failures, f"client raised: {failures[0]!r}"
        assert dispatcher.stats.failed == 0
        assert dispatcher.stats.completed == dispatcher.stats.submitted
        assert manager.stats.swaps >= 1
        assert manager.stats.retrains >= 1
        # The swap was provoked by the drift policy (not forced), and the
        # accept gate guaranteed the promoted candidate beat the degraded
        # incumbent on the held-out feedback slice.
        assert manager.stats.drift_triggers >= 1
        assert manager.stats.post_swap_q_error <= manager.stats.pre_swap_q_error
        # The refreshed estimator serves the updated data about as well as the
        # original served the original data (the acceptance bar is 1.5x on
        # the rolling median; the tail gets slack because a few
        # near-zero-truth queries dominate p90 regardless of model quality).
        assert recovered.p50 <= 1.5 * pre_update.p50, (
            f"post-swap p50 {recovered.p50:.2f} vs pre-update p50 {pre_update.p50:.2f}"
        )
        assert recovered.p90 <= 3.0 * pre_update.p90, (
            f"post-swap p90 {recovered.p90:.2f} vs pre-update p90 {pre_update.p90:.2f}"
        )
