"""Adaptive serving: a database update degrades q-error, the lifecycle heals it.

The scenario the adaptation subsystem exists for, measured end to end — and
driven entirely through the unified :class:`repro.serving.ServingClient`:

1. one :class:`repro.serving.ServingConfig` declares the whole stack
   (estimator, dispatcher, feedback window, drift policy, retrain budgets);
   the client starts the dispatcher and the background adaptation worker;
2. a **database update** lands (the data triples) — ground truth moves under
   the stale model and the rolling q-error degrades;
3. the drift policy fires, the adaptation worker retrains incrementally
   (Section 9) against the new snapshot, refreshes the queries pool,
   validates the candidate on the freshest feedback slice, wires it its own
   caches and pool index, warms them and hot-swaps it via ``replace()`` —
   while client threads keep submitting the whole time, the incumbent
   serving them from its own slabs until the swap;
4. post-swap, the adapted model's q-error on the workload's queries
   (against the updated data) recovers to within ``1.5x`` of the pre-update
   model's on the same queries (against the original data), not a single
   request was dropped or failed across the episode, and every post-swap
   response carries the bumped model generation.

The pre-update, degraded (stale model, new data) and recovered q-errors are
all read on one fixed holdout, the workload's query set estimated once each
in one synchronous batch, so they depend on the models and the data alone.  The rolling feedback window holds whatever
requests the traffic threads happened to finish: it drives the lifecycle's
drift policy and gate, but no verdict.

Smoke mode (``REPRO_SMOKE=1``, used by CI) shrinks the database, pool, and
training budget — the degradation→recovery shape and the zero-dropped-requests
assertions still run on every push.
"""

from __future__ import annotations

import os
import threading
import time

from repro.baselines import PostgresCardinalityEstimator
from repro.core import CRNConfig, QueriesPool, QueryFeaturizer, TrainingConfig, train_crn
from repro.datasets import build_queries_pool_queries, build_training_pairs
from repro.datasets.imdb import SyntheticIMDbConfig, build_synthetic_imdb
from repro.db import TrueCardinalityOracle
from repro.evaluation import (
    evaluate_adaptation,
    format_adaptation_table,
    format_service_stats,
)
from repro.observability import EventStore
from repro.serving import (
    AdaptationConfig,
    ArtifactConfig,
    DispatcherConfig,
    FeedbackCollector,
    FeedbackConfig,
    FeedbackSummary,
    ObservabilityConfig,
    RequestOptions,
    ServingClient,
    ServingConfig,
    TracingConfig,
)

SMOKE = os.environ.get("REPRO_SMOKE", "") == "1"
TITLES = 200 if SMOKE else 500
UPDATED_TITLES = 3 * TITLES
POOL_SIZE = 50 if SMOKE else 150
WORKLOAD_SIZE = 20 if SMOKE else 60
TRAIN_PAIRS = 60 if SMOKE else 300
TRAIN_EPOCHS = 3 if SMOKE else 10
CLIENTS = 3
REQUIRED_RECOVERY = 1.5
TAIL_SLACK = 3.0
SWAP_DEADLINE_SECONDS = 120.0

#: Every request in the episode runs under a caller deadline.
DEADLINE = RequestOptions(timeout_seconds=60.0)


def holdout_summary(client, holdout, truths) -> FeedbackSummary:
    """The serving model's q-error on ``holdout``, in one synchronous batch.

    ``estimate_many`` runs on the calling thread, so the summary depends on
    the model and the data only, never on how traffic threads interleaved.
    """
    scored = FeedbackCollector(max_observations=len(holdout))
    for query, served in zip(holdout, client.estimate_many(holdout)):
        scored.record(query, served.estimate, truths[query])
    return scored.summary()


def test_adaptive_serving(results_dir, bench_record):
    # The episode's structured event log persists next to the rendered
    # report (CI uploads it as a workflow artifact).  A fresh file per run:
    # the store dedups on (source, sequence), and a new process restarts its
    # sequence at zero — appending into an old file would silently drop.
    event_db = results_dir / "adaptive_serving_events.sqlite"
    event_db.unlink(missing_ok=True)
    # The episode's artifact store persists next to the event log: gen-1 is
    # the pre-update build, and the hot swap saves + promotes the adapted
    # model — CI uploads the directory and cold-boots a client from it.
    artifact_root = results_dir / "adaptive_serving_artifacts"
    if artifact_root.exists():
        import shutil

        shutil.rmtree(artifact_root)
    database = build_synthetic_imdb(SyntheticIMDbConfig(num_titles=TITLES, seed=3))
    oracle = TrueCardinalityOracle(database)
    featurizer = QueryFeaturizer(database)
    trained = train_crn(
        featurizer,
        build_training_pairs(database, count=TRAIN_PAIRS, seed=12, oracle=oracle),
        crn_config=CRNConfig(hidden_size=32, seed=2),
        training_config=TrainingConfig(epochs=TRAIN_EPOCHS, batch_size=64),
    )
    pool = QueriesPool.from_labeled_queries(
        build_queries_pool_queries(database, count=POOL_SIZE, seed=17, oracle=oracle)
    )
    workload = build_queries_pool_queries(
        database, count=WORKLOAD_SIZE, seed=23, oracle=oracle
    )
    # The verdict's fixed holdout is the workload's own query set: the live
    # windows sampled it with thread-dependent repeats, the holdout scores
    # each query once.
    holdout = [item.query for item in workload]
    config = ServingConfig(
        model=trained.model,
        featurizer=featurizer,
        pool=pool,
        fallback_estimator=PostgresCardinalityEstimator(database),
        training_result=trained,
        database=database,
        dispatcher=DispatcherConfig(enabled=True, max_batch=32),
        feedback=FeedbackConfig(enabled=True, max_observations=4 * WORKLOAD_SIZE),
        observability=ObservabilityConfig(
            enabled=True, capacity=1 << 15, sqlite_path=str(event_db)
        ),
        # Tail-sampled tracing: the artifact carries full span trees for the
        # slowest requests of the episode (scripts/trace_report.py smoke-runs
        # against this file in CI).
        tracing=TracingConfig(enabled=True, sample_every=8),
        artifacts=ArtifactConfig(root=str(artifact_root)),
        adaptation=AdaptationConfig(
            enabled=True,
            quantile=0.5,  # the median shifts ~3x with the data; the p90+
            # tail is near-zero-truth noise in healthy windows too
            max_q_error=None,
            degradation_ratio=1.5,
            min_observations=WORKLOAD_SIZE // 2,
            cooldown_seconds=0.0,
            poll_interval_seconds=0.05,
            holdout_size=WORKLOAD_SIZE // 2,
            training_pairs=TRAIN_PAIRS,
            incremental_epochs=TRAIN_EPOCHS,
            seed=9,
        ),
    )

    updated_database = build_synthetic_imdb(
        SyntheticIMDbConfig(num_titles=UPDATED_TITLES, seed=3)
    )
    updated_oracle = TrueCardinalityOracle(updated_database)
    truths = {item.query: float(item.cardinality) for item in workload}
    truth_lock = threading.Lock()
    stop = threading.Event()
    failures: list[BaseException] = []

    with ServingClient(config) as client:
        manager = client.manager

        def traffic():
            while not stop.is_set():
                for labeled in workload:
                    if stop.is_set():
                        break
                    try:
                        served = client.estimate(labeled.query, DEADLINE)
                        with truth_lock:
                            truth = truths[labeled.query]
                        client.record_feedback(served, true_cardinality=truth)
                    except BaseException as error:  # noqa: BLE001 - reported below
                        failures.append(error)
                        return

        # Phase 1 — healthy traffic on the original snapshot.
        for labeled in workload:
            served = client.estimate(labeled.query, DEADLINE)
            client.record_feedback(served, true_cardinality=float(labeled.cardinality))
        deadline = time.monotonic() + 30.0
        while not manager.monitor.baseline_frozen:
            assert time.monotonic() < deadline, (
                f"baseline never froze; lifecycle worker error: {manager.last_error!r}"
            )
            time.sleep(0.02)
        pre_update = holdout_summary(client, holdout, truths)
        pre_swap_generation = client.estimate(workload[0].query, DEADLINE).model_generation

        # The stale model against the new data, before the update lands.
        updated_truths = {query: float(updated_oracle.cardinality(query)) for query in holdout}
        degraded = holdout_summary(client, holdout, updated_truths)

        # Phase 2 — the update lands: ground truth moves under the model.
        update_started = time.perf_counter()
        client.manager.set_database(updated_database)
        with truth_lock:
            truths.update(updated_truths)
        clients = [threading.Thread(target=traffic) for _ in range(CLIENTS)]
        for thread in clients:
            thread.start()

        # Phase 3 — wait for the background retrain + hot swap (traffic on).
        deadline = time.monotonic() + SWAP_DEADLINE_SECONDS
        while manager.stats.swaps < 1:
            assert time.monotonic() < deadline, (
                f"no hot swap within {SWAP_DEADLINE_SECONDS:.0f}s; "
                f"last outcome: {manager.last_outcome}"
            )
            time.sleep(0.05)
        recovery_seconds = time.perf_counter() - update_started
        stop.set()
        for thread in clients:
            thread.join()

        # Phase 4 — post-swap traffic against the refreshed estimator.
        manager.pause()
        client.collector.clear()
        post_swap_generation = None
        for labeled in workload:
            served = client.estimate(labeled.query, DEADLINE)
            post_swap_generation = served.model_generation
            client.record_feedback(
                served,
                true_cardinality=float(updated_oracle.cardinality(labeled.query)),
            )
        recovered = holdout_summary(client, holdout, updated_truths)
        merged_stats = client.stats()
        dispatcher_stats = client.dispatcher.stats

    assert not failures, f"client raised: {failures[0]!r}"
    assert dispatcher_stats.failed == 0, "a request failed during the episode"
    assert dispatcher_stats.timed_out == 0, "a request was abandoned on its deadline"
    assert dispatcher_stats.completed == dispatcher_stats.submitted, (
        "a request was dropped during the hot swap"
    )
    assert manager.stats.swaps >= 1 and manager.stats.drift_triggers >= 1
    # Post-swap responses are attributable to the new model generation.
    assert pre_swap_generation == 1
    assert post_swap_generation == pre_swap_generation + manager.stats.swaps
    assert merged_stats["model_generation"] == post_swap_generation

    # The adapted model outlived the client: the build saved gen-1, each
    # accepted candidate persisted under its swap generation, and `latest`
    # points at the promoted one (CI uploads this directory and cold-boots
    # from it via ServingClient.from_artifact + artifact_tool.py verify).
    assert manager.stats.artifact_saves == manager.stats.swaps
    assert manager.stats.artifact_save_failures == 0
    store = client.artifact_store
    assert store.pointer()["generation"] == post_swap_generation
    assert store.generations() == list(range(1, post_swap_generation + 1))
    store.verify(post_swap_generation)

    # The episode's whole story is on the persisted record: the drift trip,
    # the accept-gate decision, and the hot swap — keyed by the same model
    # generation the responses carry.  Re-open the SQLite file from disk to
    # prove the history survives the serving process (CI uploads this file
    # as a workflow artifact).
    client.event_store.close()
    with EventStore(str(event_db)) as story:
        counts = story.counts()
        assert counts.get("drift_trip", 0) >= 1, "the drift trip never hit the store"
        assert counts.get("accept_gate", 0) >= 1, "the gate decision never hit the store"
        swaps = story.swap_history()
        assert [swap["model_generation"] for swap in swaps][-1] == post_swap_generation
        assert counts.get("request_served", 0) >= 2 * WORKLOAD_SIZE
        # The artifact lifecycle rode the same record: the build save plus
        # one save+promote per accepted candidate, joinable against the
        # swaps above by model_generation (view_generation_provenance).
        assert counts.get("artifact_saved", 0) == 1 + manager.stats.swaps
        provenance = {
            row["model_generation"]: row for row in story.generation_provenance()
        }
        assert provenance[post_swap_generation]["artifacts_saved"] >= 1
        assert provenance[post_swap_generation]["swaps"] >= 1
        # The trace record rode along: sampled span trees (with at least the
        # slowest request's), the shared batch spans, and the swap itself.
        assert counts.get("span", 0) >= 1, "no spans reached the store"
        assert story.slowest_traces(1), "no request trace was kept"
        span_names = {row["name"] for row in story.span_kind_latency()}
        assert "model_swap" in span_names, "the hot swap left no span"
    evaluation = evaluate_adaptation(manager, pre_update, degraded, recovered)
    bench_record(
        "serving",
        "bench_adaptive_serving",
        "recovery_seconds",
        recovery_seconds,
        "s",
        False,
    )
    bench_record(
        "serving",
        "bench_adaptive_serving",
        "recovery_ratio",
        evaluation.recovery_ratio,
        "x",
        False,
    )
    assert evaluation.recovery_ratio <= REQUIRED_RECOVERY, (
        f"post-swap holdout q-error {recovered.p50:.2f} did not recover to within "
        f"{REQUIRED_RECOVERY}x of the pre-update model's ({pre_update.p50:.2f})"
    )
    # The tail is dominated by a few near-zero-truth queries; require it
    # back in the pre-update ballpark.
    assert recovered.p90 <= TAIL_SLACK * pre_update.p90

    report = "\n".join(
        [
            f"adaptive serving ({TITLES} → {UPDATED_TITLES} titles, "
            f"{POOL_SIZE}-entry pool, {CLIENTS} clients{', smoke' if SMOKE else ''})",
            "",
            format_adaptation_table({"crn": evaluation}, title="adaptation episode"),
            "",
            f"holdout p50/p90: degraded {degraded.p50:.2f} / {degraded.p90:.2f} "
            f"(pre-update {pre_update.p50:.2f} / {pre_update.p90:.2f}, "
            f"recovered {recovered.p50:.2f} / {recovered.p90:.2f})",
            f"update → swap: {recovery_seconds:.1f}s with traffic flowing; "
            f"requests dropped: 0, failed: 0, timed out: 0; "
            f"model generation {pre_swap_generation} → {post_swap_generation}",
            "",
            format_service_stats(merged_stats, title="merged client stats"),
        ]
    )
    (results_dir / "adaptive_serving.txt").write_text(report + "\n")
    print(f"\n{report}\n")
