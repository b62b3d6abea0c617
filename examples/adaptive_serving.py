"""Adaptive serving: feedback → drift trigger → background retrain → hot swap.

Builds on the serving workflow (``examples/serving_workflow.py``) and closes
the Section 9 loop for a *live* service — now entirely through the unified
client API:

1. train a CRN and describe the whole deployment in one
   :class:`repro.serving.ServingConfig`, with the ``feedback`` and
   ``adaptation`` sections enabled (drift policy, retrain budgets, accept
   gate — all declarative);
2. ``with ServingClient(config) as client:`` starts the dispatcher *and* the
   background adaptation worker in order, and shuts both down cleanly;
3. serve healthy traffic, closing the loop with
   :meth:`~repro.serving.ServingClient.record_feedback` — the drift monitor
   freezes a baseline window;
4. apply a **database update** (the data triples): ground truth moves under
   the stale model, the rolling q-error degrades, the policy fires;
5. the worker retrains incrementally against the new snapshot, validates the
   candidate on the freshest feedback slice, and hot-swaps it — every
   post-swap :class:`repro.serving.EstimateResult` carries the bumped model
   generation, so responses are attributable to the exact model that
   produced them;
6. print the recovery and the one merged ``client.stats()`` snapshot.

Run with::

    python examples/adaptive_serving.py          # full demo
    REPRO_SMOKE=1 python examples/adaptive_serving.py   # CI-sized

"""

from __future__ import annotations

import os
import time

from repro.baselines import PostgresCardinalityEstimator
from repro.core import CRNConfig, QueriesPool, QueryFeaturizer, TrainingConfig, train_crn
from repro.datasets import (
    SyntheticIMDbConfig,
    build_queries_pool_queries,
    build_synthetic_imdb,
    build_training_pairs,
)
from repro.db import TrueCardinalityOracle
from repro.evaluation import (
    evaluate_adaptation,
    format_adaptation_table,
    format_service_stats,
)
from repro.serving import AdaptationConfig, FeedbackConfig, ServingClient, ServingConfig

SMOKE = os.environ.get("REPRO_SMOKE", "") == "1"
TITLES = 200 if SMOKE else 500
UPDATED_TITLES = 3 * TITLES
POOL_SIZE = 50 if SMOKE else 150
WORKLOAD_SIZE = 20 if SMOKE else 50
TRAIN_PAIRS = 80 if SMOKE else 400
TRAIN_EPOCHS = 3 if SMOKE else 10


def serve_and_record(client, workload, oracle):
    """One round of traffic: estimate every query, report the executed truth."""
    for labeled in workload:
        served = client.estimate(labeled.query)
        client.record_feedback(
            served, true_cardinality=float(oracle.cardinality(labeled.query))
        )


def main() -> None:
    # 1. Database, trained CRN, pool — then ONE config for the whole stack.
    database = build_synthetic_imdb(SyntheticIMDbConfig(num_titles=TITLES))
    oracle = TrueCardinalityOracle(database)
    featurizer = QueryFeaturizer(database)
    print("Training CRN ...")
    trained = train_crn(
        featurizer,
        build_training_pairs(database, count=TRAIN_PAIRS, oracle=oracle),
        crn_config=CRNConfig(hidden_size=32),
        training_config=TrainingConfig(epochs=TRAIN_EPOCHS, batch_size=64),
    )
    pool = QueriesPool.from_labeled_queries(
        build_queries_pool_queries(database, count=POOL_SIZE, oracle=oracle)
    )
    workload = build_queries_pool_queries(
        database, count=WORKLOAD_SIZE, seed=47, oracle=oracle
    )
    config = ServingConfig(
        model=trained.model,
        featurizer=featurizer,
        pool=pool,
        fallback_estimator=PostgresCardinalityEstimator(database),
        training_result=trained,
        database=database,
        feedback=FeedbackConfig(enabled=True, max_observations=4 * WORKLOAD_SIZE),
        adaptation=AdaptationConfig(
            enabled=True,
            quantile=0.5,            # watch the rolling median: the p90+ tail
                                     # is dominated by near-zero-truth queries
                                     # whose huge ratios swamp a real 3x shift
            max_q_error=None,        # no absolute bar -- compare vs ourselves
            degradation_ratio=1.5,   # fire at 1.5x the healthy baseline
            min_observations=WORKLOAD_SIZE // 2,
            cooldown_seconds=0.0,
            poll_interval_seconds=0.1,
            holdout_size=WORKLOAD_SIZE // 2,
            training_pairs=TRAIN_PAIRS,
            incremental_epochs=TRAIN_EPOCHS,
        ),
    )

    # 2. One context manager starts (and later drains) the whole stack.
    with ServingClient(config) as client:
        manager = client.manager  # the wired components stay reachable

        # 3. Healthy traffic: the monitor freezes its baseline window.
        print("\nServing healthy traffic ...")
        serve_and_record(client, workload, oracle)
        deadline = time.monotonic() + 30.0
        while not manager.monitor.baseline_frozen:
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"baseline never froze; worker error: {manager.last_error!r}"
                )
            time.sleep(0.05)
        pre_update = client.collector.summary()
        healthy = client.estimate(workload[0].query)
        print(
            f"baseline frozen: rolling p50/p90 q-error "
            f"{pre_update.p50:.2f} / {pre_update.p90:.2f} "
            f"(serving model generation {healthy.model_generation})"
        )

        # 4. The database update lands: 3x the data, same schema.
        print(f"\nApplying the database update ({TITLES} -> {UPDATED_TITLES} titles) ...")
        updated = build_synthetic_imdb(SyntheticIMDbConfig(num_titles=UPDATED_TITLES))
        updated_oracle = TrueCardinalityOracle(updated)
        client.manager.set_database(updated)

        # 5. Stale traffic degrades; the worker retrains and hot-swaps while
        #    the dispatcher keeps serving.
        degraded = pre_update
        deadline = time.monotonic() + 120.0
        while manager.stats.swaps < 1:
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"no hot swap within 120s; last outcome: {manager.last_outcome}, "
                    f"worker error: {manager.last_error!r}"
                )
            serve_and_record(client, workload, updated_oracle)
            window = client.collector.summary()
            if window.p50 > degraded.p50:
                degraded = window
            verdict = manager.monitor.evaluate()
            print(
                f"  rolling p50 {window.p50:8.2f}   "
                f"swaps {manager.stats.swaps}   "
                f"drifted: {verdict.triggered}"
            )
        print("hot swap completed; the service never stopped serving")

        # 6. Post-swap traffic: accuracy recovers, and every response now
        #    carries the new model generation.
        client.collector.clear()
        serve_and_record(client, workload, updated_oracle)
        recovered = client.collector.summary()
        post_swap = client.estimate(workload[0].query)
        print(
            f"\npost-swap responses stamped with model generation "
            f"{post_swap.model_generation} (was {healthy.model_generation}), "
            f"resolution {post_swap.resolution!r}"
        )
        print(
            format_adaptation_table(
                {"crn": evaluate_adaptation(manager, pre_update, degraded, recovered)},
                title="adaptation episode (rolling median q-error)",
            )
        )
        print()
        print(format_service_stats(client.stats(), title="merged client stats"))


if __name__ == "__main__":
    main()
