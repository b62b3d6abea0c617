"""Serving workflow: the unified serving client over a trained CRN.

Builds on the quickstart pipeline (database → training pairs → CRN → queries
pool) and industrializes the last step through the one-handle client API:

1. describe the deployment declaratively with a
   :class:`repro.serving.ServingConfig` (estimator, caches, dispatcher
   sections) and round-trip it through a plain dict to show configs are
   data;
2. run it with :class:`repro.serving.ServingClient` — one object owning the
   service, the caches, the pool encoding index, and the request-coalescing
   dispatcher;
3. serve a burst with ``estimate_many``, inspect the provenance every
   :class:`repro.serving.EstimateResult` carries (resolution path, model
   generation, cache hits), and show the batched path did not change a
   single bit of any estimate;
4. use per-request :class:`repro.serving.RequestOptions` to tag requests;
5. compare the served estimator's q-errors on the labelled workload with
   Improved PostgreSQL (the paper's Section 8), scored offline;
6. serve the same traffic from many client *threads* (``estimate_future``),
   hot-swap the served estimator mid-traffic — the bumped model generation
   shows up in the responses — and print the one merged ``stats()``
   snapshot.

Run with::

    python examples/serving_workflow.py          # full demo
    REPRO_SMOKE=1 python examples/serving_workflow.py   # CI-sized

"""

from __future__ import annotations

import os
import threading

import numpy as np

from repro.baselines import PostgresCardinalityEstimator
from repro.core import (
    Cnt2CrdEstimator,
    CRNConfig,
    CRNEstimator,
    QueriesPool,
    QueryFeaturizer,
    TrainingConfig,
    improve,
    q_errors,
    train_crn,
)
from repro.datasets import (
    SyntheticIMDbConfig,
    build_queries_pool_queries,
    build_synthetic_imdb,
    build_training_pairs,
)
from repro.db import TrueCardinalityOracle
from repro.evaluation import format_service_stats
from repro.serving import RequestOptions, ServingClient, ServingConfig
from repro.serving.stack import wire_estimator

SMOKE = os.environ.get("REPRO_SMOKE", "") == "1"
TITLES = 300 if SMOKE else 1000
TRAIN_PAIRS = 200 if SMOKE else 1500
TRAIN_EPOCHS = 3 if SMOKE else 15
POOL_SIZE = 80 if SMOKE else 300
WORKLOAD_SIZE = 30 if SMOKE else 100


def main() -> None:
    # 1. Database, training corpus, trained CRN (as in examples/quickstart.py).
    database = build_synthetic_imdb(SyntheticIMDbConfig(num_titles=TITLES))
    oracle = TrueCardinalityOracle(database)
    featurizer = QueryFeaturizer(database)
    print("Training CRN ...")
    pairs = build_training_pairs(database, count=TRAIN_PAIRS, oracle=oracle)
    result = train_crn(
        featurizer,
        pairs,
        crn_config=CRNConfig(hidden_size=64),
        training_config=TrainingConfig(epochs=TRAIN_EPOCHS, batch_size=64),
    )

    # 2. The queries pool and the declarative deployment description.
    print("Building the queries pool and the serving config ...")
    pool = QueriesPool.from_labeled_queries(
        build_queries_pool_queries(database, count=POOL_SIZE, oracle=oracle)
    )
    postgres = PostgresCardinalityEstimator(database)
    config = ServingConfig(
        model=result.model,
        featurizer=featurizer,
        pool=pool,
        fallback_estimator=postgres,
    )
    # Configs are data: the declarative sections round-trip through a plain
    # dict (JSON-ready) and re-attach the runtime objects on the way back.
    rebuilt = ServingConfig.from_mapping(
        config.to_mapping(),
        model=result.model,
        featurizer=featurizer,
        pool=pool,
        fallback_estimator=postgres,
    )
    assert rebuilt == config
    print(f"config sections: {sorted(config.to_mapping())}")

    workload = build_queries_pool_queries(database, count=WORKLOAD_SIZE, seed=47, oracle=oracle)
    queries = [labeled.query for labeled in workload]

    # 3. One client handle over the whole stack.
    with ServingClient(config) as client:
        served = client.estimate_many(queries)

        # The batched path is exact: compare against a cache-less loop.
        naive = Cnt2CrdEstimator(
            CRNEstimator(result.model, featurizer), pool, fallback=postgres
        )
        naive_estimates = [naive.estimate_cardinality(query) for query in queries]
        identical = [item.estimate for item in served] == naive_estimates
        print(
            f"\nserved {len(served)} requests; bit-identical to the naive loop: {identical}"
        )

        # Every result carries provenance: how it was produced, by which
        # model generation, and how much came out of the shared caches.
        sample = served[0]
        print(
            f"sample request: {sample.query}\n"
            f"  estimate {sample.estimate:,.0f} via {sample.estimator_name!r} "
            f"(resolution {sample.resolution!r}, model generation "
            f"{sample.model_generation}, {sample.encoding_cache_hits} encoding "
            f"cache hits in its batch)"
        )

        # 4. Per-request options: caller tags, echoed on the result.
        tagged = client.estimate(queries[0], RequestOptions(tags={"tenant": "demo"}))
        print(
            f"per-request options: served by {tagged.estimator_name!r} "
            f"(resolution {tagged.resolution!r}) tags={dict(tagged.tags)}"
        )

        # 5. Accuracy on the workload's queries with predicates (a
        #    predicate-free frame query is a pool entry itself): the served
        #    estimator, and Improved PostgreSQL scored offline.
        scored = [labeled for labeled in workload if labeled.query.predicates]
        scored_queries = [labeled.query for labeled in scored]
        truths = [labeled.cardinality for labeled in scored]
        burst = client.estimate_many(scored_queries)
        improved = improve(postgres, pool)
        rows = {
            "crn (served)": [item.estimate for item in burst],
            "improved-postgres (offline)": improved.estimate_cardinalities(scored_queries),
        }
        for name, estimates in rows.items():
            errors = q_errors(estimates, truths, epsilon=1.0)
            print(f"{name}: median q-error {np.median(errors):.2f} over {len(scored)} queries")
        print(f"served fallbacks: {sum(item.used_fallback for item in burst)}")

        # 6. Concurrent clients: many threads submit dispatcher-backed
        #    futures; a hot swap mid-traffic re-routes new requests without
        #    dropping in-flight ones — and bumps the model generation every
        #    response carries.
        print("\nServing from 8 client threads through the dispatcher ...")

        def client_thread(share):
            for future in [client.estimate_future(query) for query in share]:
                future.result()

        threads = [
            threading.Thread(target=client_thread, args=(queries[i::8],))
            for i in range(8)
        ]
        for thread in threads:
            thread.start()
        # Zero-downtime update while the clients are submitting: in-flight
        # requests finish on the old estimator object, new ones see the
        # replacement (and its bumped generation).  A retrained model is
        # wired and warmed the same way; this one rewires the same weights,
        # so its estimates keep their bits.
        replacement = wire_estimator(config, result.model, featurizer, pool)
        replacement.pool_index.warm()
        client.service.replace(replacement)
        for thread in threads:
            thread.join()
        swapped = client.estimate(queries[0])
        print(
            f"post-swap request: estimate {swapped.estimate:,.0f}, model generation "
            f"{swapped.model_generation} (was {tagged.model_generation}), "
            f"identical to the pre-swap estimate: {swapped.estimate == served[0].estimate}"
        )
        coalesced = client.estimate(queries[0])
        print(
            f"coalesced request: estimate {coalesced.estimate:,.0f}, "
            f"identical to batched path: {coalesced.estimate == served[0].estimate}"
        )
        print()
        print(format_service_stats(client.stats(), title="merged client stats"))


if __name__ == "__main__":
    main()
