"""Sharded cluster serving: workers, the blocking router, and one client API.

Builds on the serving workflow (``examples/serving_workflow.py``) and moves
it across process boundaries.  A :class:`repro.serving.ServingConfig` with a
``cluster`` section describes a whole serving *cluster*: N forked worker
processes, each owning the pool slice for its FROM-signatures, behind a
router that sends every request to the shard that can answer it as one
blocking socket exchange on the calling thread.
Because Cnt2Crd only ever scores a query against same-FROM-signature pool
entries, the split is exact — the cluster's estimates are **bit-identical**
to a single process serving the same model.

The demo:

1. trains a CRN, builds the queries pool, and saves both into a versioned
   artifact store (promoted generation 1) — workers cold-boot from the
   store, exactly how a restarted worker would after a crash;
2. serves the same workload through a single-process client and through a
   2-worker cluster, and verifies the estimates agree bit-for-bit;
3. shows cluster operations: supervisor status (who owns which signatures,
   pids, generations), draining one shard (typed refusals while its
   neighbour keeps serving), and restarting it;
4. prints the merged ``client.stats()`` — router, supervisor, and event
   store gauges in one snapshot.

While the cluster is up it maintains a runtime file
(``<runtime_dir>/cluster.json``) that ``scripts/cluster_tool.py`` reads, so
``python scripts/cluster_tool.py status <runtime_dir>`` works against this
very process from another terminal.

Run with::

    python examples/cluster_serving.py          # full demo
    REPRO_SMOKE=1 python examples/cluster_serving.py   # CI-sized

"""

from __future__ import annotations

import os
import tempfile

from repro.baselines import PostgresCardinalityEstimator
from repro.core import CRNConfig, QueriesPool, QueryFeaturizer, TrainingConfig, train_crn
from repro.datasets import (
    SyntheticIMDbConfig,
    build_queries_pool_queries,
    build_synthetic_imdb,
    build_training_pairs,
)
from repro.db import TrueCardinalityOracle
from repro.evaluation import format_service_stats
from repro.serving import (
    ClusterConfig,
    ServingClient,
    ServingConfig,
    WorkerUnavailableError,
)
from repro.serving.config import ArtifactConfig, ObservabilityConfig

SMOKE = os.environ.get("REPRO_SMOKE", "") == "1"
TITLES = 200 if SMOKE else 500
POOL_SIZE = 50 if SMOKE else 150
WORKLOAD_SIZE = 20 if SMOKE else 50
TRAIN_PAIRS = 80 if SMOKE else 400
TRAIN_EPOCHS = 3 if SMOKE else 10
NUM_WORKERS = 2


def main() -> None:
    # 1. Database, trained CRN, pool — the same front half as every other
    #    serving example.
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
    workload = [
        item.query
        for item in build_queries_pool_queries(
            database, count=WORKLOAD_SIZE, seed=47, oracle=oracle
        )
    ]

    with tempfile.TemporaryDirectory(prefix="repro-cluster-") as scratch:
        artifact_root = os.path.join(scratch, "artifacts")
        runtime_dir = os.path.join(scratch, "runtime")
        config = ServingConfig(
            model=trained.model,
            featurizer=featurizer,
            pool=pool,
            fallback_estimator=PostgresCardinalityEstimator(database),
            training_result=trained,
            database=database,
            # The build publishes generation 1 before any worker forks; each
            # worker then cold-boots its shard from this store.
            artifacts=ArtifactConfig(root=artifact_root),
            observability=ObservabilityConfig(
                enabled=True,
                sqlite_path=os.path.join(scratch, "events.sqlite"),
                source="front-end",
            ),
            cluster=ClusterConfig(
                mode="cluster", num_workers=NUM_WORKERS, runtime_dir=runtime_dir
            ),
        )

        # 2. Identity: one process vs the sharded cluster, bit for bit.
        print(f"\nServing {len(workload)} queries in a single process ...")
        local_config = ServingConfig(
            model=trained.model,
            featurizer=featurizer,
            pool=pool,
            fallback_estimator=PostgresCardinalityEstimator(database),
            training_result=trained,
            database=database,
        )
        local = ServingClient(local_config)
        expected = [local.estimate(query).estimate for query in workload]
        local.shutdown()

        print(f"Booting a {NUM_WORKERS}-worker cluster from {artifact_root} ...")
        with ServingClient(config) as client:
            results = client.estimate_many(workload)
            sharded = [result.estimate for result in results]
            assert sharded == expected, "cluster diverged from the local client"
            print(
                f"cluster answers are bit-identical to the local client "
                f"({len(workload)} queries, model generation "
                f"{results[0].model_generation})"
            )

            # 3. Operations: status, drain, restart.
            status = client.supervisor.status()
            print(
                f"\ncluster status: {status['num_workers']} workers over "
                f"{status['signatures']} FROM-signatures"
            )
            for worker in status["workers"]:
                print(
                    f"  shard {worker['shard']}: {worker['state']:>7}  "
                    f"pid {worker['pid']}  gen {worker['generation']}  "
                    f"{worker['signatures']} FROM-signature(s)"
                )
            print(
                f"runtime file for cluster_tool.py: "
                f"{os.path.join(runtime_dir, 'cluster.json')}"
            )

            drained_shard = 0
            victim = next(
                q for q in workload if client.router.shard_for(q) == drained_shard
            )
            survivor = next(
                q for q in workload if client.router.shard_for(q) != drained_shard
            )
            print(f"\nDraining shard {drained_shard} ...")
            client.supervisor.drain(drained_shard)
            try:
                client.estimate(victim)
            except WorkerUnavailableError as error:
                print(f"  drained shard refuses, typed: {error}")
            check = client.estimate(survivor)
            print(
                f"  neighbour shard still serves: estimate "
                f"{check.estimate:.1f} via {check.estimator_name!r}"
            )
            print(f"Restarting shard {drained_shard} ...")
            client.supervisor.restart(drained_shard)
            back = client.estimate(victim)
            index = workload.index(victim)
            assert back.estimate == expected[index], "restart changed the bits"
            print(
                f"  shard {drained_shard} is back and bit-identical "
                f"(generation {back.model_generation})"
            )

            # 4. One merged stats snapshot: router + supervisor + events.
            print()
            print(format_service_stats(client.stats(), title="merged cluster stats"))


if __name__ == "__main__":
    main()
