"""Cold start from a versioned artifact vs retrain-from-scratch.

The artifact store exists so a serving process can restart without a
training run: the paper notes the CRN serialises to ~1.5 MB, so boot should
be an artifact load.  This benchmark measures exactly that trade and pins
the two promises the store makes:

1. **bit-identity** — a client booted with
   :meth:`repro.serving.ServingClient.from_artifact` serves estimates
   bit-for-bit identical to the client that produced the snapshot, across
   the whole workload.  Weights and the pool are *restored*; the
   featurization/encoding caches, the pool encoding index slabs, and the
   compiled inference plan are *rebuilt* — each a pure function of
   (weights, pool, schema), so the rebuilt stack computes the same bits.
2. **startup speedup** — booting from the artifact is at least ``10x``
   faster than the retrain-from-scratch path (training pair generation +
   ``train_crn`` + stack build) that a restart would otherwise pay.

Both runs build the *full* stack: warmed pool index and a compiled
float32 inference plan (recompiled from the restored weights on boot).
The headline ``cold_start_speedup`` row lands in ``BENCH_serving.json``
and is gated by ``scripts/bench_report.py check --only speedup`` in CI;
wall-clock rows ride along ungated (absolute timings are not comparable
across runners).

Smoke mode (``REPRO_SMOKE=1``, used by CI) shrinks the database, pool, and
training budget — the bit-identity and ≥10x assertions still run on every
push.
"""

from __future__ import annotations

import os
import time

from repro.baselines import PostgresCardinalityEstimator
from repro.core import CRNConfig, QueriesPool, QueryFeaturizer, TrainingConfig, train_crn
from repro.datasets import build_queries_pool_queries, build_training_pairs
from repro.datasets.imdb import SyntheticIMDbConfig, build_synthetic_imdb
from repro.db import TrueCardinalityOracle
from repro.serving import ArtifactConfig, InferenceConfig, ServingClient, ServingConfig

SMOKE = os.environ.get("REPRO_SMOKE", "") == "1"
TITLES = 200 if SMOKE else 500
POOL_SIZE = 50 if SMOKE else 150
WORKLOAD_SIZE = 20 if SMOKE else 60
# Smoke keeps the database and pool tiny but the training budget real-ish
# (a few hundred pairs, several epochs): the benchmark compares boot against
# the training run that actually produced the served model, and a degenerate
# 3-epoch run would understate what a restart pays.
TRAIN_PAIRS = 200 if SMOKE else 300
TRAIN_EPOCHS = 8 if SMOKE else 10
REQUIRED_SPEEDUP = 10.0


def _build_config(trained, featurizer, pool, database, root=None):
    return ServingConfig(
        model=trained.model,
        featurizer=featurizer,
        pool=pool,
        fallback_estimator=PostgresCardinalityEstimator(database),
        inference=InferenceConfig(mode="compiled", slab_dtype="float32"),
        artifacts=ArtifactConfig(root=str(root)) if root is not None else ArtifactConfig(),
    )


def test_cold_start(results_dir, bench_record, tmp_path):
    database = build_synthetic_imdb(SyntheticIMDbConfig(num_titles=TITLES, seed=3))
    oracle = TrueCardinalityOracle(database)
    featurizer = QueryFeaturizer(database)
    pool = QueriesPool.from_labeled_queries(
        build_queries_pool_queries(database, count=POOL_SIZE, seed=17, oracle=oracle)
    )
    workload = [
        item.query
        for item in build_queries_pool_queries(
            database, count=WORKLOAD_SIZE, seed=23, oracle=oracle
        )
    ]
    root = tmp_path / "artifacts"

    # --- the retrain-from-scratch startup a restart would otherwise pay ----
    # (also the run that produces the snapshot: the build save persists the
    # trained model as gen-1 and promotes it to `latest`).
    retrain_started = time.perf_counter()
    # A restarting process starts with nothing memoized: labeling the
    # training pairs pays full true-cardinality executions, exactly as the
    # original training run did.
    trained = train_crn(
        featurizer,
        build_training_pairs(
            database, count=TRAIN_PAIRS, seed=12,
            oracle=TrueCardinalityOracle(database),
        ),
        crn_config=CRNConfig(hidden_size=32, seed=2),
        training_config=TrainingConfig(epochs=TRAIN_EPOCHS, batch_size=64),
    )
    saver = ServingClient(_build_config(trained, featurizer, pool, database, root))
    retrain_seconds = time.perf_counter() - retrain_started
    expected = [saver.estimate(query).estimate for query in workload]
    assert saver.artifact_store.pointer()["generation"] == 1
    saver.shutdown()

    # --- the cold boot: load + verify + rebuild, no training ---------------
    boot_started = time.perf_counter()
    booted = ServingClient.from_artifact(
        root,
        database=database,
        fallback_estimator=PostgresCardinalityEstimator(database),
    )
    cold_start_seconds = time.perf_counter() - boot_started
    restored = [booted.estimate(query).estimate for query in workload]
    generation = booted.service.generation
    plan = getattr(booted.service.estimator.containment_estimator, "inference_plan", None)
    booted.shutdown()

    assert restored == expected, (
        "boot-from-artifact estimates are not bit-identical to the saving client"
    )
    assert generation == 1, "restored provenance lost the saved model generation"
    assert plan is not None, "the inference plan was not recompiled on boot"

    speedup = retrain_seconds / cold_start_seconds
    bench_record(
        "serving", "bench_cold_start", "retrain_startup_seconds",
        retrain_seconds, "s", False,
    )
    bench_record(
        "serving", "bench_cold_start", "cold_start_seconds",
        cold_start_seconds, "s", False,
    )
    bench_record(
        "serving", "bench_cold_start", "cold_start_speedup", speedup, "x", True
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"cold start took {cold_start_seconds:.2f}s vs {retrain_seconds:.2f}s "
        f"retrain — only {speedup:.1f}x, needs ≥{REQUIRED_SPEEDUP:.0f}x"
    )

    report = "\n".join(
        [
            f"cold start from artifact ({TITLES} titles, {POOL_SIZE}-entry pool"
            f"{', smoke' if SMOKE else ''})",
            "",
            f"retrain-from-scratch startup: {retrain_seconds:8.2f}s",
            f"boot from artifact (gen-1):   {cold_start_seconds:8.2f}s",
            f"startup speedup:              {speedup:8.1f}x  (gate: ≥{REQUIRED_SPEEDUP:.0f}x)",
            f"estimates bit-identical across {len(workload)}-query workload: yes",
        ]
    )
    (results_dir / "cold_start.txt").write_text(report + "\n")
    print(f"\n{report}\n")
