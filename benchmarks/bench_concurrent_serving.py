"""Concurrent serving: the request-coalescing dispatcher vs per-thread loops.

Drives ``THREADS`` client threads, each submitting its share of the workload,
two ways:

* **naive** -- every thread runs its own per-request loop over a fresh,
  cache-less ``Cnt2CrdEstimator`` (each request featurizes and encodes every
  matching pool query), the way independent callers would invoke the model;
* **coalesced** -- every thread submits to one shared
  :class:`repro.serving.ServingDispatcher`, whose single dispatcher thread
  drains the queue and funnels everyone's requests through the
  :class:`repro.serving.EstimationService`'s batched, cached path.

The dispatcher time *includes* building and warming the service, so the
measured speedup is end-to-end.  Estimates must stay bit-for-bit identical
to the sequential ``submit`` path: coalescing across threads reuses the same
batch-composition-invariant inference the single-caller path uses.

Smoke mode (``REPRO_SMOKE=1``, used by CI) shrinks the workload and skips the
timing requirement — the bit-identity and no-lost-response assertions still
run, so the concurrency machinery is exercised on every push.
"""

from __future__ import annotations

import os
import threading
import time

from repro.baselines import PostgresCardinalityEstimator
from repro.core import (
    Cnt2CrdEstimator,
    CRNConfig,
    CRNEstimator,
    CRNModel,
    QueriesPool,
    QueryFeaturizer,
)
from repro.datasets import build_queries_pool_queries
from repro.datasets.imdb import SyntheticIMDbConfig, build_synthetic_imdb
from repro.db import TrueCardinalityOracle
from repro.evaluation import format_service_stats
from repro.serving import DispatcherConfig, ServingClient, ServingConfig

SMOKE = os.environ.get("REPRO_SMOKE", "") == "1"
THREADS = 4 if SMOKE else 8
POOL_SIZE = 100 if SMOKE else 300
REQUESTS_PER_THREAD = 6 if SMOKE else 25
REQUIRED_SPEEDUP = 2.0


def run_threads(worker, shares):
    threads = [
        threading.Thread(target=worker, args=(index, share))
        for index, share in enumerate(shares)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start


def test_concurrent_serving(results_dir, bench_record):
    database = build_synthetic_imdb(SyntheticIMDbConfig(num_titles=300, seed=11))
    oracle = TrueCardinalityOracle(database)
    featurizer = QueryFeaturizer(database)
    model = CRNModel(featurizer.vector_size, CRNConfig(hidden_size=64, seed=5))
    fallback = PostgresCardinalityEstimator(database)

    pool_entries = build_queries_pool_queries(
        database, count=POOL_SIZE + 40, seed=17, oracle=oracle
    )
    pool = QueriesPool.from_labeled_queries(pool_entries).subset(POOL_SIZE)
    workload = [
        labeled.query
        for labeled in build_queries_pool_queries(
            database, count=THREADS * REQUESTS_PER_THREAD + 20, seed=23, oracle=oracle
        )
    ][: THREADS * REQUESTS_PER_THREAD]
    total = len(workload)
    assert total == THREADS * REQUESTS_PER_THREAD
    shares = [workload[i::THREADS] for i in range(THREADS)]

    # The reference answers: a sequential, one-request-at-a-time client
    # (no dispatcher — the synchronous path).
    reference = ServingClient(
        ServingConfig(
            model=model,
            featurizer=featurizer,
            pool=pool,
            fallback_estimator=fallback,
            dispatcher=DispatcherConfig(enabled=False),
        )
    )
    sequential = {query: reference.estimate(query).estimate for query in workload}

    # Naive: each thread loops over its share with cache-less per-request
    # estimation (shared model weights are read-only, so this is safe).
    naive = Cnt2CrdEstimator(CRNEstimator(model, featurizer), pool, fallback=fallback)
    naive_results: dict[int, list[float]] = {}

    def naive_worker(index, share):
        naive_results[index] = [naive.estimate_cardinality(query) for query in share]

    naive_seconds = run_threads(naive_worker, shares)

    # Coalesced: one client with its dispatcher; timing includes build + warm.
    coalesced_results: dict[int, list] = {}
    coalesced_start = time.perf_counter()
    with ServingClient(
        ServingConfig(
            model=model,
            featurizer=featurizer,
            pool=pool,
            fallback_estimator=fallback,
            dispatcher=DispatcherConfig(enabled=True, max_batch=64),
        )
    ) as client:

        def coalesced_worker(index, share):
            futures = [client.estimate_future(query) for query in share]
            coalesced_results[index] = [future.result() for future in futures]

        threaded_seconds = run_threads(coalesced_worker, shares)
    coalesced_seconds = time.perf_counter() - coalesced_start
    dispatcher = client.dispatcher

    # No lost or duplicated responses, and bit-identity with the sequential
    # path — for the naive loops too (batch-composition invariance).
    assert sum(len(items) for items in coalesced_results.values()) == total
    for index, share in enumerate(shares):
        assert naive_results[index] == [sequential[query] for query in share]
        assert [item.estimate for item in coalesced_results[index]] == [
            sequential[query] for query in share
        ], "coalesced serving must be bit-for-bit identical to sequential submits"
    assert dispatcher.stats.completed == total
    assert dispatcher.stats.failed == 0

    speedup = naive_seconds / coalesced_seconds
    # Named for its denominator: "coalesced_speedup" rows had the naive loops
    # on 256-row Tensor slabs and are not comparable.
    bench_record(
        "serving",
        "bench_concurrent_serving",
        "coalesced_speedup_vs_kernel_naive",
        speedup,
        "x",
        True,
    )
    bench_record(
        "serving",
        "bench_concurrent_serving",
        "coalesced_throughput_qps",
        total / coalesced_seconds,
        "qps",
        True,
    )
    # The ratio's other side, so a moved ratio says which side moved.
    bench_record(
        "serving",
        "bench_concurrent_serving",
        "naive_throughput_qps",
        total / naive_seconds,
        "qps",
        True,
    )
    if not SMOKE:
        assert speedup >= REQUIRED_SPEEDUP, (
            f"expected the coalescing dispatcher to be >= {REQUIRED_SPEEDUP}x faster "
            f"than {THREADS} naive per-thread loops, measured {speedup:.1f}x "
            f"({naive_seconds:.2f}s vs {coalesced_seconds:.2f}s)"
        )

    report = "\n".join(
        [
            f"concurrent serving ({THREADS} threads x {REQUESTS_PER_THREAD} requests, "
            f"{POOL_SIZE}-entry pool{', smoke' if SMOKE else ''})",
            "",
            f"{'path':<26}{'total':>12}{'per request':>14}{'throughput':>14}",
            f"{'naive per-thread loops':<26}{naive_seconds:>11.2f}s"
            f"{naive_seconds / total * 1000:>12.2f}ms"
            f"{total / naive_seconds:>10.0f} qps",
            f"{'coalescing dispatcher':<26}{coalesced_seconds:>11.2f}s"
            f"{coalesced_seconds / total * 1000:>12.2f}ms"
            f"{total / coalesced_seconds:>10.0f} qps",
            "",
            f"speedup: {speedup:.1f}x (required: >= {REQUIRED_SPEEDUP:.0f}x at "
            f"{THREADS} threads), estimates bit-identical across all paths",
            f"(dispatch window inside the run: {threaded_seconds:.2f}s)",
            "",
            format_service_stats(client.stats(), title="merged client stats"),
        ]
    )
    (results_dir / "concurrent_serving.txt").write_text(report + "\n")
    print(f"\n{report}\n")
