"""Serving throughput: batched cross-request inference vs the naive loop.

Serves a 200-query workload against a 500-entry queries pool two ways:

* **naive** -- a fresh, cache-less ``Cnt2CrdEstimator`` answering one request
  at a time (featurizing and encoding every matching pool query on every
  request), the way the paper's evaluation invokes the model;
* **served** -- a :class:`repro.serving.ServingClient` over a declarative
  :class:`repro.serving.ServingConfig`: featurization / encoding caches
  warmed with the pool, and all 200 requests planned into a few large
  deduplicated forward passes via ``estimate_many``.

The service time *includes* building and warming the caches, so the measured
speedup is end-to-end, and the served estimates must equal the naive ones
bit-for-bit (the CRN inference path is batch-composition invariant, see
:meth:`repro.core.crn.CRNModel.rates_from_encodings`).  The two are timed in
:data:`SPEEDUP_ROUNDS` alternating naive/served rounds, each served round on a
newly built client, and the gate reads the median of the per-round ratios:
one pair of timings (a 0.13-0.15 s naive pass against a 0.06-0.09 s served
one on 2 cores) reads the box's noise as often as the code.

A second comparison measures the **observability overhead**: the identical
warmed serving path with the structured event log on vs off.  The event
log's hot-path cost is one ``None`` test per batch when disabled and one
deque append per event when enabled, so the measured ratio must stay under
``MAX_OBSERVABILITY_OVERHEAD`` (< 5%) — asserted here, recorded as a
trajectory row, and gated in CI.  The ratio is taken on ONE warmed client,
alternating rounds with the recorder detached (``service.recorder = None``,
the exact disabled discipline) and attached — two separately-built clients
differ by a few percent from memory layout and cache state alone, which
would drown the effect being measured.

A third comparison adds **tracing**: per-request span trees with
tail-exemplar sampling (:class:`repro.serving.TracingConfig`,
``sample_every=8``).  Two separately-built clients differ by a few percent
from memory layout and cache state alone — below the effect being measured —
so the tracing ratio is taken on ONE warmed client, alternating rounds with
the tracer detached (``service.tracer = None``, the exact disabled
discipline) and attached.  The attached/detached ratio must stay under
``MAX_TRACING_OVERHEAD`` (< 5%), asserted here and gated in CI as the
``tracing_overhead`` row.
"""

from __future__ import annotations

import time

import numpy as np

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
from repro.serving import (
    ObservabilityConfig,
    ServingClient,
    ServingConfig,
    TracingConfig,
)

POOL_SIZE = 500
WORKLOAD_SIZE = 200
# 3x while the naive loop padded every request's pair head to a 256-row
# Tensor slab; the loop now runs the 16-row-tile array kernel and is 1.7x
# faster (486 -> 824 qps on 2 cores) while the served side is where it was
# (2738 -> 2747 qps), so the same stack measures 3.1-3.5x.
REQUIRED_SPEEDUP = 2.5
SPEEDUP_ROUNDS = 5  # alternating naive/served rounds; the gate reads their median ratio
MAX_OBSERVABILITY_OVERHEAD = 1.05  # event log must cost < 5% on the hot path
MAX_TRACING_OVERHEAD = 1.05  # sampled tracing must cost < 5% over observed
OVERHEAD_ROUNDS = 15  # min-of-N over interleaved rounds; N rides out CI noise


def overhead_ratio(on_timings: list[float], off_timings: list[float]) -> float:
    """Robust on/off cost ratio from alternating same-client rounds.

    Two consistent estimators of the steady-state ratio: best-vs-best
    (immune to load spikes, which never make a round *faster*) and the
    median of per-pair ratios (adjacent rounds share machine conditions,
    so a shifted floor inflates both sides of its pairs).  The gate takes
    the smaller — each estimator false-positives under a different noise
    mode, and under-reporting by a couple percent is acceptable for a
    regression gate pitched well above the instrumentation's true cost.
    """
    pairwise = sorted(on / off for on, off in zip(on_timings, off_timings))
    return min(
        min(on_timings) / min(off_timings), pairwise[len(pairwise) // 2]
    )


def measure_served_rounds(client, workload, rounds: int) -> list[float]:
    """Per-round wall time of ``estimate_many(workload)`` on a warm client."""
    timings = []
    for _ in range(rounds):
        start = time.perf_counter()
        client.estimate_many(workload)
        timings.append(time.perf_counter() - start)
        if client.recorder is not None:
            # Keep the bounded buffer from wrapping between rounds: the
            # measured path must stay append-only (never the overflow path).
            client.recorder.flush()
    return timings


def test_serving_throughput(results_dir, bench_record):
    database = build_synthetic_imdb(SyntheticIMDbConfig(num_titles=300, seed=11))
    oracle = TrueCardinalityOracle(database)
    featurizer = QueryFeaturizer(database)
    model = CRNModel(featurizer.vector_size, CRNConfig(hidden_size=64, seed=5))
    fallback = PostgresCardinalityEstimator(database)

    pool_entries = build_queries_pool_queries(
        database, count=POOL_SIZE + 40, seed=17, oracle=oracle
    )
    pool = QueriesPool.from_labeled_queries(pool_entries).subset(POOL_SIZE)
    assert len(pool) == POOL_SIZE
    workload = [
        labeled.query
        for labeled in build_queries_pool_queries(
            database, count=WORKLOAD_SIZE + 20, seed=23, oracle=oracle
        )
    ][:WORKLOAD_SIZE]
    assert len(workload) == WORKLOAD_SIZE

    naive_timings: list[float] = []
    served_timings: list[float] = []
    for _ in range(SPEEDUP_ROUNDS):
        # Naive per-request loop: no caches, one request at a time.
        naive = Cnt2CrdEstimator(CRNEstimator(model, featurizer), pool, fallback=fallback)
        naive_start = time.perf_counter()
        naive_estimates = [naive.estimate_cardinality(query) for query in workload]
        naive_timings.append(time.perf_counter() - naive_start)

        # Batched + cached client, measured end-to-end including cache warming.
        served_start = time.perf_counter()
        client = ServingClient(
            ServingConfig(
                model=model, featurizer=featurizer, pool=pool, fallback_estimator=fallback
            )
        )
        served = client.estimate_many(workload)
        served_timings.append(time.perf_counter() - served_start)

        served_estimates = [item.estimate for item in served]
        assert served_estimates == naive_estimates, (
            "batched+cached serving must be bit-for-bit identical to the naive loop"
        )
    ratios = [naive / served for naive, served in zip(naive_timings, served_timings)]
    speedup = float(np.median(ratios))
    naive_seconds = float(np.median(naive_timings))
    served_seconds = float(np.median(served_timings))
    assert speedup >= REQUIRED_SPEEDUP, (
        f"expected the service to be >= {REQUIRED_SPEEDUP}x faster than the naive "
        f"loop, measured a median of {speedup:.1f}x over {SPEEDUP_ROUNDS} rounds "
        f"({', '.join(f'{ratio:.2f}x' for ratio in ratios)}; medians "
        f"{naive_seconds:.2f}s vs {served_seconds:.2f}s)"
    )

    # Observability overhead: the same warmed path with the event log on vs
    # off.  Rounds interleave (plain, observed, plain, ...) so slow machine
    # drift hits both sides equally; min-of-N damps scheduler noise.
    observed_client = ServingClient(
        ServingConfig(
            model=model,
            featurizer=featurizer,
            pool=pool,
            fallback_estimator=fallback,
            observability=ObservabilityConfig(enabled=True, capacity=1 << 15),
        )
    )
    traced_client = ServingClient(
        ServingConfig(
            model=model,
            featurizer=featurizer,
            pool=pool,
            fallback_estimator=fallback,
            observability=ObservabilityConfig(enabled=True, capacity=1 << 15),
            tracing=TracingConfig(enabled=True, sample_every=8),
        )
    )
    client.estimate_many(workload)  # all warmed before the first timed round
    observed_client.estimate_many(workload)
    traced_client.estimate_many(workload)

    # Observability overhead on ONE client: alternate rounds with the
    # recorder detached (the disabled `recorder is None` discipline,
    # bit-identical code path) and attached.  Same object, same caches, same
    # memory — the only difference between the series is the event log.
    observed_service = observed_client.service
    observed_recorder = observed_service.recorder
    assert observed_recorder is not None
    plain_timings: list[float] = []
    observed_timings: list[float] = []
    for _ in range(OVERHEAD_ROUNDS):
        observed_service.recorder = None
        plain_timings += measure_served_rounds(observed_client, workload, 1)
        observed_service.recorder = observed_recorder
        observed_timings += measure_served_rounds(observed_client, workload, 1)
    overhead = overhead_ratio(observed_timings, plain_timings)
    assert observed_client.stats()["events_dropped"] == 0.0
    # Tracing disabled is the `tracer is None` hot path: the observed client
    # has no tracer at all, so its ratio vs plain already bounds the
    # disabled-tracing cost (one attribute test per call site, unmeasurable).
    assert observed_client.tracer is None
    assert overhead < MAX_OBSERVABILITY_OVERHEAD, (
        f"event-log instrumentation cost {overhead:.3f}x on the served path "
        f"(required < {MAX_OBSERVABILITY_OVERHEAD}x; "
        f"{min(observed_timings) * 1000:.2f}ms vs {min(plain_timings) * 1000:.2f}ms)"
    )

    # Tracing overhead on ONE client: alternate rounds with the tracer
    # detached (the disabled `tracer is None` discipline, bit-identical code
    # path) and attached.  Same object, same caches, same memory — the only
    # difference between the two timing series is the instrumentation.
    tracer = traced_client.tracer
    assert tracer is not None
    service = traced_client.service
    detached_timings: list[float] = []
    attached_timings: list[float] = []
    for _ in range(OVERHEAD_ROUNDS):
        service.tracer = None
        detached_timings += measure_served_rounds(traced_client, workload, 1)
        service.tracer = tracer
        attached_timings += measure_served_rounds(traced_client, workload, 1)
    tracing_overhead = overhead_ratio(attached_timings, detached_timings)
    traced_stats = traced_client.stats()
    assert traced_stats["traces_finished"] >= OVERHEAD_ROUNDS * WORKLOAD_SIZE
    assert traced_stats["events_dropped"] == 0.0
    assert tracing_overhead < MAX_TRACING_OVERHEAD, (
        f"tail-sampled tracing cost {tracing_overhead:.3f}x on the served path "
        f"(required < {MAX_TRACING_OVERHEAD}x; "
        f"{min(attached_timings) * 1000:.2f}ms vs "
        f"{min(detached_timings) * 1000:.2f}ms)"
    )

    # Named for its denominator: "served_speedup" rows had the naive loop on
    # 256-row Tensor slabs and are not comparable.
    bench_record(
        "serving",
        "bench_serving_throughput",
        "served_speedup_vs_kernel_naive",
        speedup,
        "x",
        True,
    )
    bench_record(
        "serving",
        "bench_serving_throughput",
        "served_throughput_qps",
        WORKLOAD_SIZE / served_seconds,
        "qps",
        True,
    )
    bench_record(
        "serving",
        "bench_serving_throughput",
        "naive_throughput_qps",
        WORKLOAD_SIZE / naive_seconds,
        "qps",
        True,
    )
    bench_record(
        "serving",
        "bench_serving_throughput",
        "observability_overhead",
        overhead,
        "x",
        False,
    )
    bench_record(
        "serving",
        "bench_serving_throughput",
        "tracing_overhead",
        tracing_overhead,
        "x",
        False,
    )

    report = "\n".join(
        [
            f"serving throughput ({WORKLOAD_SIZE} queries, {POOL_SIZE}-entry pool)",
            "",
            f"{'path':<22}{'median':>12}{'per query':>14}{'throughput':>14}",
            f"{'naive loop':<22}{naive_seconds:>11.2f}s"
            f"{naive_seconds / WORKLOAD_SIZE * 1000:>12.2f}ms"
            f"{WORKLOAD_SIZE / naive_seconds:>10.0f} qps",
            f"{'batched+cached':<22}{served_seconds:>11.2f}s"
            f"{served_seconds / WORKLOAD_SIZE * 1000:>12.2f}ms"
            f"{WORKLOAD_SIZE / served_seconds:>10.0f} qps",
            "",
            f"speedup: {speedup:.1f}x, median of {SPEEDUP_ROUNDS} alternating rounds "
            f"(required: >= {REQUIRED_SPEEDUP}x; per round "
            f"{', '.join(f'{ratio:.2f}x' for ratio in ratios)}), "
            "served estimates bit-for-bit identical",
            f"observability overhead: {overhead:.3f}x on the warmed served path "
            f"(required < {MAX_OBSERVABILITY_OVERHEAD}x)",
            f"tracing overhead (sample_every=8, tail exemplars): "
            f"{tracing_overhead:.3f}x, tracer attached vs detached on the "
            f"same warmed client (required < {MAX_TRACING_OVERHEAD}x)",
            "",
            format_service_stats(client.stats(), title="service stats"),
        ]
    )
    (results_dir / "serving_throughput.txt").write_text(report + "\n")
    print(f"\n{report}\n")
