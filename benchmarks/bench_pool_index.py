"""Pool encoding index: vectorized whole-pool scoring vs the per-pair path.

The Cnt2Crd technique scores an incoming query against *every* matching pool
query, so per-request cost scales linearly with the matching bucket's size —
exactly the axis the paper's Table 14 pool-size sweep varies.  This benchmark
sweeps bucket-heavy pools (two FROM signatures, so the bucket size tracks the
pool size) and serves the same single-request workload two ways:

* **legacy** -- an :class:`repro.serving.EstimationService` around a bare
  :class:`repro.core.Cnt2CrdEstimator` (no pool index, so every slab is
  row-less) on the served estimator's featurization/encoding caches, warmed
  with every pool query by ``client.warm(pool queries)`` (the index warm
  fills only the slabs): every request still materializes ``2·E`` Python
  pair tuples, performs ``2·E`` dict-keyed cache lookups, and stacks ``2·E``
  encoding rows before the pair head runs;
* **indexed** -- the client's stack: per-signature contiguous encoding
  matrices (:class:`repro.serving.PoolEncodingIndex`), so a request is
  *encode Qnew once → two strided writes → the fixed-shape slab path*.

Both paths run the identical slab matmuls, so the estimates must be
**bit-for-bit identical** — asserted per request — and the win is the
removed per-pair Python/bookkeeping work, asserted as a ≥3× single-request
p50 speedup at pool sizes ≥ 2048.  Each pool size is timed in
:data:`REPETITIONS` alternating legacy/indexed rounds, and the gate reads the
median of the per-round ratios: one round's p50 ratio reads a box's noise
as often as the code.  A last column times the indexed client's
build at each size: what the pool costs at set-up, almost all of it the
warm that fills every bucket's slab (``warm_ms_pool_<largest>``, not gated).

Smoke mode (``REPRO_SMOKE=1``, used by CI) shrinks the sweep and skips the
timing requirement — the bit-identity assertions and the index machinery
still run on every push.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.core import (
    Cnt2CrdEstimator,
    CRNConfig,
    CRNEstimator,
    CRNModel,
    QueriesPool,
    QueryFeaturizer,
)
from repro.datasets.imdb import SyntheticIMDbConfig, build_synthetic_imdb
from repro.evaluation import format_service_stats
from repro.serving import EstimationService, ServingClient, ServingConfig
from repro.sql.builder import QueryBuilder

SMOKE = os.environ.get("REPRO_SMOKE", "") == "1"
POOL_SIZES = (64, 256) if SMOKE else (256, 1024, 2048, 4096)
REQUESTS = 10 if SMOKE else 25
REPETITIONS = 5  # alternating legacy/indexed rounds per pool size
REQUIRED_SPEEDUP = 3.0
SPEEDUP_AT_OR_ABOVE = 2048  # the acceptance bar applies to big pools


def build_bucket_heavy_pool(size: int) -> QueriesPool:
    """A pool whose entries concentrate on two FROM signatures.

    Distinct predicate grids over ``title`` (and ``title ⋈ movie_companies``)
    keep every query unique while the per-signature bucket grows with the
    pool — the regime where per-request scoring cost is dominated by the
    bucket size.  Cardinality labels are synthetic: the benchmark measures
    scoring cost and bit-identity, not estimation accuracy.
    """
    pool = QueriesPool()
    for index in range(size):
        low = 1900 + (index % 90)
        high = low + 1 + index // 90
        if index % 2 == 0:
            query = (
                QueryBuilder()
                .table("title", "t")
                .where("t.production_year", ">", low - 0.5)
                .where("t.production_year", "<", high + 0.5)
                .build()
            )
        else:
            query = (
                QueryBuilder()
                .table("title", "t")
                .table("movie_companies", "mc")
                .join("t.id", "mc.movie_id")
                .where("t.production_year", ">", low - 0.5)
                .where("t.production_year", "<", high + 0.5)
                .build()
            )
        pool.add(query, index % 997 + 1)
    return pool


def build_requests(count: int) -> list:
    """Request queries over the same signatures, disjoint from the pool grid."""
    requests = []
    for index in range(count):
        value = 1900 + (index * 7) % 95
        if index % 2 == 0:
            query = (
                QueryBuilder()
                .table("title", "t")
                .where("t.production_year", ">", value + 0.5)
                .build()
            )
        else:
            query = (
                QueryBuilder()
                .table("title", "t")
                .table("movie_companies", "mc")
                .join("t.id", "mc.movie_id")
                .where("t.production_year", "<", value + 0.5)
                .build()
            )
        requests.append(query)
    return requests


def serve_timed(estimate, requests) -> tuple[list[float], float]:
    """Serve each request alone; return (estimates, single-request p50 seconds)."""
    estimates: list[float] = []
    latencies: list[float] = []
    for query in requests:
        start = time.perf_counter()
        served = estimate(query)
        latencies.append(time.perf_counter() - start)
        estimates.append(served.estimate)
    return estimates, float(np.median(latencies))


def build_client(model, featurizer, pool) -> ServingClient:
    """An unstarted (synchronous-path) client over ``pool``."""
    return ServingClient(ServingConfig(model=model, featurizer=featurizer, pool=pool))


def build_baseline(client: ServingClient) -> EstimationService:
    """A service around a bare estimator sharing the caches of ``client``'s
    served estimator, warmed with every pool query so its per-pair lookups
    all hit."""
    client.warm([entry.query for entry in client.config.pool])
    served = client.stack.estimator.containment_estimator
    crn = CRNEstimator(
        client.config.model,
        served.featurizer,
        encoding_cache=served.encoding_cache,
    )
    return EstimationService(Cnt2CrdEstimator(crn, client.config.pool))


def test_pool_index_speedup_and_bit_identity(results_dir, bench_record):
    database = build_synthetic_imdb(SyntheticIMDbConfig(num_titles=300, seed=11))
    featurizer = QueryFeaturizer(database)
    model = CRNModel(featurizer.vector_size, CRNConfig(hidden_size=32, seed=5))
    requests = build_requests(REQUESTS)

    rows = []
    last_indexed_client = None
    for size in POOL_SIZES:
        pool = build_bucket_heavy_pool(size)
        started = time.perf_counter()
        indexed = build_client(model, featurizer, pool)  # includes the pool warm
        warm = time.perf_counter() - started
        legacy = build_baseline(indexed)
        last_indexed_client = indexed

        legacy_p50s, indexed_p50s = [], []
        for _ in range(REPETITIONS):
            legacy_estimates, legacy_p50 = serve_timed(legacy.submit, requests)
            indexed_estimates, indexed_p50 = serve_timed(indexed.estimate, requests)
            assert indexed_estimates == legacy_estimates, (
                f"indexed estimates diverged from the per-pair path at pool size {size}"
            )
            legacy_p50s.append(legacy_p50)
            indexed_p50s.append(indexed_p50)
        ratios = [
            legacy / indexed if indexed > 0 else float("inf")
            for legacy, indexed in zip(legacy_p50s, indexed_p50s)
        ]
        resolutions = {item.resolution for item in indexed.estimate_many(requests)}
        assert resolutions == {"indexed_slab"}, (
            f"indexed requests must resolve from the slab path, got {resolutions}"
        )
        index_stats = indexed.stats()
        assert index_stats["pool_index_served"] >= len(requests), (
            "the indexed client did not resolve its requests from its index"
        )

        speedup = float(np.median(ratios))
        legacy_p50, indexed_p50 = float(np.median(legacy_p50s)), float(np.median(indexed_p50s))
        rows.append((size, legacy_p50, indexed_p50, speedup, warm))
        if not SMOKE and size >= SPEEDUP_AT_OR_ABOVE:
            assert speedup >= REQUIRED_SPEEDUP, (
                f"expected the indexed path to be >= {REQUIRED_SPEEDUP:.0f}x faster "
                f"at pool size {size}, measured a median of {speedup:.1f}x over "
                f"{REPETITIONS} rounds ({', '.join(f'{r:.1f}x' for r in ratios)})"
            )

    # The largest sweep point is the headline row: that is the regime the
    # index exists for (and the one the acceptance bar applies to).
    largest = rows[-1]
    bench_record(
        "serving",
        "bench_pool_index",
        f"p50_speedup_pool_{largest[0]}",
        largest[3],
        "x",
        True,
    )
    bench_record(
        "serving",
        "bench_pool_index",
        f"indexed_p50_ms_pool_{largest[0]}",
        largest[2] * 1000.0,
        "ms",
        False,
    )
    # The ratio's other side, so a moved ratio says which side moved.
    bench_record(
        "serving",
        "bench_pool_index",
        f"legacy_p50_ms_pool_{largest[0]}",
        largest[1] * 1000.0,
        "ms",
        False,
    )
    # What the pool costs at set-up: the client build, which warms every
    # bucket's slab (one bulk encode per slot).  Not gated: one run's
    # wall time, not a ratio.
    bench_record(
        "serving",
        "bench_pool_index",
        f"warm_ms_pool_{largest[0]}",
        largest[4] * 1000.0,
        "ms",
        False,
    )

    header = (
        f"{'pool size':>10}{'legacy p50':>14}{'indexed p50':>14}{'speedup':>10}"
        f"{'client build':>15}"
    )
    table = [header] + [
        f"{size:>10}{legacy * 1000:>12.2f}ms{indexed * 1000:>12.2f}ms{speedup:>9.1f}x"
        f"{warm * 1000:>13.1f}ms"
        for size, legacy, indexed, speedup, warm in rows
    ]
    report = "\n".join(
        [
            f"pool encoding index, single-request p50 over {REQUESTS} requests "
            f"(median of {REPETITIONS} alternating rounds; speedup: median "
            "per-round ratio), and the client build that warms the index"
            + (" (smoke)" if SMOKE else ""),
            "",
            *table,
            "",
            f"bit-for-bit identical at every size; requirement: >= "
            f"{REQUIRED_SPEEDUP:.0f}x at pool size >= {SPEEDUP_AT_OR_ABOVE}"
            + (" (timing not enforced in smoke mode)" if SMOKE else ""),
            "",
            format_service_stats(
                last_indexed_client.stats(), title="indexed client stats"
            ),
        ]
    )
    (results_dir / "pool_index.txt").write_text(report + "\n")
    print(f"\n{report}\n")
