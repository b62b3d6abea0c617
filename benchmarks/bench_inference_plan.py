"""Compiled inference plans: frozen float32 weights and the fused slab kernel.

Both inference modes run the pair head through array kernels — no
``Tensor`` objects on any serving path.  ``reference`` mode runs
:func:`repro.core.crn.pair_head` (NumPy/BLAS calls over preallocated
scratch, rows in fixed 16-row tiles) on the model's live float64 weights
over float64 index slabs; an :class:`repro.serving.InferencePlan` runs on
frozen float32 copies, reading the index's feature-major float32 slabs
through a fused slab kernel that folds the request's query into its
first-layer weight: one GEMM per direction, nothing cached per slab.  Both
modes encode queries on the live model.

This benchmark serves the identical bucket-heavy single-request workload as
``bench_pool_index.py`` through two otherwise-identical indexed clients:

* **reference** -- ``InferenceConfig(mode="reference")``: the float64 kernel
  on live weights, the default and the baseline the acceptance bar is
  measured against;
* **compiled f32** -- ``mode="compiled", slab_dtype="float32"``: float32
  slabs plus the fused slab kernel, within ``F32_TOLERANCE`` of the
  reference estimates (asserted per request).

The acceptance bar: the compiled float32 client's single-request p50 must be
**>= 2.5x** faster than the reference client at pool sizes >= 2048.  The bar
was 3x against the ``Tensor``-path reference; that reference is gone, and a
full-profile run on 2 cores measures 3.1-4.2x against the kernel reference
(six runs; the float32 side did not move), so the bar is restated below the
measured floor.  The speedup series is recorded as
``compiled_p50_speedup_vs_kernel_pool_<N>`` — a new name, because its
denominator changed meaning — beside both sides' absolute p50.

Smoke mode (``REPRO_SMOKE=1``, used by CI) shrinks the sweep and skips the
timing requirement — the tolerance assertions and the whole compile-and-
serve machinery still run on every push.
"""

from __future__ import annotations

import os
import time

from bench_pool_index import build_bucket_heavy_pool, build_requests, serve_timed
from repro.core import CRNConfig, CRNModel, QueryFeaturizer
from repro.datasets.imdb import SyntheticIMDbConfig, build_synthetic_imdb
from repro.serving import InferenceConfig, PoolConfig, ServingClient, ServingConfig

SMOKE = os.environ.get("REPRO_SMOKE", "") == "1"
POOL_SIZES = (64, 256) if SMOKE else (256, 1024, 2048, 4096)
REQUESTS = 10 if SMOKE else 25
HIDDEN_SIZE = 64  # closer to the paper's H=512 than the index bench's 32
REQUIRED_SPEEDUP = 2.5
SPEEDUP_AT_OR_ABOVE = 2048  # the acceptance bar applies to big pools
F32_TOLERANCE = 1e-3


def build_client(model, featurizer, pool, inference: InferenceConfig) -> ServingClient:
    """An unstarted (synchronous-path) indexed client over ``pool``."""
    return ServingClient(
        ServingConfig(
            model=model,
            featurizer=featurizer,
            pool=pool,
            pool_options=PoolConfig(warm=True),
            inference=inference,
        )
    )


def max_q_error(estimates, reference) -> float:
    """The worst multiplicative ratio between two estimate lists."""
    worst = 1.0
    for value, base in zip(estimates, reference):
        lo, hi = sorted((max(value, 1e-12), max(base, 1e-12)))
        worst = max(worst, hi / lo)
    return worst


def test_inference_plan_speedup_and_identity(results_dir, bench_record):
    database = build_synthetic_imdb(SyntheticIMDbConfig(num_titles=300, seed=11))
    featurizer = QueryFeaturizer(database)
    model = CRNModel(featurizer.vector_size, CRNConfig(hidden_size=HIDDEN_SIZE, seed=5))
    requests = build_requests(REQUESTS)

    rows = []
    for size in POOL_SIZES:
        pool = build_bucket_heavy_pool(size)
        reference = build_client(
            model, featurizer, pool, InferenceConfig(mode="reference")
        )
        compiled_f32 = build_client(
            model,
            featurizer,
            pool,
            InferenceConfig(mode="compiled", slab_dtype="float32"),
        )

        reference_estimates, reference_p50 = serve_timed(reference.estimate, requests)
        f32_estimates, f32_p50 = serve_timed(compiled_f32.estimate, requests)

        worst = max_q_error(f32_estimates, reference_estimates)
        assert worst <= 1.0 + F32_TOLERANCE, (
            f"compiled float32 estimates exceeded the q-error tolerance at "
            f"pool size {size}: worst ratio {worst:.6f}"
        )
        resolutions = {item.resolution for item in compiled_f32.estimate_many(requests)}
        assert resolutions == {"indexed_slab"}, (
            f"compiled requests must resolve from the slab path, got {resolutions}"
        )

        speedup = reference_p50 / f32_p50 if f32_p50 > 0 else float("inf")
        rows.append((size, reference_p50, f32_p50, speedup, worst))
        if not SMOKE and size >= SPEEDUP_AT_OR_ABOVE:
            assert speedup >= REQUIRED_SPEEDUP, (
                f"expected the compiled float32 plan to be >= "
                f"{REQUIRED_SPEEDUP}x faster than the reference indexed "
                f"path at pool size {size}, measured {speedup:.1f}x "
                f"({reference_p50 * 1000:.2f}ms vs {f32_p50 * 1000:.2f}ms)"
            )

    # The largest sweep point is the headline row: big pools are the regime
    # the compiled plan exists for (and where the acceptance bar applies).
    largest = rows[-1]
    bench_record(
        "serving",
        "bench_inference_plan",
        # Named for its denominator: "compiled_p50_speedup_pool_N" rows
        # were taken against the Tensor-path reference.
        f"compiled_p50_speedup_vs_kernel_pool_{largest[0]}",
        largest[3],
        "x",
        True,
    )
    bench_record(
        "serving",
        "bench_inference_plan",
        f"compiled_p50_ms_pool_{largest[0]}",
        largest[2] * 1000.0,
        "ms",
        False,
    )
    # The ratio's other side, so a moved ratio says which side moved.
    bench_record(
        "serving",
        "bench_inference_plan",
        f"reference_p50_ms_pool_{largest[0]}",
        largest[1] * 1000.0,
        "ms",
        False,
    )

    header = (
        f"{'pool size':>10}{'reference p50':>16}"
        f"{'compiled f32 p50':>18}{'speedup':>10}{'worst q-error':>15}"
    )
    table = [header] + [
        f"{size:>10}{ref * 1000:>14.2f}ms{f32 * 1000:>16.2f}ms"
        f"{speedup:>9.1f}x{worst:>15.8f}"
        for size, ref, f32, speedup, worst in rows
    ]
    report = "\n".join(
        [
            f"compiled inference plan (H={HIDDEN_SIZE}), single-request p50 "
            f"over {REQUESTS} requests" + (" (smoke)" if SMOKE else ""),
            "",
            *table,
            "",
            "requirement: compiled float32 >= "
            f"{REQUIRED_SPEEDUP}x at pool size >= {SPEEDUP_AT_OR_ABOVE}"
            + (" (timing not enforced in smoke mode)" if SMOKE else ""),
        ]
    )
    (results_dir / "inference_plan.txt").write_text(report + "\n")
    print(f"\n{report}\n")


def test_plan_compile_cost(results_dir, bench_record):
    """Compilation is a build/promote-time cost; record it so a regression
    in freeze-and-check time shows up in the trajectory."""
    database = build_synthetic_imdb(SyntheticIMDbConfig(num_titles=300, seed=11))
    featurizer = QueryFeaturizer(database)
    model = CRNModel(featurizer.vector_size, CRNConfig(hidden_size=HIDDEN_SIZE, seed=5))
    from repro.serving import compile_plan

    start = time.perf_counter()
    plan = compile_plan(model)
    elapsed = time.perf_counter() - start
    assert plan.compile_seconds <= elapsed
    bench_record(
        "serving",
        "bench_inference_plan",
        # Includes the self-check: model.head on the 26 fused pairs of 13
        # probe rows.
        "plan_compile_checked_ms",
        plan.compile_seconds * 1000.0,
        "ms",
        False,
    )
