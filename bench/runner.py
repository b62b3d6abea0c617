"""Runs one workload: set-up, timed rounds, traced rounds, verification.

Two phases, each ``seconds`` long:

* the **end-to-end phase** (``trace`` 0 or unset) sets the workload up three
  times (``setup_s`` is the median), discards one warm-up round, then
  measures whole rounds with nothing wrapped;
* the **trace phase** (``trace`` 1 or unset) alternates untraced and traced
  rounds, so the tracing overhead is a like-for-like ratio, and derives the
  per-layer metrics from the traced rounds' spans and from counters read
  across the first untraced round.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import shutil
import statistics
import tempfile
import time
from typing import Any

from repro.core import q_errors
from repro.sql import parse_query

from bench import stats
from bench.metrics import PER_LAYER
from bench.spans import REQUEST_WRAP_POINTS, SETUP_WRAP_POINTS, SpanRecorder
from bench.workloads import WORKLOADS, Round, Workload
from bench.world import FULL, Scale, World, build_world

SETUP_REPEATS = 3
#: First round index of the trace phase: its request slices do not depend on
#: how many rounds the end-to-end phase managed to fit.
TRACE_ROUND_BASE = 1000

_clock = time.perf_counter

#: Span name → the per-layer metric its self time feeds.
_SPAN_METRICS = {
    "sql.parse": "sql.parse.self_ms",
    "core.featurization.featurize": "core.featurization.featurize.self_ms",
    "core.crn.encode_query": "core.crn.encode_query.self_ms",
    "serving.planner.plan": "serving.planner.plan.self_ms",
    "serving.pool_index.resolve": "serving.pool_index.resolve.self_ms",
    "core.crn.pair_head": "core.crn.pair_head.self_ms",
    "serving.inference_plan.kernel": "serving.inference_plan.kernel.self_ms",
    "core.cnt2crd.collapse": "core.cnt2crd.collapse.self_ms",
    "serving.service.submit_batch": "serving.service.submit_batch.self_ms",
    "core.queries_pool.add": "core.queries_pool.add.self_ms",
}


def _set_up(
    workload_type: type[Workload],
    seed: int,
    scale: Scale,
    world: World | None,
    workdir: str,
) -> tuple[Workload, float]:
    """One complete set-up; returns the live workload and its wall seconds."""
    started = _clock()
    if world is None:
        world = build_world(seed, scale)
    workload = workload_type()
    stages = SpanRecorder()
    try:
        with stages.installed(SETUP_WRAP_POINTS):
            workload.setup(world, workdir)
    except BaseException:
        workload.teardown()
        raise
    elapsed = _clock() - started
    workload.stages.update(world.stages)
    summary = stages.summary()
    for span, metric in (
        ("serving.client.warm", "serving.client.warm_s"),
        ("artifacts.save", "artifacts.save_s"),
    ):
        if span in summary:
            workload.stages[metric] = summary[span]["total_s"]
    return workload, elapsed


def _check(sample: Round) -> tuple[int, int]:
    """``(bad values, fallbacks)`` among a round's answered requests."""
    bad = fallbacks = 0
    for _, result in sample.results:
        value = result.estimate
        if not math.isfinite(value) or value < 0:
            bad += 1
        if result.resolution != "indexed_slab":
            fallbacks += 1
    return bad, fallbacks


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _rate(numerator: float | None, denominator: float | None) -> float | None:
    if numerator is None or not denominator:
        return None
    return numerator / denominator


class _Tally:
    """Outcome counts and samples accumulated over timed rounds."""

    def __init__(self) -> None:
        self.rounds: list[Round] = []
        self.attempted = self.failed = self.fallbacks = self.answered = 0
        self.first_error = ""
        #: Request index → first estimate seen, for q-error.
        self.estimates: dict[int, float] = {}

    def add(self, sample: Round) -> None:
        bad, fallbacks = _check(sample)
        self.rounds.append(sample)
        self.attempted += sample.requests
        self.answered += len(sample.results)
        self.failed += sample.raised + bad
        self.fallbacks += fallbacks
        self.first_error = self.first_error or sample.first_error
        for index, result in sample.results:
            self.estimates.setdefault(index, result.estimate)

    def pooled(self, key: str | None = None) -> list[float]:
        if key is None:
            return [value for sample in self.rounds for value in sample.latencies]
        return [value for sample in self.rounds for value in sample.extra.get(key, ())]


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: int | None = None,
    scale: Scale = FULL,
    world: World | None = None,
    workroot: str = ".",
) -> dict[str, Any]:
    """Run one workload and return its result record.

    ``trace`` 0 runs the end-to-end phase only, 1 the trace phase only, and
    ``None`` both.  ``world`` lets ``bench/tests`` share one scaled-down
    world between workloads (its build time is then outside ``setup_s``).
    ``workroot`` is where the scratch directory for artifacts is made; it is
    removed before returning.
    """
    workload_type = WORKLOADS[name]
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=workroot)
    workload: Workload | None = None
    try:
        setup_seconds: list[float] = []
        repeats = SETUP_REPEATS if trace != 1 and world is None else 1
        for repeat in range(repeats):
            if workload is not None:
                workload.teardown()
                workload = None
                gc.collect()
            workload, elapsed = _set_up(
                workload_type, seed, scale, world, os.path.join(workdir, str(repeat))
            )
            setup_seconds.append(elapsed)

        workload.run_round(0)  # warm-up, discarded
        flushes = [workload.flush()]

        end_to_end, untraced, traced = _Tally(), _Tally(), _Tally()
        if trace != 1:
            phase_started = _clock()
            index = 1
            while True:
                end_to_end.add(workload.run_round(index))
                flushes.append(workload.flush())
                index += 1
                if _clock() - phase_started >= seconds:
                    break
        layers: dict[str, float | None] = {}
        span_summary: dict[str, dict[str, float]] = {}
        recorder = SpanRecorder()
        if trace != 0:
            layers, span_summary = _trace_phase(
                workload, seconds, recorder, untraced, traced, flushes
            )

        checked, mismatched, first_mismatch = workload.verify()
        workload.teardown()
    finally:
        if workload is not None:
            workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)

    tallies = (end_to_end, untraced, traced)
    failed = sum(tally.failed for tally in tallies) + mismatched
    attempted = sum(tally.attempted for tally in tallies) + checked
    first_error = next(
        (tally.first_error for tally in tallies if tally.first_error), first_mismatch
    )
    # The timing metrics come from rounds with nothing wrapped: the end-to-end
    # phase, or the trace phase's untraced rounds when that is all that ran.
    measured = untraced if trace == 1 else end_to_end
    latencies_ms = [value * 1000.0 for value in measured.pooled()]
    per_round_p50 = [
        stats.percentile(sample.latencies, 50) * 1000.0
        for sample in measured.rounds
        if sample.latencies
    ]
    per_round_rate = [sample.completed / sample.wall_s for sample in measured.rounds]
    metrics: dict[str, float | None] = {
        "setup_s": statistics.median(setup_seconds),
        "latency_p50_ms": stats.percentile(latencies_ms, 50) if latencies_ms else None,
        "throughput_qps": statistics.median(per_round_rate),
        "failed_share": failed / attempted,
        "latency_p99_ms": stats.percentile(latencies_ms, 99) if latencies_ms else None,
        "peak_rss_mb": _peak_rss_mb(),
        "serving.service.fallback_share": _rate(measured.fallbacks, measured.answered),
    }
    if workload.has_truth and measured.estimates:
        indices = sorted(measured.estimates)
        errors = list(
            q_errors(
                [measured.estimates[index] for index in indices],
                [workload.truths[index] for index in indices],
                epsilon=1.0,
            )
        )
        metrics["qerror_p50"] = stats.percentile(errors, 50)
        metrics["qerror_p90"] = stats.percentile(errors, 90)
    metrics.update(workload.stages)
    metrics.update(layers)
    for metric in PER_LAYER:
        metrics.setdefault(metric.name, None)

    return {
        "workload": name,
        "why": workload_type.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "first_error": first_error,
        "verified": checked,
        "rounds": len(measured.rounds),
        "samples": len(latencies_ms),
        "supported_tail_percentile": stats.supported_tail(len(latencies_ms)),
        "setup_runs_s": setup_seconds,
        "per_round": {
            "latency_p50_ms": per_round_p50,
            "throughput_qps": per_round_rate,
        },
        "metrics": metrics,
        "missing_wrap_points": sorted(recorder.missing),
        "span_summary": span_summary,
        "spans": recorder.rows(),
    }


def _trace_phase(
    workload: Workload,
    seconds: float,
    recorder: SpanRecorder,
    untraced: _Tally,
    traced: _Tally,
    flushes: list[float | None],
) -> tuple[dict[str, float | None], dict[str, dict[str, float]]]:
    """Alternate untraced and traced rounds; derive the per-layer metrics.

    Returns the metrics and, per span name, the call count and self time
    per request (every span, not only the ones a metric is named after).
    """
    traced_parse = recorder.wrap("sql.parse", parse_query)
    before = workload.client.stats()
    after: dict[str, float] | None = None
    phase_started = _clock()
    index = TRACE_ROUND_BASE
    while True:
        untraced.add(workload.run_round(index))
        flushes.append(workload.flush())
        if after is None:
            # Counters are read across the first untraced round only: a fixed
            # request count after a fixed warm-up, so they repeat exactly.
            after = workload.client.stats()
        with recorder.installed(REQUEST_WRAP_POINTS):
            traced.add(workload.run_round(index + 1, traced_parse, recorder.set_request))
        recorder.set_request(None)
        flushes.append(workload.flush())
        index += 2
        if _clock() - phase_started >= seconds:
            break

    summary = recorder.summary()
    requests = sum(sample.requests for sample in traced.rounds)
    traced_wall = sum(sample.wall_s for sample in traced.rounds)
    layers: dict[str, float | None] = {}
    for span, metric in _SPAN_METRICS.items():
        entry = summary.get(span)
        if entry is None:
            layers[metric] = None  # not exercised here, or its wrap point is gone
        elif span == "core.queries_pool.add":
            layers[metric] = entry["self_s"] * 1000.0 / entry["count"]
        else:
            layers[metric] = entry["self_s"] * 1000.0 / requests
    all_self = sum(entry["self_s"] for entry in summary.values())
    layers["serving.client.untraced_ms"] = (traced_wall - all_self) * 1000.0 / requests
    kernel = summary.get("serving.inference_plan.kernel")
    pairs = sum(
        result.pairs_scored for sample in traced.rounds for _, result in sample.results
    )
    layers["serving.inference_plan.kernel.rows_per_s"] = (
        pairs / kernel["total_s"] if kernel else None
    )
    layers["bench.tracing_overhead"] = statistics.median(
        sample.wall_s for sample in traced.rounds
    ) / statistics.median(sample.wall_s for sample in untraced.rounds)

    first = untraced.rounds[0]
    layers["serving.service.pairs_scored_per_request"] = _rate(
        sum(result.pairs_scored for _, result in first.results), len(first.results)
    )

    def delta(key: str) -> float | None:
        if key not in after or key not in before:
            return None
        return after[key] - before[key]

    layers["serving.cache.featurization_hit_rate"] = after.get("featurization_hit_rate")
    layers["serving.cache.encoding_hit_rate"] = after.get("encoding_hit_rate")
    layers["serving.planner.dedup_share"] = _rate(
        delta("deduplicated_pairs"), delta("planned_pairs")
    )
    layers["serving.pool_index.fallbacks"] = delta("pool_index_fallbacks")
    layers["serving.pool_index.appended_rows"] = delta("pool_index_appended_rows")
    layers["serving.pool_index.rebuilds"] = delta("pool_index_rebuilds")
    if delta("coalesced_batches"):  # the dispatcher served this round
        layers["serving.dispatcher.queue_wait_p50_ms"] = after.get("queue_wait_p50_ms")
        layers["serving.dispatcher.queue_wait_p99_ms"] = after.get("queue_wait_p99_ms")
        layers["serving.dispatcher.mean_batch_size"] = after.get("mean_batch_size")
    layers["observability.events_per_request"] = _rate(
        delta("events_emitted"), first.requests
    )
    layers["observability.events_dropped_share"] = _rate(
        delta("events_dropped"), delta("events_emitted")
    )
    flush_seconds = [seconds for seconds in flushes if seconds is not None]
    if flush_seconds:
        layers["observability.flush_s"] = statistics.median(flush_seconds)
    for key, metric in (
        ("read_after_add", "serving.pool_index.read_after_add_p50_ms"),
        ("wire_overhead", "cluster.router.wire_overhead_p50_ms"),
        ("worker_service", "cluster.worker.service_p50_ms"),
    ):
        values = untraced.pooled(key)
        if values:
            layers[metric] = stats.percentile(values, 50) * 1000.0
    layers.update(workload.probes())
    span_summary = {
        span: {
            "count": entry["count"],
            "self_ms_per_request": entry["self_s"] * 1000.0 / requests,
        }
        for span, entry in summary.items()
    }
    return layers, span_summary
