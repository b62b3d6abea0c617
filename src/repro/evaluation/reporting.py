"""Rendering experiment results in the paper's table / figure formats.

Tables are rendered as fixed-width text with the paper's column layout
(50th/75th/90th/95th/99th percentile, max, mean).  "Figures" -- the box plots
and per-join bar charts -- are rendered as their underlying data series
(percentiles per model, or per-join means/medians), since the benchmark
harness is text-only.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.core.metrics import REPORTED_PERCENTILES, ErrorSummary

#: Percentiles shown by the paper's box plots (box = 25/75, whiskers = 5/95).
BOXPLOT_PERCENTILES: tuple[int, ...] = (5, 25, 50, 75, 95)


def format_error_table(
    summaries: Mapping[str, ErrorSummary],
    title: str = "",
    float_format: str = "{:.2f}",
) -> str:
    """Render error summaries as a paper-style percentile table."""
    headers = [f"{p}th" for p in REPORTED_PERCENTILES] + ["max", "mean"]
    name_width = max([len(name) for name in summaries] + [len("model")]) + 2
    lines: list[str] = []
    if title:
        lines.append(title)
    lines.append("model".ljust(name_width) + "".join(header.rjust(12) for header in headers))
    for name, summary in summaries.items():
        row = summary.row()
        cells = "".join(_format_cell(row[header], float_format).rjust(12) for header in headers)
        lines.append(name.ljust(name_width) + cells)
    return "\n".join(lines)


def format_per_join_table(
    per_join: Mapping[str, Mapping[int, ErrorSummary]],
    metric: str = "mean",
    title: str = "",
) -> str:
    """Render per-join-count metrics (Table 9: means, Figure 11: medians)."""
    if metric not in ("mean", "median"):
        raise ValueError("metric must be 'mean' or 'median'")
    join_counts = sorted({joins for groups in per_join.values() for joins in groups})
    name_width = max([len(name) for name in per_join] + [len("model")]) + 2
    lines: list[str] = []
    if title:
        lines.append(title)
    lines.append(
        "model".ljust(name_width)
        + "".join(f"{joins} joins".rjust(12) for joins in join_counts)
    )
    for name, groups in per_join.items():
        cells = []
        for joins in join_counts:
            if joins in groups:
                value = groups[joins].mean if metric == "mean" else groups[joins].median
                cells.append(_format_cell(value, "{:.2f}").rjust(12))
            else:
                cells.append("-".rjust(12))
        lines.append(name.ljust(name_width) + "".join(cells))
    return "\n".join(lines)


def boxplot_series(errors_by_model: Mapping[str, Sequence[float]]) -> dict[str, dict[int, float]]:
    """The data series behind the paper's box plots (Figures 5, 6, 9, 10, 12, 13).

    Returns, per model, the 5th/25th/50th/75th/95th percentiles of the q-error
    distribution -- the box boundaries and whiskers of the figures.
    """
    series: dict[str, dict[int, float]] = {}
    for name, errors in errors_by_model.items():
        values = np.asarray(list(errors), dtype=np.float64)
        if values.size == 0:
            raise ValueError(f"model {name!r} has no errors to summarize")
        series[name] = {p: float(np.percentile(values, p)) for p in BOXPLOT_PERCENTILES}
    return series


def format_boxplot_series(
    series: Mapping[str, Mapping[int, float]],
    title: str = "",
) -> str:
    """Render box-plot series as a fixed-width text table."""
    name_width = max([len(name) for name in series] + [len("model")]) + 2
    lines: list[str] = []
    if title:
        lines.append(title)
    lines.append(
        "model".ljust(name_width)
        + "".join(f"p{p}".rjust(12) for p in BOXPLOT_PERCENTILES)
    )
    for name, percentiles in series.items():
        cells = "".join(
            _format_cell(percentiles[p], "{:.2f}").rjust(12) for p in BOXPLOT_PERCENTILES
        )
        lines.append(name.ljust(name_width) + cells)
    return "\n".join(lines)


def format_join_distribution(distributions: Mapping[str, Mapping[int, int]], title: str = "") -> str:
    """Render workload join distributions (Tables 2 and 5)."""
    join_counts = sorted({joins for counts in distributions.values() for joins in counts})
    name_width = max([len(name) for name in distributions] + [len("workload")]) + 2
    lines: list[str] = []
    if title:
        lines.append(title)
    lines.append(
        "workload".ljust(name_width)
        + "".join(f"{joins} joins".rjust(10) for joins in join_counts)
        + "overall".rjust(10)
    )
    for name, counts in distributions.items():
        cells = "".join(str(counts.get(joins, 0)).rjust(10) for joins in join_counts)
        lines.append(name.ljust(name_width) + cells + str(sum(counts.values())).rjust(10))
    return "\n".join(lines)


def format_convergence(history: Sequence[Mapping[str, float]], title: str = "") -> str:
    """Render a training convergence history (Figure 4) as text."""
    lines: list[str] = []
    if title:
        lines.append(title)
    lines.append("epoch".rjust(8) + "train loss".rjust(14) + "validation q-error".rjust(22))
    for entry in history:
        lines.append(
            f"{int(entry['epoch']):8d}"
            + _format_cell(float(entry["train_loss"]), "{:.4f}").rjust(14)
            + _format_cell(float(entry["validation_mean_q_error"]), "{:.4f}").rjust(22)
        )
    return "\n".join(lines)


#: ``stats_snapshot`` keys rendered by :func:`format_service_stats`, with label
#: and formatting (rates as percentages, latency in ms, counters as integers).
#: The tail rows cover :meth:`repro.serving.ServingDispatcher.stats_snapshot`
#: and :meth:`repro.serving.AdaptationManager.stats_snapshot`, so one merged
#: ``{**service.stats_snapshot(), **dispatcher.stats_snapshot(),
#: **manager.stats_snapshot()}`` dict renders as a single coherent report.
_SERVICE_STAT_ROWS: tuple[tuple[str, str, str], ...] = (
    ("requests", "requests served", "{:.0f}"),
    ("batches", "batches executed", "{:.0f}"),
    ("planned_pairs", "pairs planned", "{:.0f}"),
    ("scored_pairs", "pairs scored", "{:.0f}"),
    ("deduplicated_pairs", "pairs deduplicated", "{:.0f}"),
    ("fallbacks", "fallback answers", "{:.0f}"),
    ("mean_latency_ms", "mean latency", "{:.2f}ms"),
    ("latency_p50_ms", "latency p50", "{:.2f}ms"),
    ("latency_p90_ms", "latency p90", "{:.2f}ms"),
    ("latency_p99_ms", "latency p99", "{:.2f}ms"),
    ("throughput_qps", "throughput", "{:.0f} qps"),
    ("featurization_hit_rate", "featurization hit rate", "{:.1%}"),
    ("featurization_entries", "featurizations cached", "{:.0f}"),
    ("encoding_hit_rate", "encoding hit rate", "{:.1%}"),
    ("encoding_entries", "encodings cached", "{:.0f}"),
    ("pool_index_signatures", "pool index signatures", "{:.0f}"),
    ("pool_index_rows", "pool index rows", "{:.0f}"),
    ("pool_index_served", "pool index served", "{:.0f}"),
    ("pool_index_builds", "pool index builds", "{:.0f}"),
    ("pool_index_rebuilds", "pool index rebuilds", "{:.0f}"),
    ("pool_index_appended_rows", "pool index rows appended", "{:.0f}"),
    ("submitted", "requests submitted", "{:.0f}"),
    ("completed", "requests completed", "{:.0f}"),
    ("failed", "requests failed", "{:.0f}"),
    ("timed_out", "requests timed out", "{:.0f}"),
    ("coalesced_batches", "coalesced batches", "{:.0f}"),
    ("coalesced_requests", "requests coalesced", "{:.0f}"),
    ("mean_batch_size", "mean batch size", "{:.1f}"),
    ("max_queue_depth", "max queue depth", "{:.0f}"),
    ("queue_wait_p50_ms", "queue wait p50", "{:.2f}ms"),
    ("queue_wait_p99_ms", "queue wait p99", "{:.2f}ms"),
    ("queue_wait_max_ms", "queue wait max", "{:.2f}ms"),
    ("evaluations", "drift evaluations", "{:.0f}"),
    ("drift_triggers", "drift triggers", "{:.0f}"),
    ("manual_triggers", "manual triggers", "{:.0f}"),
    ("retrains", "retrains", "{:.0f}"),
    ("incremental_retrains", "incremental retrains", "{:.0f}"),
    ("full_retrains", "full retrains", "{:.0f}"),
    ("retrain_failures", "retrain failures", "{:.0f}"),
    ("promote_failures", "promote failures", "{:.0f}"),
    ("escalations", "escalations to full", "{:.0f}"),
    ("candidates_rejected", "candidates rejected", "{:.0f}"),
    ("swaps", "models hot-swapped", "{:.0f}"),
    ("mean_retrain_seconds", "mean retrain time", "{:.2f}s"),
    ("last_retrain_seconds", "last retrain time", "{:.2f}s"),
    ("pre_swap_q_error", "pre-swap gate q-error", "{:.2f}"),
    ("post_swap_q_error", "post-swap gate q-error", "{:.2f}"),
    ("requests_between_swaps", "requests between swaps", "{:.0f}"),
    ("model_generation", "serving model generation", "{:.0f}"),
    ("feedback_observations", "feedback observations", "{:.0f}"),
    ("feedback_p50_q_error", "feedback p50 q-error", "{:.2f}"),
    ("feedback_p90_q_error", "feedback p90 q-error", "{:.2f}"),
    ("traces_started", "traces started", "{:.0f}"),
    ("traces_finished", "traces finished", "{:.0f}"),
    ("traces_kept", "traces kept", "{:.0f}"),
    ("traces_dropped", "traces dropped", "{:.0f}"),
    ("trace_tail_exemplars", "trace tail exemplars", "{:.0f}"),
    ("shared_spans", "shared spans recorded", "{:.0f}"),
    ("events_emitted", "events emitted", "{:.0f}"),
    ("events_buffered", "events buffered", "{:.0f}"),
    ("events_dropped", "events dropped", "{:.0f}"),
    ("events_flushed", "events flushed", "{:.0f}"),
    ("stored_events", "events stored", "{:.0f}"),
    ("stored_swaps", "swaps stored", "{:.0f}"),
    ("stored_drift_trips", "drift trips stored", "{:.0f}"),
)


def format_service_stats(snapshot: Mapping[str, float], title: str = "") -> str:
    """Render an estimation-service stats snapshot as fixed-width text.

    Takes the plain dict produced by
    :meth:`repro.serving.EstimationService.stats_snapshot` (keys absent from
    the snapshot — e.g. cache rows when the service has no caches — are
    skipped), optionally merged with
    :meth:`repro.serving.ServingDispatcher.stats_snapshot` for the dispatcher's
    concurrency counters.

    NaN values render as ``—`` ("no reading yet"): gauges like the lifecycle's
    pre/post-swap q-errors, or a :class:`repro.serving.FeedbackCollector`
    quantile over an empty window, are NaN until their first event, and a
    literal ``nan`` cell reads like a corrupted metric rather than an absent
    one.
    """
    rows = [
        (label, _format_stat(snapshot[key], fmt))
        for key, label, fmt in _SERVICE_STAT_ROWS
        if key in snapshot
    ]
    extras = sorted(set(snapshot) - {key for key, _, _ in _SERVICE_STAT_ROWS})
    rows.extend((key, _format_stat(snapshot[key], "{:.2f}")) for key in extras)
    label_width = max([len(label) for label, _ in rows] + [0]) + 2
    lines: list[str] = []
    if title:
        lines.append(title)
    for label, value in rows:
        lines.append(label.ljust(label_width) + value.rjust(14))
    return "\n".join(lines)


def _format_stat(value: float, float_format: str) -> str:
    """One service-stats cell; NaN means "no reading yet" and renders as —."""
    if isinstance(value, float) and np.isnan(value):
        return "—"
    return float_format.format(value)


def _format_cell(value: float, float_format: str) -> str:
    if value >= 1e6:
        return f"{value:.3g}"
    return float_format.format(value)
