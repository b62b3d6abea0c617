"""Prediction-time measurement (Tables 14 and 15 of the paper) and adaptation metrics.

Table 14 sweeps the queries-pool size and reports accuracy together with the
average per-query prediction time; Table 15 reports the average prediction
time of every model.  Both need wall-clock measurement of single-query
estimation calls, which this module provides.  :func:`evaluate_adaptation`
grades an adaptation episode of the serving lifecycle
(:class:`repro.serving.AdaptationManager`), rendered by
:func:`format_adaptation_table`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.core.estimators import CardinalityEstimator
from repro.core.metrics import ErrorSummary, q_errors
from repro.datasets.pairs import LabeledQuery

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.serving.feedback import FeedbackSummary
    from repro.serving.lifecycle import AdaptationManager


@dataclass(frozen=True)
class TimedEvaluation:
    """Accuracy plus timing of one estimator over one workload."""

    name: str
    summary: ErrorSummary
    mean_prediction_seconds: float

    @property
    def mean_prediction_milliseconds(self) -> float:
        """Average per-query prediction time in milliseconds."""
        return self.mean_prediction_seconds * 1000.0


def time_estimator(
    estimator: CardinalityEstimator,
    labeled_queries: Sequence[LabeledQuery],
    epsilon: float = 1.0,
) -> TimedEvaluation:
    """Estimate every query one at a time, measuring per-query latency.

    Queries are deliberately estimated individually (not batched) because the
    paper's Tables 14-15 report the latency of estimating a single incoming
    query, which is how an optimizer would invoke the model.
    """
    if not labeled_queries:
        raise ValueError("cannot time an estimator on an empty workload")
    estimates: list[float] = []
    start = time.perf_counter()
    for labeled in labeled_queries:
        estimates.append(estimator.estimate_cardinality(labeled.query))
    elapsed = time.perf_counter() - start
    truths = [labeled.cardinality for labeled in labeled_queries]
    errors = q_errors(estimates, truths, epsilon=epsilon)
    return TimedEvaluation(
        name=estimator.name,
        summary=ErrorSummary.from_errors(estimator.name, errors),
        mean_prediction_seconds=elapsed / len(labeled_queries),
    )


def time_estimators(
    estimators: Mapping[str, CardinalityEstimator],
    labeled_queries: Sequence[LabeledQuery],
    epsilon: float = 1.0,
) -> dict[str, TimedEvaluation]:
    """Time several estimators on the same workload."""
    return {
        name: time_estimator(estimator, labeled_queries, epsilon=epsilon)
        for name, estimator in estimators.items()
    }


@dataclass(frozen=True)
class AdaptationEvaluation:
    """Accuracy recovery around the adaptation subsystem's hot swap(s).

    The three q-error readings are the rolling window's **median** captured
    at the three phases of an adaptation episode: healthy before the
    database update, degraded while the stale model served the updated data,
    and recovered after the background retrain was swapped in.  The median
    is the robust phase-comparison metric: the p90+ tail of a small window
    is dominated by a handful of near-zero-truth queries whose unbounded
    ratios swamp any model change, so tail quantiles of two equally healthy
    windows can differ by 2x for no modelling reason (the drift *policy*
    still watches the tail — degradation there is exactly the signal worth
    reacting to; this evaluation grades the reaction).

    Attributes:
        name: the adapted estimator's stamped name.
        swaps: accepted hot swaps during the episode.
        retrains: retrain attempts (including failed/rejected ones).
        mean_retrain_seconds: average retrain duration.
        pre_update_q_error: the healthy window's reading.
        degraded_q_error: the reading that fired the drift policy.
        recovered_q_error: the post-swap rolling window's reading.
    """

    name: str
    swaps: int
    retrains: int
    mean_retrain_seconds: float
    pre_update_q_error: float
    degraded_q_error: float
    recovered_q_error: float

    @property
    def recovery_ratio(self) -> float:
        """Post-swap q-error relative to the healthy pre-update window.

        1.0 means full recovery; the adaptive-serving benchmark requires
        <= 1.5 (the acceptance bar for the feedback→retrain→swap loop).
        """
        if not self.pre_update_q_error > 0.0:
            return float("nan")
        return self.recovered_q_error / self.pre_update_q_error


def evaluate_adaptation(
    manager: "AdaptationManager",
    pre_update: "FeedbackSummary",
    degraded: "FeedbackSummary",
    recovered: "FeedbackSummary",
    name: str | None = None,
) -> AdaptationEvaluation:
    """Assemble an :class:`AdaptationEvaluation` from a manager and 3 windows.

    The caller captures :meth:`repro.serving.FeedbackCollector.summary` at
    the three phase boundaries (the collector is cleared on swap, so the
    phases cannot be reconstructed after the fact); the manager's
    :meth:`repro.serving.AdaptationManager.stats_snapshot` supplies the
    swap/retrain counters.
    """
    snapshot = manager.stats_snapshot()
    return AdaptationEvaluation(
        name=name if name is not None else manager.estimator_name,
        swaps=int(snapshot["swaps"]),
        retrains=int(snapshot["retrains"]),
        mean_retrain_seconds=snapshot["mean_retrain_seconds"],
        pre_update_q_error=pre_update.p50,
        degraded_q_error=degraded.p50,
        recovered_q_error=recovered.p50,
    )


def format_adaptation_table(
    evaluations: Mapping[str, AdaptationEvaluation], title: str = ""
) -> str:
    """Render adaptation episodes as a fixed-width text table."""
    name_width = max([len(name) for name in evaluations] + [len("estimator")]) + 2
    headers = ["swaps", "retrains", "retrain s", "pre p50", "degraded", "recovered", "recovery"]
    lines: list[str] = []
    if title:
        lines.append(title)
    lines.append("estimator".ljust(name_width) + "".join(h.rjust(12) for h in headers))
    for name, evaluation in evaluations.items():
        cells = [
            str(evaluation.swaps),
            str(evaluation.retrains),
            f"{evaluation.mean_retrain_seconds:.2f}s",
            f"{evaluation.pre_update_q_error:.2f}",
            f"{evaluation.degraded_q_error:.2f}",
            f"{evaluation.recovered_q_error:.2f}",
            f"{evaluation.recovery_ratio:.2f}x",
        ]
        lines.append(name.ljust(name_width) + "".join(cell.rjust(12) for cell in cells))
    return "\n".join(lines)


def format_timing_table(timings: Mapping[str, TimedEvaluation], title: str = "") -> str:
    """Render a Table-15-style "average prediction time" table."""
    name_width = max([len(name) for name in timings] + [len("model")]) + 2
    lines: list[str] = []
    if title:
        lines.append(title)
    lines.append("model".ljust(name_width) + "prediction time".rjust(18))
    for name, timed in timings.items():
        lines.append(name.ljust(name_width) + f"{timed.mean_prediction_milliseconds:.2f}ms".rjust(18))
    return "\n".join(lines)


def format_pool_size_table(
    rows: Sequence[tuple[int, ErrorSummary, float]], title: str = ""
) -> str:
    """Render a Table-14-style pool-size sweep (size, median, mean, time)."""
    lines: list[str] = []
    if title:
        lines.append(title)
    lines.append(
        "QP size".rjust(10) + "median".rjust(12) + "mean".rjust(12) + "prediction time".rjust(18)
    )
    for size, summary, seconds in rows:
        lines.append(
            f"{size:10d}"
            + f"{summary.median:.2f}".rjust(12)
            + f"{summary.mean:.2f}".rjust(12)
            + f"{seconds * 1000:.2f}ms".rjust(18)
        )
    return "\n".join(lines)
