"""Experiment harness, per-table/figure experiment registry, reporting and timing."""

from repro.evaluation.experiments import (
    EXPERIMENTS,
    ExperimentReport,
    list_experiments,
    run_experiment,
)
from repro.evaluation.harness import (
    CARDINALITY_EPSILON,
    CONTAINMENT_EPSILON,
    DEFAULT_PROFILE,
    PAPER_PROFILE,
    PROFILES,
    SMOKE_PROFILE,
    ExperimentHarness,
    ExperimentProfile,
    get_harness,
)
from repro.evaluation.reporting import (
    boxplot_series,
    format_boxplot_series,
    format_convergence,
    format_error_table,
    format_join_distribution,
    format_per_join_table,
    format_service_stats,
)
from repro.evaluation.timing import (
    AdaptationEvaluation,
    TimedEvaluation,
    evaluate_adaptation,
    format_adaptation_table,
    format_pool_size_table,
    format_timing_table,
    time_estimator,
    time_estimators,
)

__all__ = [
    "AdaptationEvaluation",
    "CARDINALITY_EPSILON",
    "CONTAINMENT_EPSILON",
    "DEFAULT_PROFILE",
    "EXPERIMENTS",
    "ExperimentHarness",
    "ExperimentProfile",
    "ExperimentReport",
    "PAPER_PROFILE",
    "PROFILES",
    "SMOKE_PROFILE",
    "TimedEvaluation",
    "boxplot_series",
    "evaluate_adaptation",
    "format_adaptation_table",
    "format_boxplot_series",
    "format_convergence",
    "format_error_table",
    "format_join_distribution",
    "format_per_join_table",
    "format_pool_size_table",
    "format_service_stats",
    "format_timing_table",
    "get_harness",
    "list_experiments",
    "run_experiment",
    "time_estimator",
    "time_estimators",
]
