"""Registry of the paper's experiments: one entry per table and figure.

Every experiment takes an :class:`~repro.evaluation.harness.ExperimentHarness`
and returns an :class:`ExperimentReport` whose ``text`` reproduces the paper's
table (or the data series behind the figure) and whose ``data`` holds the raw
numbers for programmatic checks.  The benchmark suite contains one benchmark
per registry entry; each writes its report under ``benchmarks/results/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.crn import CRNConfig
from repro.core.cnt2crd import Cnt2CrdEstimator
from repro.core.metrics import ErrorSummary, q_errors
from repro.core.training import train_crn
from repro.datasets.workloads import PairWorkload, Workload, join_distribution
from repro.evaluation.harness import (
    CARDINALITY_EPSILON,
    CONTAINMENT_EPSILON,
    ExperimentHarness,
)
from repro.evaluation.reporting import (
    boxplot_series,
    format_boxplot_series,
    format_convergence,
    format_error_table,
    format_join_distribution,
    format_per_join_table,
)
from repro.evaluation.timing import (
    format_pool_size_table,
    format_timing_table,
    time_estimator,
    time_estimators,
)


@dataclass
class ExperimentReport:
    """The outcome of one reproduced table or figure."""

    experiment_id: str
    title: str
    text: str
    data: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        return f"== {self.experiment_id}: {self.title} ==\n{self.text}"


ExperimentFunction = Callable[[ExperimentHarness], ExperimentReport]

EXPERIMENTS: dict[str, ExperimentFunction] = {}


def experiment(experiment_id: str) -> Callable[[ExperimentFunction], ExperimentFunction]:
    """Decorator registering an experiment under ``experiment_id``."""

    def register(function: ExperimentFunction) -> ExperimentFunction:
        EXPERIMENTS[experiment_id] = function
        return function

    return register


def _sweep_training_config(harness: ExperimentHarness):
    """A cheaper training configuration for experiments that train extra models.

    The hidden-size sweep and the architecture/loss ablations each train
    several additional CRN models; running them with roughly half the main
    profile's epoch budget keeps the benchmark suite's total runtime bounded
    without changing the comparisons qualitatively.
    """
    base = harness.profile.crn_training
    return replace(
        base,
        epochs=max(8, base.epochs // 2),
        early_stopping_patience=min(base.early_stopping_patience, 8),
    )


def run_experiment(experiment_id: str, harness: ExperimentHarness) -> ExperimentReport:
    """Run one registered experiment."""
    if experiment_id not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {experiment_id!r}; available: {sorted(EXPERIMENTS)}")
    return EXPERIMENTS[experiment_id](harness)


def list_experiments() -> list[str]:
    """All registered experiment ids."""
    return sorted(EXPERIMENTS)


# --------------------------------------------------------------------------- #
# Section 3: the CRN model itself


@experiment("fig03_hidden_size")
def fig03_hidden_size(harness: ExperimentHarness) -> ExperimentReport:
    """Figure 3: validation mean q-error as a function of the hidden layer size."""
    base_hidden = harness.profile.crn.hidden_size
    sizes = sorted({max(base_hidden // 4, 8), max(base_hidden // 2, 16), base_hidden, base_hidden * 2})
    rows: list[tuple[int, float]] = []
    for hidden_size in sizes:
        config = replace(harness.profile.crn, hidden_size=hidden_size)
        result = train_crn(
            harness.featurizer,
            harness.training_pairs,
            crn_config=config,
            training_config=_sweep_training_config(harness),
        )
        rows.append((hidden_size, result.best_validation_q_error))
    lines = ["hidden size".rjust(12) + "validation mean q-error".rjust(26)]
    lines += [f"{size:12d}" + f"{error:.3f}".rjust(26) for size, error in rows]
    return ExperimentReport(
        experiment_id="fig03_hidden_size",
        title="Validation mean q-error vs hidden layer size (Figure 3)",
        text="\n".join(lines),
        data={"rows": rows},
    )


@experiment("fig04_convergence")
def fig04_convergence(harness: ExperimentHarness) -> ExperimentReport:
    """Figure 4: convergence of the validation mean q-error over training epochs."""
    result = harness.crn_result
    history = [
        {
            "epoch": stats.epoch,
            "train_loss": stats.train_loss,
            "validation_mean_q_error": stats.validation_mean_q_error,
        }
        for stats in result.history
    ]
    return ExperimentReport(
        experiment_id="fig04_convergence",
        title="Convergence of the validation mean q-error (Figure 4)",
        text=format_convergence(history),
        data={
            "history": history,
            "best_epoch": result.best_epoch,
            "best_validation_q_error": result.best_validation_q_error,
        },
    )


# --------------------------------------------------------------------------- #
# Section 4: containment rate estimation


@experiment("table02_join_distribution")
def table02_join_distribution(harness: ExperimentHarness) -> ExperimentReport:
    """Table 2: join distribution of the containment workloads."""
    distributions = {
        "cnt_test1": join_distribution(harness.workload("cnt_test1")),
        "cnt_test2": join_distribution(harness.workload("cnt_test2")),
    }
    return ExperimentReport(
        experiment_id="table02_join_distribution",
        title="Join distribution of the containment workloads (Table 2)",
        text=format_join_distribution(distributions),
        data={"distributions": distributions},
    )


def _containment_experiment(
    harness: ExperimentHarness, workload_name: str, experiment_id: str, title: str
) -> ExperimentReport:
    workload = harness.workload(workload_name)
    assert isinstance(workload, PairWorkload)
    estimators = harness.crd2cnt_estimators()
    truths = [pair.containment_rate for pair in workload.pairs]
    pairs = [(pair.first, pair.second) for pair in workload.pairs]
    summaries: dict[str, ErrorSummary] = {}
    errors_by_model: dict[str, np.ndarray] = {}
    for name, estimator in estimators.items():
        estimates = estimator.estimate_containments(pairs)
        errors = q_errors(estimates, truths, epsilon=CONTAINMENT_EPSILON)
        errors_by_model[name] = errors
        summaries[name] = ErrorSummary.from_errors(name, errors)
    table = format_error_table(summaries)
    boxes = boxplot_series(errors_by_model)
    text = table + "\n\n" + format_boxplot_series(boxes, title="box-plot series (Figure)")
    return ExperimentReport(
        experiment_id=experiment_id,
        title=title,
        text=text,
        data={"summaries": summaries, "boxplot": boxes},
    )


@experiment("table03_cnt_test1")
def table03_cnt_test1(harness: ExperimentHarness) -> ExperimentReport:
    """Table 3 / Figure 5: containment estimation errors on cnt_test1."""
    return _containment_experiment(
        harness,
        "cnt_test1",
        "table03_cnt_test1",
        "Containment estimation errors on cnt_test1 (Table 3, Figure 5)",
    )


@experiment("table04_cnt_test2")
def table04_cnt_test2(harness: ExperimentHarness) -> ExperimentReport:
    """Table 4 / Figure 6: containment generalization to 0-5 joins on cnt_test2."""
    return _containment_experiment(
        harness,
        "cnt_test2",
        "table04_cnt_test2",
        "Containment estimation errors on cnt_test2 (Table 4, Figure 6)",
    )


# --------------------------------------------------------------------------- #
# Section 6: cardinality estimation


@experiment("table05_join_distribution")
def table05_join_distribution(harness: ExperimentHarness) -> ExperimentReport:
    """Table 5: join distribution of the cardinality workloads."""
    distributions = {
        "crd_test1": join_distribution(harness.workload("crd_test1")),
        "crd_test2": join_distribution(harness.workload("crd_test2")),
        "scale": join_distribution(harness.workload("scale")),
    }
    return ExperimentReport(
        experiment_id="table05_join_distribution",
        title="Join distribution of the cardinality workloads (Table 5)",
        text=format_join_distribution(distributions),
        data={"distributions": distributions},
    )


def _cardinality_experiment(
    harness: ExperimentHarness,
    workload_name: str,
    experiment_id: str,
    title: str,
    estimators: dict | None = None,
    min_joins: int | None = None,
    max_joins: int | None = None,
) -> ExperimentReport:
    workload = harness.workload(workload_name)
    assert isinstance(workload, Workload)
    if min_joins is not None or max_joins is not None:
        workload = workload.restrict_joins(min_joins or 0, max_joins if max_joins is not None else 99)
    estimators = estimators or harness.cardinality_estimators()
    queries = [labeled.query for labeled in workload.queries]
    truths = [labeled.cardinality for labeled in workload.queries]
    summaries: dict[str, ErrorSummary] = {}
    errors_by_model: dict[str, np.ndarray] = {}
    for name, estimator in estimators.items():
        estimates = estimator.estimate_cardinalities(queries)
        errors = q_errors(estimates, truths, epsilon=CARDINALITY_EPSILON)
        errors_by_model[name] = errors
        summaries[name] = ErrorSummary.from_errors(name, errors)
    table = format_error_table(summaries)
    boxes = boxplot_series(errors_by_model)
    text = table + "\n\n" + format_boxplot_series(boxes, title="box-plot series (Figure)")
    return ExperimentReport(
        experiment_id=experiment_id,
        title=title,
        text=text,
        data={"summaries": summaries, "boxplot": boxes},
    )


@experiment("table06_crd_test1")
def table06_crd_test1(harness: ExperimentHarness) -> ExperimentReport:
    """Table 6 / Figure 9: cardinality estimation errors on crd_test1."""
    return _cardinality_experiment(
        harness,
        "crd_test1",
        "table06_crd_test1",
        "Cardinality estimation errors on crd_test1 (Table 6, Figure 9)",
    )


@experiment("table07_crd_test2")
def table07_crd_test2(harness: ExperimentHarness) -> ExperimentReport:
    """Table 7 / Figure 10: cardinality generalization to 0-5 joins on crd_test2."""
    return _cardinality_experiment(
        harness,
        "crd_test2",
        "table07_crd_test2",
        "Cardinality estimation errors on crd_test2 (Table 7, Figure 10)",
    )


@experiment("table08_crd_test2_3to5")
def table08_crd_test2_3to5(harness: ExperimentHarness) -> ExperimentReport:
    """Table 8: crd_test2 restricted to queries with three to five joins."""
    return _cardinality_experiment(
        harness,
        "crd_test2",
        "table08_crd_test2_3to5",
        "Cardinality estimation errors on crd_test2, 3-5 joins only (Table 8)",
        min_joins=3,
        max_joins=5,
    )


@experiment("table09_per_join")
def table09_per_join(harness: ExperimentHarness) -> ExperimentReport:
    """Table 9 / Figure 11: mean and median q-error per join count on crd_test2."""
    per_join = harness.evaluate_cardinality_per_join("crd_test2")
    means = format_per_join_table(per_join, metric="mean", title="mean q-error per join count (Table 9)")
    medians = format_per_join_table(
        per_join, metric="median", title="median q-error per join count (Figure 11)"
    )
    return ExperimentReport(
        experiment_id="table09_per_join",
        title="Per-join-count q-errors on crd_test2 (Table 9, Figure 11)",
        text=means + "\n\n" + medians,
        data={"per_join": per_join},
    )


@experiment("table10_scale")
def table10_scale(harness: ExperimentHarness) -> ExperimentReport:
    """Table 10 / Figure 12: generalization to the scale workload (incl. MSCN1000)."""
    estimators = dict(harness.cardinality_estimators())
    estimators["MSCN1000"] = harness.mscn1000_estimator()
    return _cardinality_experiment(
        harness,
        "scale",
        "table10_scale",
        "Cardinality estimation errors on the scale workload (Table 10, Figure 12)",
        estimators=estimators,
    )


# --------------------------------------------------------------------------- #
# Section 7: improving existing models


@experiment("table11_improved_postgres")
def table11_improved_postgres(harness: ExperimentHarness) -> ExperimentReport:
    """Table 11: PostgreSQL vs Improved PostgreSQL on crd_test2."""
    estimators = {
        "PostgreSQL": harness.postgres_estimator(),
        "Improved PostgreSQL": harness.improved_postgres_estimator(),
    }
    return _cardinality_experiment(
        harness,
        "crd_test2",
        "table11_improved_postgres",
        "PostgreSQL vs Improved PostgreSQL on crd_test2 (Table 11)",
        estimators=estimators,
    )


@experiment("table12_improved_mscn")
def table12_improved_mscn(harness: ExperimentHarness) -> ExperimentReport:
    """Table 12: MSCN vs Improved MSCN on crd_test2."""
    estimators = {
        "MSCN": harness.mscn_estimator(),
        "Improved MSCN": harness.improved_mscn_estimator(),
    }
    return _cardinality_experiment(
        harness,
        "crd_test2",
        "table12_improved_mscn",
        "MSCN vs Improved MSCN on crd_test2 (Table 12)",
        estimators=estimators,
    )


@experiment("table13_improved_vs_crn")
def table13_improved_vs_crn(harness: ExperimentHarness) -> ExperimentReport:
    """Table 13: the improved models vs Cnt2Crd(CRN) on crd_test2."""
    estimators = {
        "Improved PostgreSQL": harness.improved_postgres_estimator(),
        "Improved MSCN": harness.improved_mscn_estimator(),
        "Cnt2Crd(CRN)": harness.cnt2crd_crn_estimator(),
    }
    return _cardinality_experiment(
        harness,
        "crd_test2",
        "table13_improved_vs_crn",
        "Improved models vs Cnt2Crd(CRN) on crd_test2 (Table 13)",
        estimators=estimators,
    )


@experiment("fig13_all_models")
def fig13_all_models(harness: ExperimentHarness) -> ExperimentReport:
    """Figure 13: crd_test2 errors for every model, including improved ones."""
    return _cardinality_experiment(
        harness,
        "crd_test2",
        "fig13_all_models",
        "Cardinality estimation errors on crd_test2, all models (Figure 13)",
        estimators=harness.all_cardinality_estimators(),
    )


# --------------------------------------------------------------------------- #
# prediction time (Tables 14-15)


@experiment("table14_pool_size")
def table14_pool_size(harness: ExperimentHarness) -> ExperimentReport:
    """Table 14: accuracy and prediction time for different queries-pool sizes."""
    workload = harness.workload("crd_test2")
    assert isinstance(workload, Workload)
    full_pool = harness.pool
    sizes = sorted({max(len(full_pool) // 6, 5), len(full_pool) // 3, len(full_pool) // 2, len(full_pool)})
    rows: list[tuple[int, ErrorSummary, float]] = []
    for size in sizes:
        pool = full_pool.subset(size)
        # Small pool subsets can lose whole FROM clauses; the paper's remedy is
        # to fall back to a basic estimator for those queries (Section 5.2).
        estimator = harness.cnt2crd_crn_estimator(pool=pool, fallback=harness.postgres_estimator())
        timed = time_estimator(estimator, list(workload.queries), epsilon=CARDINALITY_EPSILON)
        rows.append((len(pool), timed.summary, timed.mean_prediction_seconds))
    return ExperimentReport(
        experiment_id="table14_pool_size",
        title="Accuracy and prediction time vs queries-pool size (Table 14)",
        text=format_pool_size_table(rows),
        data={"rows": rows},
    )


@experiment("table15_prediction_time")
def table15_prediction_time(harness: ExperimentHarness) -> ExperimentReport:
    """Table 15: average prediction time of a single query for every model."""
    workload = harness.workload("crd_test2")
    assert isinstance(workload, Workload)
    estimators = harness.all_cardinality_estimators()
    timings = time_estimators(estimators, list(workload.queries), epsilon=CARDINALITY_EPSILON)
    return ExperimentReport(
        experiment_id="table15_prediction_time",
        title="Average prediction time of a single query (Table 15)",
        text=format_timing_table(timings),
        data={"timings": timings},
    )


# --------------------------------------------------------------------------- #
# ablations (the design choices of Sections 3.2 and 5.3)


@experiment("ablation_final_function")
def ablation_final_function(harness: ExperimentHarness) -> ExperimentReport:
    """Section 5.3.1: median vs mean vs trimmed mean as the final function."""
    workload = harness.workload("crd_test2")
    assert isinstance(workload, Workload)
    queries = [labeled.query for labeled in workload.queries]
    truths = [labeled.cardinality for labeled in workload.queries]
    crn = harness.crn_estimator()
    summaries: dict[str, ErrorSummary] = {}
    for name in ("median", "mean", "trimmed_mean"):
        estimator = Cnt2CrdEstimator(crn, harness.pool, final_function=name)
        estimates = estimator.estimate_cardinalities(queries)
        errors = q_errors(estimates, truths, epsilon=CARDINALITY_EPSILON)
        summaries[name] = ErrorSummary.from_errors(name, errors)
    return ExperimentReport(
        experiment_id="ablation_final_function",
        title="Final-function ablation for Cnt2Crd(CRN) on crd_test2 (Section 5.3.1)",
        text=format_error_table(summaries),
        data={"summaries": summaries},
    )


@experiment("ablation_loss")
def ablation_loss(harness: ExperimentHarness) -> ExperimentReport:
    """Section 3.2.4: q-error loss vs MSE vs MAE for training CRN."""
    workload = harness.workload("cnt_test1")
    assert isinstance(workload, PairWorkload)
    truths = [pair.containment_rate for pair in workload.pairs]
    pairs = [(pair.first, pair.second) for pair in workload.pairs]
    summaries: dict[str, ErrorSummary] = {}
    for loss_name in ("log_q_error", "q_error", "mse", "mae"):
        training_config = replace(_sweep_training_config(harness), loss=loss_name)
        result = train_crn(
            harness.featurizer,
            harness.training_pairs,
            crn_config=harness.profile.crn,
            training_config=training_config,
        )
        estimates = result.estimator().estimate_containments(pairs)
        errors = q_errors(estimates, truths, epsilon=CONTAINMENT_EPSILON)
        summaries[loss_name] = ErrorSummary.from_errors(loss_name, errors)
    return ExperimentReport(
        experiment_id="ablation_loss",
        title="Training-loss ablation for CRN on cnt_test1 (Section 3.2.4)",
        text=format_error_table(summaries),
        data={"summaries": summaries},
    )


@experiment("ablation_pooling")
def ablation_pooling(harness: ExperimentHarness) -> ExperimentReport:
    """Section 3.2.2: average pooling vs sum pooling in the set encoders."""
    return _crn_architecture_ablation(
        harness,
        "ablation_pooling",
        "Set-encoder pooling ablation on cnt_test2 (Section 3.2.2)",
        {
            "average pooling": replace(harness.profile.crn, pooling="average"),
            "sum pooling": replace(harness.profile.crn, pooling="sum"),
        },
    )


@experiment("ablation_expand")
def ablation_expand(harness: ExperimentHarness) -> ExperimentReport:
    """Section 3.2.3: the Expand feature map vs plain concatenation."""
    return _crn_architecture_ablation(
        harness,
        "ablation_expand",
        "Expand-features ablation on cnt_test2 (Section 3.2.3)",
        {
            "expand features": replace(harness.profile.crn, use_expand=True),
            "plain concatenation": replace(harness.profile.crn, use_expand=False),
        },
    )


def _crn_architecture_ablation(
    harness: ExperimentHarness,
    experiment_id: str,
    title: str,
    configs: dict[str, CRNConfig],
) -> ExperimentReport:
    workload = harness.workload("cnt_test2")
    assert isinstance(workload, PairWorkload)
    truths = [pair.containment_rate for pair in workload.pairs]
    pairs = [(pair.first, pair.second) for pair in workload.pairs]
    summaries: dict[str, ErrorSummary] = {}
    for name, config in configs.items():
        result = train_crn(
            harness.featurizer,
            harness.training_pairs,
            crn_config=config,
            training_config=_sweep_training_config(harness),
        )
        estimates = result.estimator().estimate_containments(pairs)
        errors = q_errors(estimates, truths, epsilon=CONTAINMENT_EPSILON)
        summaries[name] = ErrorSummary.from_errors(name, errors)
    return ExperimentReport(
        experiment_id=experiment_id,
        title=title,
        text=format_error_table(summaries),
        data={"summaries": summaries},
    )
