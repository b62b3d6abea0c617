"""Tests for the experiment registry: completeness and a few end-to-end runs."""

import pytest

from repro.core.cnt2crd import Cnt2CrdEstimator
from repro.core.metrics import ErrorSummary, q_errors
from repro.evaluation.experiments import EXPERIMENTS, ExperimentReport, list_experiments, run_experiment
from tests.test_evaluation_harness import TINY_PROFILE
from repro.evaluation.harness import CARDINALITY_EPSILON, ExperimentHarness

#: Every table and figure of the paper's evaluation must have a registry entry.
PAPER_ARTIFACTS = [
    "fig03_hidden_size",
    "fig04_convergence",
    "table02_join_distribution",
    "table03_cnt_test1",
    "table04_cnt_test2",
    "table05_join_distribution",
    "table06_crd_test1",
    "table07_crd_test2",
    "table08_crd_test2_3to5",
    "table09_per_join",
    "table10_scale",
    "table11_improved_postgres",
    "table12_improved_mscn",
    "table13_improved_vs_crn",
    "fig13_all_models",
    "table14_pool_size",
    "table15_prediction_time",
]

ABLATIONS = ["ablation_final_function", "ablation_loss", "ablation_pooling", "ablation_expand"]


@pytest.fixture(scope="module")
def harness():
    return ExperimentHarness(TINY_PROFILE)


class TestRegistry:
    def test_every_paper_artifact_is_registered(self):
        for experiment_id in PAPER_ARTIFACTS + ABLATIONS:
            assert experiment_id in EXPERIMENTS, f"missing experiment {experiment_id}"

    def test_list_experiments_sorted(self):
        listed = list_experiments()
        assert listed == sorted(listed)
        assert set(PAPER_ARTIFACTS) <= set(listed)

    def test_unknown_experiment_rejected(self, harness):
        with pytest.raises(KeyError):
            run_experiment("table99_nonexistent", harness)


class TestSelectedExperimentsEndToEnd:
    """Run a representative subset with the tiny profile (fast but end to end)."""

    @pytest.mark.parametrize(
        "experiment_id",
        ["table02_join_distribution", "table05_join_distribution", "fig04_convergence"],
    )
    def test_cheap_experiments_produce_reports(self, harness, experiment_id):
        report = run_experiment(experiment_id, harness)
        assert isinstance(report, ExperimentReport)
        assert report.experiment_id == experiment_id
        assert report.text.strip()
        assert str(report).startswith(f"== {experiment_id}")

    def test_containment_experiment_report(self, harness):
        report = run_experiment("table03_cnt_test1", harness)
        assert "CRN" in report.text
        assert "Crd2Cnt(PostgreSQL)" in report.text
        assert "summaries" in report.data and "boxplot" in report.data

    def test_cardinality_experiment_report(self, harness):
        report = run_experiment("table07_crd_test2", harness)
        for model in ("PostgreSQL", "MSCN", "Cnt2Crd(CRN)"):
            assert model in report.text

    def test_improved_model_experiment_report(self, harness):
        report = run_experiment("table11_improved_postgres", harness)
        assert "Improved PostgreSQL" in report.text

    def test_final_function_ablation_floors_truth_like_the_cardinality_tables(self, harness):
        # An empty true result counts as one row in every cardinality table;
        # the ablation's median row must be Table 7's row for that estimator.
        report = run_experiment("ablation_final_function", harness)
        median = Cnt2CrdEstimator(harness.crn_estimator(), harness.pool, final_function="median")
        workload = harness.workload("crd_test2").queries
        estimates = median.estimate_cardinalities([item.query for item in workload])
        truths = [item.cardinality for item in workload]
        errors = q_errors(estimates, truths, epsilon=CARDINALITY_EPSILON)
        assert any(item.cardinality == 0 for item in workload)
        assert report.data["summaries"]["median"] == ErrorSummary.from_errors("median", errors)

    def test_pool_size_experiment_report(self, harness):
        report = run_experiment("table14_pool_size", harness)
        assert "QP size" in report.text
        assert len(report.data["rows"]) >= 2
