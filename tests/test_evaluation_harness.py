"""Integration tests for the experiment harness (tiny custom profile).

These tests exercise the full pipeline -- database, generators, CRN and MSCN
training, queries pool, workloads, evaluation -- end to end, with sizes small
enough to finish in well under a minute.
"""

import pytest

from repro.baselines.mscn import MSCNConfig, MSCNTrainingConfig
from repro.core.crn import CRNConfig
from repro.core.metrics import ErrorSummary
from repro.core.training import TrainingConfig
from repro.datasets.imdb import SyntheticIMDbConfig
from repro.datasets.workloads import PairWorkload, Workload
from repro.evaluation.experiments import run_experiment
from repro.evaluation.harness import PROFILES, ExperimentHarness, ExperimentProfile, get_harness

TINY_PROFILE = ExperimentProfile(
    name="tiny",
    imdb=SyntheticIMDbConfig(num_titles=250, seed=5),
    training_pairs=120,
    crn=CRNConfig(hidden_size=16),
    crn_training=TrainingConfig(epochs=4, batch_size=32, early_stopping_patience=0),
    mscn=MSCNConfig(hidden_size=16),
    mscn_training=MSCNTrainingConfig(epochs=4),
    mscn_samples=40,
    workload_scale=0.02,
    pool_size=40,
)


@pytest.fixture(scope="module")
def harness():
    return ExperimentHarness(TINY_PROFILE)


class TestProfiles:
    def test_registry_contains_expected_profiles(self):
        assert set(PROFILES) == {"smoke", "default", "paper"}

    def test_get_harness_caches_instances(self):
        assert get_harness("smoke") is get_harness("smoke")


class TestHarnessArtifacts:
    def test_database_and_featurizer_are_shared(self, harness):
        assert harness.database is harness.database
        assert harness.featurizer.vector_size > 0

    def test_training_pairs_have_bounded_joins(self, harness):
        assert all(pair.num_joins <= 2 for pair in harness.training_pairs)

    def test_workload_types(self, harness):
        assert isinstance(harness.workload("cnt_test1"), PairWorkload)
        assert isinstance(harness.workload("crd_test1"), Workload)
        with pytest.raises(KeyError):
            harness.workload("unknown")

    def test_workloads_are_cached(self, harness):
        assert harness.workload("crd_test1") is harness.workload("crd_test1")

    def test_pool_respects_profile_coverage(self, harness):
        workload = harness.workload("crd_test2")
        pool = harness.pool
        assert all(pool.has_match(labeled.query) for labeled in workload.queries)

    def test_estimator_collections(self, harness):
        cardinality = harness.all_cardinality_estimators()
        assert {"PostgreSQL", "MSCN", "Cnt2Crd(CRN)", "Improved PostgreSQL", "Improved MSCN", "MSCN1000"} <= set(
            cardinality
        )
        containment = harness.crd2cnt_estimators()
        assert {"Crd2Cnt(PostgreSQL)", "Crd2Cnt(MSCN)", "CRN"} == set(containment)


class TestHarnessEvaluation:
    """Scoring runs through the experiment registry (the tables' own path)."""

    def test_containment_experiment_summarizes_every_pair(self, harness):
        summaries = run_experiment("table03_cnt_test1", harness).data["summaries"]
        assert set(summaries) == {"Crd2Cnt(PostgreSQL)", "Crd2Cnt(MSCN)", "CRN"}
        assert all(isinstance(summary, ErrorSummary) for summary in summaries.values())
        assert summaries["CRN"].count == len(harness.workload("cnt_test1").pairs)

    def test_cardinality_experiment_summarizes_every_query(self, harness):
        summaries = run_experiment("table06_crd_test1", harness).data["summaries"]
        assert set(summaries) == {"PostgreSQL", "MSCN", "Cnt2Crd(CRN)"}
        assert summaries["PostgreSQL"].count == len(harness.workload("crd_test1"))

    def test_cardinality_experiment_join_restriction(self, harness):
        summaries = run_experiment("table08_crd_test2_3to5", harness).data["summaries"]
        workload = harness.workload("crd_test2")
        expected = sum(1 for labeled in workload.queries if 3 <= labeled.num_joins <= 5)
        assert summaries["PostgreSQL"].count == expected

    def test_per_join_evaluation_covers_all_join_counts(self, harness):
        per_join = harness.evaluate_cardinality_per_join(
            "crd_test2", estimators={"PostgreSQL": harness.postgres_estimator()}
        )
        workload_joins = {labeled.num_joins for labeled in harness.workload("crd_test2").queries}
        assert set(per_join["PostgreSQL"]) == workload_joins

    def test_pair_workload_rejected_for_cardinality_evaluation(self, harness):
        with pytest.raises(TypeError):
            harness.evaluate_cardinality_per_join("cnt_test1")
