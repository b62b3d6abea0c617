"""Unit tests for the database-update extension."""

import numpy as np
import pytest

import repro.extensions.updates as updates
from repro.core.crn import CRNConfig
from repro.core.queries_pool import QueriesPool
from repro.core.training import TrainingConfig, train_crn
from repro.datasets.imdb import SyntheticIMDbConfig, build_synthetic_imdb
from repro.datasets.workloads import build_queries_pool_queries, build_training_pairs
from repro.db.intersection import TrueCardinalityOracle
from repro.extensions.updates import (
    RetrainSession,
    incremental_update,
    refresh_queries_pool,
    retrain_from_scratch,
)


@pytest.fixture(scope="module")
def base_training(request):
    imdb_small = request.getfixturevalue("imdb_small")
    imdb_featurizer = request.getfixturevalue("imdb_featurizer")
    imdb_oracle = request.getfixturevalue("imdb_oracle")
    pairs = build_training_pairs(imdb_small, count=80, seed=12, oracle=imdb_oracle)
    result = train_crn(
        imdb_featurizer,
        pairs,
        crn_config=CRNConfig(hidden_size=16, seed=2),
        training_config=TrainingConfig(epochs=4, batch_size=32),
    )
    return result


@pytest.fixture(scope="module")
def updated_database():
    """An "updated" snapshot: same schema, different data (more titles)."""
    return build_synthetic_imdb(SyntheticIMDbConfig(num_titles=350, seed=99))


class TestIncrementalUpdate:
    def test_continues_from_previous_weights(self, base_training, updated_database):
        new_pairs = build_training_pairs(updated_database, count=60, seed=13)
        updated = incremental_update(base_training, updated_database, new_pairs, epochs=2)
        assert updated.epochs_run == 2
        assert updated.model.config == base_training.model.config
        # The featurizer now points at the updated snapshot.
        assert updated.featurizer is not base_training.featurizer

    def test_accepts_unlabelled_pairs(self, base_training, updated_database):
        from repro.datasets.generator import GeneratorConfig, QueryGenerator

        raw_pairs = QueryGenerator(updated_database, GeneratorConfig(seed=5)).generate_pairs(20)
        updated = incremental_update(base_training, updated_database, raw_pairs, epochs=1)
        assert updated.epochs_run == 1

    def test_rejects_empty_pairs(self, base_training, updated_database):
        with pytest.raises(ValueError):
            incremental_update(base_training, updated_database, [], epochs=1)

    def test_estimator_still_valid_after_update(self, base_training, updated_database):
        new_pairs = build_training_pairs(updated_database, count=40, seed=14)
        updated = incremental_update(base_training, updated_database, new_pairs, epochs=1)
        estimator = updated.estimator()
        pair = new_pairs[0]
        assert 0.0 <= estimator.estimate_containment(pair.first, pair.second) <= 1.0


class TestRetrainFromScratch:
    def test_produces_fresh_model(self, updated_database):
        result = retrain_from_scratch(
            updated_database,
            training_pairs=60,
            crn_config=CRNConfig(hidden_size=8, seed=1),
            training_config=TrainingConfig(epochs=2, batch_size=32),
        )
        assert result.epochs_run <= 2
        assert result.featurizer.database is updated_database


class TestRetrainSession:
    def test_incremental_session_reports_progress_per_epoch(
        self, base_training, updated_database
    ):
        reports = []
        session = RetrainSession(
            updated_database,
            base_result=base_training,
            training_pairs=20,
            seed=21,
            on_progress=reports.append,
        )
        assert session.mode == "incremental"
        result = session.run(epochs=2)
        assert session.epochs_completed == 2
        assert [r.epochs_completed for r in reports] == [1, 2]
        assert all(r.mode == "incremental" and r.target_epochs == 2 for r in reports)
        assert reports[-1].fraction == 1.0
        # Same architecture, weights continued from the base result.
        assert result.model.config == base_training.model.config

    def test_session_resumes_across_runs(self, base_training, updated_database):
        session = RetrainSession(
            updated_database, base_result=base_training, training_pairs=20, seed=22
        )
        first = session.run(epochs=2)
        second = session.run(epochs=3)
        assert second is first  # one continuously trained result
        assert session.epochs_completed == 5
        assert [stats.epoch for stats in second.history] == [1, 2, 3, 4, 5]

    def test_cancel_stops_after_current_epoch_and_resumes(
        self, base_training, updated_database
    ):
        session = RetrainSession(
            updated_database, base_result=base_training, training_pairs=20, seed=23
        )
        session.on_progress = lambda progress: session.cancel()
        session.run(epochs=5)
        assert session.epochs_completed == 1  # stopped after the first epoch
        assert session.cancelled
        session.on_progress = None
        session.run(epochs=2)  # resumes from the completed weights
        assert session.epochs_completed == 3
        assert not session.cancelled

    def test_cancelled_session_holds_the_last_completed_epoch_in_its_own_memory(
        self, base_training, updated_database, monkeypatch
    ):
        trainers = []

        class RecordingTrainer(updates.CRNTrainer):
            def __init__(self, *args):
                super().__init__(*args)
                trainers.append(self)

        monkeypatch.setattr(updates, "CRNTrainer", RecordingTrainer)
        session = RetrainSession(
            updated_database, base_result=base_training, training_pairs=20, seed=26
        )
        after_epoch = {}

        def cancel_after_second_epoch(progress):
            after_epoch[progress.epochs_completed] = session.result.model.state_dict()
            if progress.epochs_completed == 2:
                session.cancel()

        session.on_progress = cancel_after_second_epoch
        model = session.run(epochs=5).model
        assert session.cancelled and session.epochs_completed == 2
        # No best-state restore on this path: the weights are epoch 2's, not
        # epoch 1's even where epoch 1 validated better ...
        state = model.state_dict()
        assert state.keys() == after_epoch[2].keys()
        assert all(np.array_equal(state[name], after_epoch[2][name]) for name in state)
        assert any(not np.array_equal(state[name], after_epoch[1][name]) for name in state)
        # ... exactly what an uninterrupted two-epoch run ends with ...
        uninterrupted = RetrainSession(
            updated_database, base_result=base_training, training_pairs=20, seed=26
        ).run(epochs=2)
        assert all(
            np.array_equal(state[name], value)
            for name, value in uninterrupted.model.state_dict().items()
        )
        # ... and held in arrays the model owns, apart from all trainer scratch.
        trainer = trainers[0]  # the cancelled session's; the second is the reference run's
        for parameter in model.parameters():
            assert parameter.data.flags.owndata
            assert not np.shares_memory(parameter.data, trainer._adam.flat)

    def test_cancel_between_runs_skips_exactly_one_run(
        self, base_training, updated_database
    ):
        session = RetrainSession(
            updated_database, base_result=base_training, training_pairs=20, seed=25
        )
        session.run(epochs=1)
        session.cancel()  # issued while no run is in progress
        session.run(epochs=3)  # consumed: returns immediately, no new epochs
        assert session.epochs_completed == 1
        assert session.cancelled
        session.run(epochs=1)  # the run after that resumes normally
        assert session.epochs_completed == 2
        assert not session.cancelled

    def test_full_session_trains_fresh_weights(self, base_training, updated_database):
        from repro.core.crn import CRNConfig

        session = RetrainSession(
            updated_database,
            crn_config=CRNConfig(hidden_size=8, seed=4),
            training_pairs=20,
            seed=24,
        )
        assert session.mode == "full"
        result = session.run(epochs=1)
        assert result.model.config.hidden_size == 8
        assert result.featurizer.database is updated_database
        assert session.epochs_completed == 1

    def test_session_validates_inputs(self, base_training, updated_database):
        with pytest.raises(ValueError):
            RetrainSession(updated_database, training_pairs=0)
        session = RetrainSession(updated_database, training_pairs=10)
        with pytest.raises(ValueError):
            session.run(epochs=0)
        with pytest.raises(ValueError):
            RetrainSession(updated_database, pairs=[]).run(epochs=1)


class TestQueriesPoolRefresh:
    def test_cardinalities_match_updated_snapshot(self, imdb_small, imdb_oracle, updated_database):
        labelled = build_queries_pool_queries(imdb_small, count=25, oracle=imdb_oracle)
        pool = QueriesPool.from_labeled_queries(labelled)
        refreshed = refresh_queries_pool(pool, updated_database)
        assert len(refreshed) == len(pool)
        updated_oracle = TrueCardinalityOracle(updated_database)
        for entry in refreshed:
            assert entry.cardinality == updated_oracle.cardinality(entry.query)
