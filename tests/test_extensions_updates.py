"""Unit tests for the database-update extension."""

import pytest

from repro.core.crn import CRNConfig
from repro.core.queries_pool import QueriesPool
from repro.core.training import TrainingConfig, train_crn
from repro.datasets.generator import GeneratorConfig, QueryGenerator
from repro.datasets.imdb import SyntheticIMDbConfig, build_synthetic_imdb
from repro.datasets.pairs import label_pairs
from repro.datasets.workloads import build_queries_pool_queries, build_training_pairs
from repro.db.intersection import TrueCardinalityOracle
from repro.extensions.updates import (
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


    def test_rejects_a_changed_schema_layout(self, base_training, updated_database, toy_database):
        new_pairs = build_training_pairs(updated_database, count=5, seed=15)
        with pytest.raises(ValueError, match="schema layout"):
            incremental_update(base_training, toy_database, new_pairs, epochs=1)

    def test_trains_a_model_of_its_own(self, base_training, updated_database):
        before = {name: value.tobytes() for name, value in base_training.model.state_dict().items()}
        new_pairs = build_training_pairs(updated_database, count=30, seed=16)
        updated = incremental_update(base_training, updated_database, new_pairs, epochs=1)
        # The base result is left as it was; the update's weights are new.
        base_state = base_training.model.state_dict()
        assert all(base_state[name].tobytes() == before[name] for name in before)
        assert updated.model is not base_training.model
        assert updated.featurizer.database is updated_database
        state = updated.model.state_dict()
        assert any(state[name].tobytes() != before[name] for name in before)
        assert all(parameter.data.flags.owndata for parameter in updated.model.parameters())

    def test_runs_every_epoch_whatever_the_patience(self, base_training, updated_database):
        # A step size at which an epoch before the last fails to improve, so
        # train_crn's patience of 1 would have stopped there.
        new_pairs = build_training_pairs(updated_database, count=30, seed=17)
        config = TrainingConfig(batch_size=8, learning_rate=0.2, early_stopping_patience=1)
        updated = incremental_update(base_training, updated_database, new_pairs, config, epochs=4)
        errors = [stats.validation_mean_q_error for stats in updated.history]
        assert any(errors[index] >= min(errors[:index]) for index in range(1, 3))
        assert updated.epochs_run == 4 and not updated.stopped_early

    def test_labels_raw_pairs_against_the_updated_snapshot(
        self, base_training, imdb_small, imdb_oracle, updated_database
    ):
        raw_pairs = QueryGenerator(updated_database, GeneratorConfig(seed=6)).generate_pairs(15)
        labelled = label_pairs(
            updated_database, raw_pairs, oracle=TrueCardinalityOracle(updated_database)
        )
        stale = label_pairs(imdb_small, raw_pairs, oracle=imdb_oracle)
        assert [pair.containment_rate for pair in stale] != [
            pair.containment_rate for pair in labelled
        ]
        config = TrainingConfig(batch_size=8)
        from_raw = incremental_update(base_training, updated_database, raw_pairs, config, epochs=1)
        from_labelled = incremental_update(
            base_training, updated_database, labelled, config, epochs=1
        )
        state, expected = from_raw.model.state_dict(), from_labelled.model.state_dict()
        assert all(state[name].tobytes() == expected[name].tobytes() for name in expected)


class TestRetrainFromScratch:
    def test_trains_a_fresh_model_for_every_epoch(self, base_training, updated_database):
        new_pairs = build_training_pairs(updated_database, count=30, seed=18)
        crn_config = CRNConfig(hidden_size=8, seed=1)
        config = TrainingConfig(batch_size=8, early_stopping_patience=1)
        result = retrain_from_scratch(updated_database, new_pairs, crn_config, config, epochs=3)
        # Patience and the epoch count of the config do not apply: every
        # requested epoch runs, on the given architecture.
        assert result.epochs_run == 3 and not result.stopped_early
        assert result.model.config == crn_config
        assert result.featurizer.database is updated_database
        assert all(parameter.data.flags.owndata for parameter in result.model.parameters())

    def test_labels_raw_pairs_against_the_updated_snapshot(self, updated_database):
        raw_pairs = QueryGenerator(updated_database, GeneratorConfig(seed=7)).generate_pairs(15)
        labelled = label_pairs(
            updated_database, raw_pairs, oracle=TrueCardinalityOracle(updated_database)
        )
        crn_config = CRNConfig(hidden_size=8, seed=1)
        config = TrainingConfig(batch_size=8)
        from_raw = retrain_from_scratch(updated_database, raw_pairs, crn_config, config, epochs=1)
        from_labelled = retrain_from_scratch(
            updated_database, labelled, crn_config, config, epochs=1
        )
        state, expected = from_raw.model.state_dict(), from_labelled.model.state_dict()
        assert all(state[name].tobytes() == expected[name].tobytes() for name in expected)

    def test_rejects_empty_pairs(self, updated_database):
        with pytest.raises(ValueError, match="at least one new pair"):
            retrain_from_scratch(updated_database, [], CRNConfig(hidden_size=8), epochs=1)


class TestQueriesPoolRefresh:
    def test_cardinalities_match_updated_snapshot(self, imdb_small, imdb_oracle, updated_database):
        labelled = build_queries_pool_queries(imdb_small, count=25, oracle=imdb_oracle)
        pool = QueriesPool.from_labeled_queries(labelled)
        refreshed = refresh_queries_pool(pool, updated_database)
        assert len(refreshed) == len(pool)
        updated_oracle = TrueCardinalityOracle(updated_database)
        for entry in refreshed:
            assert entry.cardinality == updated_oracle.cardinality(entry.query)
