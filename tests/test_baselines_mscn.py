"""Unit tests for the MSCN baseline (featurizer, normalizer, model, training)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.baselines.mscn import (
    CardinalityNormalizer,
    MSCNConfig,
    MSCNEstimator,
    MSCNFeaturizer,
    MSCNModel,
    MSCNTrainer,
    MSCNTrainingConfig,
    forward,
    train_mscn,
)
from repro.core.metrics import q_errors
from repro.datasets.pairs import mscn_training_set
from repro.datasets.workloads import build_training_pairs
from repro.nn.data import BatchIterator, train_validation_split
from repro.sql.builder import QueryBuilder
from tests.autodiff import (
    Adam,
    Tensor,
    denormalize,
    mscn_forward,
    mscn_layers,
    mscn_loss,
    no_grad,
    track,
    zero_grad,
)


def _example_query():
    return (
        QueryBuilder()
        .table("title", "t")
        .table("movie_companies", "mc")
        .join("t.id", "mc.movie_id")
        .where("t.production_year", ">", 2000)
        .build()
    )


class TestNormalizer:
    def test_round_trip(self):
        normalizer = CardinalityNormalizer.fit([1, 10, 100, 100_000])
        cards = np.array([1.0, 50.0, 99_000.0])
        recovered = normalizer.denormalize(normalizer.normalize(cards))
        np.testing.assert_allclose(recovered, cards, rtol=1e-6)

    def test_normalized_values_in_unit_interval(self):
        normalizer = CardinalityNormalizer.fit([5, 500, 50_000])
        values = normalizer.normalize([1, 5, 500, 50_000, 10_000_000])
        assert np.all((values >= 0.0) & (values <= 1.0))

    def test_degenerate_fit_does_not_divide_by_zero(self):
        normalizer = CardinalityNormalizer.fit([7, 7, 7])
        assert np.isfinite(normalizer.normalize([7])[0])

    def test_tensor_denormalization_matches_numpy(self):
        normalizer = CardinalityNormalizer.fit([1, 10, 1000])
        values = np.array([0.0, 0.5, 1.0])
        np.testing.assert_allclose(
            denormalize(normalizer, Tensor(values)).numpy(),
            normalizer.denormalize(values),
            rtol=1e-9,
        )


class TestFeaturizer:
    def test_vector_sizes(self, imdb_small):
        featurizer = MSCNFeaturizer(imdb_small, MSCNConfig(hidden_size=8))
        assert featurizer.table_vector_size == len(imdb_small.schema.tables)
        assert featurizer.join_vector_size == len(imdb_small.schema.join_edges())
        assert featurizer.predicate_vector_size == len(imdb_small.schema.qualified_columns()) + 3 + 1

    def test_sample_bitmaps_extend_table_vectors(self, imdb_small):
        config = MSCNConfig(hidden_size=8, use_samples=True, sample_size=50)
        featurizer = MSCNFeaturizer(imdb_small, config)
        assert featurizer.table_vector_size == len(imdb_small.schema.tables) + 50
        tables, joins, predicates = featurizer.featurize(_example_query())
        assert tables.shape[1] == featurizer.table_vector_size
        # The bitmap segment is non-trivial (some sampled rows satisfy the predicate).
        assert tables[:, len(imdb_small.schema.tables) :].sum() > 0

    def test_set_sizes_match_query_structure(self, imdb_small):
        featurizer = MSCNFeaturizer(imdb_small, MSCNConfig(hidden_size=8))
        tables, joins, predicates = featurizer.featurize(_example_query())
        assert tables.shape[0] == 2
        assert joins.shape[0] == 1
        assert predicates.shape[0] == 1

    def test_empty_join_and_predicate_sets(self, imdb_small):
        featurizer = MSCNFeaturizer(imdb_small, MSCNConfig(hidden_size=8))
        tables, joins, predicates = featurizer.featurize(
            QueryBuilder().table("title", "t").build()
        )
        assert tables.shape[0] == 1
        assert joins.shape[0] == 0
        assert predicates.shape[0] == 0

    def test_batch_padding_handles_empty_sets(self, imdb_small):
        featurizer = MSCNFeaturizer(imdb_small, MSCNConfig(hidden_size=8))
        batch = featurizer.featurize_batch(
            [QueryBuilder().table("title", "t").build(), _example_query()]
        )
        tables, table_mask, joins, join_mask, predicates, predicate_mask = batch
        assert table_mask[0].sum() == 1
        assert join_mask[0].sum() == 0
        assert join_mask[1].sum() == 1
        assert predicate_mask[0].sum() == 0


class TestModelAndTraining:
    def test_forward_output_in_unit_interval(self, imdb_small):
        config = MSCNConfig(hidden_size=8, seed=2)
        featurizer = MSCNFeaturizer(imdb_small, config)
        model = MSCNModel(
            featurizer.table_vector_size,
            featurizer.join_vector_size,
            featurizer.predicate_vector_size,
            config,
        )
        batch = featurizer.featurize_batch([_example_query()] * 3)
        output = model.predict(batch)
        assert output.shape == (3,)
        assert np.all((output >= 0.0) & (output <= 1.0))

    @pytest.fixture(scope="class")
    def trained(self, request):
        imdb_small = request.getfixturevalue("imdb_small")
        imdb_oracle = request.getfixturevalue("imdb_oracle")
        pairs = build_training_pairs(imdb_small, count=120, seed=9, oracle=imdb_oracle)
        labelled = mscn_training_set(imdb_small, pairs, oracle=imdb_oracle)
        result = train_mscn(
            imdb_small,
            labelled,
            MSCNConfig(hidden_size=16, seed=1),
            MSCNTrainingConfig(epochs=8, batch_size=32),
        )
        return imdb_small, labelled, result

    def test_training_records_history_and_improves(self, trained):
        _, _, result = trained
        assert len(result.history) == 8 or result.best_epoch <= len(result.history)
        assert result.best_validation_q_error < result.history[0]["validation_mean_q_error"] * 10

    def test_estimator_produces_positive_cardinalities(self, trained):
        imdb_small, labelled, result = trained
        estimator = result.estimator()
        estimates = estimator.estimate_cardinalities([item.query for item in labelled[:10]])
        assert all(estimate >= 1.0 for estimate in estimates)

    def test_estimator_name_reflects_variant(self, imdb_small):
        config = MSCNConfig(hidden_size=8)
        featurizer = MSCNFeaturizer(imdb_small, config)
        model = MSCNModel(
            featurizer.table_vector_size,
            featurizer.join_vector_size,
            featurizer.predicate_vector_size,
            config,
        )
        normalizer = CardinalityNormalizer.fit([1, 10])
        assert MSCNEstimator(model, featurizer, normalizer).name == "MSCN"

    def test_training_rejects_empty_input(self, imdb_small):
        with pytest.raises(ValueError):
            train_mscn(imdb_small, [])

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            MSCNConfig(hidden_size=0)
        with pytest.raises(ValueError):
            MSCNConfig(sample_size=0)


# --------------------------------------------------------------------------- #
# the fused step against the autodiff oracle


def _pad(sets, vector_size):
    """``MSCNFeaturizer.pad_batch`` for raw matrices: padded batch + validity mask."""
    width = max(max(len(vectors) for vectors in sets), 1)
    batch, mask = np.zeros((len(sets), width, vector_size)), np.zeros((len(sets), width, 1))
    for index, vectors in enumerate(sets):
        batch[index, : len(vectors)] = vectors
        mask[index, : len(vectors), 0] = 1.0
    return batch, mask


def mscn_batch(
    seed, count, bitmap, largest_join, largest_predicate, log_range, cardinalities, hidden_size
):
    """Model, normalizer and one featurized batch of ``count`` synthetic queries.

    Table rows are one-hot over 4 tables plus ``bitmap`` sample bits (the
    MSCN1000 layout); queries have 0-``largest_join`` join rows (one-hot over
    3 edges) and 0-``largest_predicate`` predicate rows (5 columns, 3
    operators, a value), so a batch can hold empty sets or be all empty sets.
    """
    rng = np.random.default_rng(seed)
    sizes = (4 + bitmap, 3, 9)

    def rows(kind, number):
        vectors = np.zeros((number, sizes[kind]))
        if kind == 0:
            vectors[np.arange(number), rng.integers(0, 4, number)] = 1.0
            vectors[:, 4:] = rng.integers(0, 2, (number, bitmap))
        elif kind == 1:
            vectors[np.arange(number), rng.integers(0, 3, number)] = 1.0
        else:
            vectors[np.arange(number), rng.integers(0, 5, number)] = 1.0
            vectors[np.arange(number), 5 + rng.integers(0, 3, number)] = 1.0
            vectors[:, -1] = rng.random(number)
        return vectors

    largest = (3, largest_join, largest_predicate)
    smallest = (1, 0, 0)
    batch = []
    for kind in range(3):
        sets = [rows(kind, rng.integers(smallest[kind], largest[kind] + 1)) for _ in range(count)]
        batch.extend(_pad(sets, sizes[kind]))
    model = track(MSCNModel(*sizes, MSCNConfig(hidden_size=hidden_size, seed=seed % 50)))
    for parameter in model.parameters():  # zero-initialised biases would hide their paths
        parameter.data = parameter.data + rng.normal(scale=0.3, size=parameter.data.shape)
    normalizer = CardinalityNormalizer(min_log=log_range[0], max_log=log_range[1])
    return model, normalizer, batch, np.asarray(cardinalities, dtype=np.float64)


@st.composite
def mscn_batches(draw):
    """:func:`mscn_batch` over drawn shapes: 1-8 queries."""
    count = draw(st.integers(1, 8))
    return mscn_batch(
        seed=draw(st.integers(0, 2**32 - 1)),
        count=count,
        bitmap=draw(st.sampled_from([0, 6])),
        largest_join=draw(st.integers(0, 3)),  # 0: every join set is empty
        largest_predicate=draw(st.integers(0, 3)),
        # (0, 0.7) clamps every estimate at 1, (0, 1.5) some of them.
        log_range=draw(st.sampled_from([(0.0, 0.7), (0.0, 1.5), (0.0, 12.0), (2.3, 9.2)])),
        # 0 and 1 are both a target of 1.
        cardinalities=draw(
            st.lists(st.sampled_from([0.0, 1.0, 2.0, 37.0, 1e5]), min_size=count, max_size=count)
        ),
        hidden_size=draw(st.sampled_from([4, 8])),
    )


#: No join or predicate in any query, sample bitmaps on, every target 1.
EMPTY_SETS = dict(
    seed=5, count=4, bitmap=6, largest_join=0, largest_predicate=0, log_range=(0.0, 12.0),
    cardinalities=[1.0, 0.0, 1.0, 1.0], hidden_size=8,
)
#: Every estimate clamped at 1: the loss is flat and every gradient 0.
ALL_CLAMPED = dict(
    seed=9, count=5, bitmap=0, largest_join=2, largest_predicate=3, log_range=(0.0, 0.7),
    cardinalities=[37.0, 1.0, 2.0, 1e5, 0.0], hidden_size=4,
)


class TestMSCNFusedStepAgainstAutodiff:
    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=mscn_batches())
    @example(case=mscn_batch(**EMPTY_SETS))
    @example(case=mscn_batch(**ALL_CLAMPED))
    def test_gradients_match_tensor_backward(self, case):
        model, normalizer, batch, cardinalities = case
        trainer = MSCNTrainer(model, normalizer, learning_rate=0.001)
        count = len(cardinalities)
        # The floor of tests/test_core_training.py: two summation orders of a
        # mean of n per-query terms differ by at most 2·n·u·Σ|term|.
        magnitude = [np.zeros_like(gradient) for gradient in trainer.gradients]
        for index in range(count):
            chosen = slice(index, index + 1)
            trainer.loss_and_gradients([part[chosen] for part in batch], cardinalities[chosen])
            for total, term in zip(magnitude, trainer.gradients):
                total += np.abs(term) / count
        unit_roundoff = np.finfo(np.float64).eps / 2
        loss = trainer.loss_and_gradients(batch, cardinalities)

        reference = mscn_loss(model, normalizer, batch, cardinalities)
        reference.backward()
        assert loss == pytest.approx(reference.item(), rel=1e-12, abs=1e-15)
        gradients = zip(model.named_parameters(), trainer.gradients, magnitude)
        for (name, parameter), fused, terms in gradients:
            expected = parameter.grad if parameter.grad is not None else np.zeros_like(fused)
            scale = max(np.abs(expected).max(), np.abs(fused).max())
            floor = 2 * count * unit_roundoff * terms
            assert np.all(np.abs(fused - expected) <= 1e-12 * scale + floor), name

    @pytest.mark.parametrize("use_samples", [False, True])
    def test_estimates_equal_the_tensor_forward_bit_for_bit(self, imdb_small, use_samples):
        config = MSCNConfig(hidden_size=16, seed=4, use_samples=use_samples, sample_size=30)
        featurizer = MSCNFeaturizer(imdb_small, config)
        sizes = (
            featurizer.table_vector_size,
            featurizer.join_vector_size,
            featurizer.predicate_vector_size,
        )
        model = MSCNModel(*sizes, config)
        normalizer = CardinalityNormalizer.fit([1, 40, 100_000])
        # Sets of 0 to 3 rows: a size-3 set divides by a size that is not a power of 2.
        three_predicates = (
            QueryBuilder()
            .table("title", "t")
            .where("t.production_year", ">", 1995)
            .where("t.production_year", "<", 2010)
            .where("t.kind_id", "=", 1)
            .build()
        )
        queries = [_example_query(), QueryBuilder().table("title", "t").build()] * 5
        queries += [three_predicates] * 3
        estimator = MSCNEstimator(model, featurizer, normalizer, batch_size=4)
        reference = track(MSCNModel(*sizes, config))
        weights = [parameter.data for parameter in model.parameters()]
        expected = []
        for start in range(0, len(queries), 4):
            batch = featurizer.featurize_batch(queries[start : start + 4])
            with no_grad():
                combined, hidden, normalized = mscn_layers(
                    reference, *(Tensor(part) for part in batch)
                )
            expected.extend(
                max(float(value), 1.0) for value in normalizer.denormalize(normalized.numpy())
            )
            # The sigmoid can map a 1-ulp change in a pooled vector to the same
            # double, so the layers before it are held to the graph's bits too.
            _, (_, fused_combined, fused_hidden) = forward(weights, batch)
            assert fused_combined.tobytes() == combined.numpy().tobytes()
            assert fused_hidden.tobytes() == hidden.numpy().tobytes()
        assert estimator.estimate_cardinalities(queries) == expected

    @pytest.mark.parametrize("use_samples", [False, True])
    def test_three_epoch_trajectory_matches_a_reference_loop(
        self, imdb_small, imdb_oracle, use_samples
    ):
        """``train_mscn`` against the loop it replaced, rebuilt here from the
        autodiff MSCN + per-parameter ``Adam`` with the same seeds."""
        pairs = build_training_pairs(imdb_small, count=60, seed=9, oracle=imdb_oracle)
        labelled = mscn_training_set(imdb_small, pairs, oracle=imdb_oracle)
        config = MSCNConfig(hidden_size=8, seed=3, use_samples=use_samples, sample_size=30)
        training = MSCNTrainingConfig(epochs=3, batch_size=16, seed=5)
        result = train_mscn(imdb_small, labelled, config, training)

        featurizer, normalizer = result.featurizer, result.normalizer

        def featurized(items):
            batch = featurizer.featurize_batch([item.query for item in items])
            return batch, np.asarray([item.cardinality for item in items], dtype=np.float64)

        train_items, validation_items = train_validation_split(
            list(labelled), training.validation_fraction, seed=training.seed
        )
        (train, train_cards), (validation, validation_cards) = (
            featurized(train_items),
            featurized(validation_items),
        )
        model = track(
            MSCNModel(
                featurizer.table_vector_size,
                featurizer.join_vector_size,
                featurizer.predicate_vector_size,
                config,
            )
        )
        optimizer = Adam(model.parameters(), learning_rate=training.learning_rate)
        iterator = BatchIterator(len(train_items), training.batch_size, seed=training.seed)
        best = (float("inf"), None)
        for stats in result.history:
            losses = []
            for indices in iterator.epoch():
                loss = mscn_loss(
                    model, normalizer, [part[indices] for part in train], train_cards[indices]
                )
                zero_grad(model)
                loss.backward()
                optimizer.step()
                losses.append(loss.item())
            with no_grad():
                normalized = mscn_forward(model, *(Tensor(part) for part in validation)).numpy()
            estimates = np.maximum(normalizer.denormalize(normalized), 1.0)
            q_error = float(q_errors(estimates, np.maximum(validation_cards, 1.0)).mean())
            assert stats["train_loss"] == pytest.approx(float(np.mean(losses)), rel=1e-9)
            assert stats["validation_mean_q_error"] == pytest.approx(q_error, rel=1e-9)
            if q_error < best[0]:
                best = (q_error, model.state_dict())
        assert len(result.history) == 3
        for name, value in result.model.state_dict().items():
            np.testing.assert_allclose(value, best[1][name], rtol=1e-9, atol=1e-12)

    def test_trained_model_owns_its_weights(self, imdb_small, imdb_oracle):
        pairs = build_training_pairs(imdb_small, count=30, seed=2, oracle=imdb_oracle)
        labelled = mscn_training_set(imdb_small, pairs, oracle=imdb_oracle)
        result = train_mscn(
            imdb_small, labelled, MSCNConfig(hidden_size=4), MSCNTrainingConfig(epochs=2)
        )
        assert all(parameter.data.flags.owndata for parameter in result.model.parameters())
