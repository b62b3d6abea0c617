"""Unit tests for the CRN training loop."""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.crn import CRNConfig, CRNModel
from repro.core.metrics import q_errors
from repro.core.training import (
    CRNTrainer,
    RaggedPairs,
    TrainingConfig,
    TrainingResult,
    evaluate_pairs_q_error,
    train_crn,
)
from repro.datasets.workloads import build_training_pairs
from repro.nn.data import BatchIterator, train_validation_split
from tests.autodiff import (
    LOSS_FUNCTIONS,
    Adam,
    Tensor,
    crn_forward,
    no_grad,
    pad_sets,
    track,
    zero_grad,
)


@pytest.fixture(scope="module")
def tiny_training_run(request):
    """One shared small training run reused by several assertions."""
    imdb_small = request.getfixturevalue("imdb_small")
    imdb_featurizer = request.getfixturevalue("imdb_featurizer")
    imdb_oracle = request.getfixturevalue("imdb_oracle")
    pairs = build_training_pairs(imdb_small, count=150, seed=4, oracle=imdb_oracle)
    result = train_crn(
        imdb_featurizer,
        pairs,
        crn_config=CRNConfig(hidden_size=16, seed=0),
        training_config=TrainingConfig(epochs=8, batch_size=32, early_stopping_patience=0),
    )
    return pairs, result


class TestTrainingConfig:
    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            TrainingConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainingConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainingConfig(validation_fraction=1.0)
        with pytest.raises(ValueError):
            TrainingConfig(early_stopping_patience=-1)
        with pytest.raises(ValueError):
            TrainingConfig(loss_epsilon=0.0)
        # The fused trainer calls adam_update directly, and a bad loss would
        # only fail at the first step (on the lifecycle's retrain thread).
        for learning_rate in (-0.5, 0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="learning_rate"):
                TrainingConfig(learning_rate=learning_rate)
        with pytest.raises(ValueError, match="nope"):
            TrainingConfig(loss="nope")


class TestTrainCRN:
    def test_history_and_best_epoch_recorded(self, tiny_training_run):
        _, result = tiny_training_run
        assert result.epochs_run == 8
        assert 1 <= result.best_epoch <= 8
        assert result.best_validation_q_error < float("inf")
        epochs = [stats.epoch for stats in result.history]
        assert epochs == list(range(1, 9))

    def test_training_improves_over_first_epoch(self, tiny_training_run):
        _, result = tiny_training_run
        assert result.best_validation_q_error <= result.history[0].validation_mean_q_error

    def test_estimator_outputs_valid_rates(self, tiny_training_run):
        pairs, result = tiny_training_run
        estimator = result.estimator()
        estimates = estimator.estimate_containments([(pair.first, pair.second) for pair in pairs[:20]])
        assert all(0.0 <= value <= 1.0 for value in estimates)

    def test_evaluate_pairs_q_error_shape(self, tiny_training_run):
        pairs, result = tiny_training_run
        errors = evaluate_pairs_q_error(result.estimator(), pairs[:20])
        assert errors.shape == (20,)
        assert np.all(errors >= 1.0)

    def test_evaluate_pairs_q_error_uses_training_epsilon(self, tiny_training_run):
        # Regression: evaluation used to default to epsilon=1e-6 while the
        # training/validation metric floors zero rates at
        # TrainingConfig.loss_epsilon (1e-3), so reported q-errors disagreed
        # with the early-stopping metric on zero-rate pairs.
        pairs, result = tiny_training_run
        estimator = result.estimator()
        config = TrainingConfig()
        by_default = evaluate_pairs_q_error(estimator, pairs[:20])
        from_config = evaluate_pairs_q_error(estimator, pairs[:20], training_config=config)
        explicit = evaluate_pairs_q_error(
            estimator, pairs[:20], epsilon=config.loss_epsilon
        )
        np.testing.assert_array_equal(by_default, explicit)
        np.testing.assert_array_equal(from_config, explicit)
        # A pair with a true rate of exactly 0 is floored at loss_epsilon,
        # not at the old 1e-6: its q-error is estimate/1e-3, 1000x smaller.
        zero_pairs = [pair for pair in pairs if pair.containment_rate == 0.0]
        if zero_pairs:
            old_style = evaluate_pairs_q_error(estimator, zero_pairs[:1], epsilon=1e-6)
            new_style = evaluate_pairs_q_error(estimator, zero_pairs[:1])
            assert new_style[0] <= old_style[0]

    def test_empty_pairs_rejected(self, imdb_featurizer):
        with pytest.raises(ValueError):
            train_crn(imdb_featurizer, [])

    def test_early_stopping_halts_training(self, imdb_small, imdb_featurizer, imdb_oracle):
        # An absurdly large learning rate makes the validation error oscillate,
        # so the patience-based early stopping must kick in well before the
        # epoch budget is exhausted.
        pairs = build_training_pairs(imdb_small, count=60, seed=6, oracle=imdb_oracle)
        result = train_crn(
            imdb_featurizer,
            pairs,
            crn_config=CRNConfig(hidden_size=8, seed=0),
            training_config=TrainingConfig(
                epochs=200, batch_size=16, learning_rate=0.8, early_stopping_patience=3
            ),
        )
        assert result.stopped_early
        assert result.epochs_run < 200
        # The restored weights correspond to the best validation epoch.
        assert result.best_epoch <= result.epochs_run

    @pytest.mark.parametrize("restore_best", [False, True], ids=["last", "best"])
    def test_fit_publishes_once_after_its_loop(
        self, imdb_small, imdb_featurizer, imdb_oracle, restore_best
    ):
        pairs = build_training_pairs(imdb_small, count=40, seed=6, oracle=imdb_oracle)
        model = CRNModel(imdb_featurizer.vector_size, CRNConfig(hidden_size=8, seed=1))
        initial = {name: value.tobytes() for name, value in model.state_dict().items()}
        trainer = CRNTrainer(model, TrainingConfig(epochs=3, batch_size=16))
        step, publish = trainer.step, trainer.publish
        # Per step: whether the model still holds its initial weights.
        untouched, published = [], []

        def watched_step(*args):
            state = model.state_dict()
            untouched.append(all(state[name].tobytes() == initial[name] for name in initial))
            return step(*args)

        def watched_publish():
            published.append(len(untouched))
            publish()

        trainer.step, trainer.publish = watched_step, watched_publish
        result = trainer.fit(
            TrainingResult(model=model, featurizer=imdb_featurizer),
            RaggedPairs.featurize(imdb_featurizer, pairs),
            restore_best=restore_best,
        )
        assert result.epochs_run == 3
        assert len(untouched) > 3 and all(untouched)
        assert published == [len(untouched)]
        state = model.state_dict()
        assert any(state[name].tobytes() != initial[name] for name in initial)

    def test_mse_loss_option_trains(self, imdb_small, imdb_featurizer, imdb_oracle):
        pairs = build_training_pairs(imdb_small, count=60, seed=7, oracle=imdb_oracle)
        result = train_crn(
            imdb_featurizer,
            pairs,
            crn_config=CRNConfig(hidden_size=8, seed=0),
            training_config=TrainingConfig(epochs=3, batch_size=16, loss="mse"),
        )
        assert result.epochs_run == 3


# --------------------------------------------------------------------------- #
# the fused step against the autodiff oracle


def ragged_pairs(first_sets, second_sets, targets) -> RaggedPairs:
    """From one ``(set size, L)`` matrix per pair and side: each side as
    ``(rows, counts)``, which the constructor dedups into its vocabulary."""
    first, second = (
        (np.concatenate(sets), [len(vectors) for vectors in sets])
        for sets in (first_sets, second_sets)
    )
    return RaggedPairs(first, second, targets)


def _reference_loss(model, config, first_sets, second_sets, targets) -> Tensor:
    """The training loss through the autodiff CRN of a tracked ``model``."""
    predictions = crn_forward(model, *pad_sets(first_sets), *pad_sets(second_sets))
    loss = LOSS_FUNCTIONS[config.loss]
    if config.loss in ("q_error", "log_q_error"):
        return loss(predictions, Tensor(targets), epsilon=config.loss_epsilon)
    return loss(predictions, Tensor(targets))


def ragged_batch(
    seed,
    batch,
    largest_set,
    vector_size,
    palette_share,
    shared_pairs,
    repeat_row,
    targets,
    hidden_size,
    pooling,
    use_expand,
    model_seed,
    loss,
    loss_epsilon,
):
    """Model, config and one ragged batch: ``batch`` pairs, sets of 1-``largest_set`` vectors.

    Rows repeat as featurized rows do: part of every set comes from a small
    palette of one-hot and dense rows, so a row recurs across sets and within
    one.  ``shared_pairs`` pairs share one first-side set, and with
    ``repeat_row`` one second-side set holds a row twice.
    """
    rng = np.random.default_rng(seed)
    palette = np.concatenate((np.eye(vector_size), rng.normal(size=(2, vector_size))))

    def vector_set():
        vectors = rng.normal(size=(rng.integers(1, largest_set + 1), vector_size))
        picked = rng.random(len(vectors)) < palette_share
        vectors[picked] = palette[rng.integers(len(palette), size=picked.sum())]
        return vectors

    sides = [[vector_set() for _ in range(batch)] for _ in range(2)]
    shared = vector_set()
    for index in rng.choice(batch, size=shared_pairs, replace=False):
        sides[0][index] = shared
    if repeat_row:
        sides[1][0] = np.concatenate((sides[1][0], sides[1][0][:1]))
    model = track(
        CRNModel(
            vector_size,
            CRNConfig(
                hidden_size=hidden_size, pooling=pooling, use_expand=use_expand, seed=model_seed
            ),
        )
    )
    for parameter in model.parameters():  # zero-initialised biases would hide their paths
        parameter.data = parameter.data + rng.normal(scale=0.3, size=parameter.data.shape)
    config = TrainingConfig(loss=loss, loss_epsilon=loss_epsilon)
    return model, config, sides, np.asarray(targets)


@st.composite
def ragged_batches(draw):
    """:func:`ragged_batch` over drawn shapes: 1-9 pairs, sets of 1-6 vectors."""
    seed = draw(st.integers(0, 2**32 - 1))
    batch = draw(st.integers(1, 9))
    return ragged_batch(
        seed=seed,
        batch=batch,
        largest_set=draw(st.integers(1, 6)),  # 1: every set is a single vector
        vector_size=draw(st.integers(2, 5)),
        palette_share=draw(st.sampled_from([0.0, 0.5, 0.9])),  # 0: no row repeats by chance
        shared_pairs=draw(st.integers(0, batch)),
        repeat_row=draw(st.booleans()),
        # Exact 0 and 1 exercise the target clamp; a large epsilon, the prediction clamp.
        targets=draw(
            st.lists(
                st.sampled_from([0.0, 1.0, 0.25, 0.6, 1e-4]), min_size=batch, max_size=batch
            )
        ),
        hidden_size=draw(st.sampled_from([4, 8])),
        pooling=draw(st.sampled_from(["average", "sum"])),
        use_expand=draw(st.booleans()),
        model_seed=draw(st.integers(0, 50)),
        loss=draw(st.sampled_from(sorted(LOSS_FUNCTIONS))),
        loss_epsilon=draw(st.sampled_from([1e-3, 0.3, 0.55])),
    )


#: Two identical pairs whose targets straddle their shared prediction (1e-4
#: and 1.0): the two log-q-error terms cancel, so every true gradient is 0
#: and both steps return float64 rounding noise (about 1.8e-16 at most).
CANCELLING_PAIRS = dict(
    seed=1871657337, batch=2, largest_set=1, vector_size=2, palette_share=0.9,
    shared_pairs=0, repeat_row=False, targets=[1e-4, 1.0], hidden_size=8,
    pooling="average", use_expand=False, model_seed=28, loss="log_q_error",
    loss_epsilon=1e-3,
)
#: A batch whose ``out_final.bias`` gradient, a sum of three per-pair terms
#: with a batch gradient scale near 1, cancels to 6.7e-6: the two summation
#: orders differ by 2.8e-17, above 1e-12 of the sum.
CANCELLING_BIAS = dict(
    seed=641795013, batch=3, largest_set=5, vector_size=4, palette_share=0.9,
    shared_pairs=1, repeat_row=False, targets=[1.0, 0.25, 1e-4], hidden_size=8,
    pooling="sum", use_expand=True, model_seed=8, loss="mae", loss_epsilon=0.55,
)


class TestFusedStepAgainstAutodiff:
    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=ragged_batches())
    @example(case=ragged_batch(**CANCELLING_PAIRS))
    @example(case=ragged_batch(**CANCELLING_BIAS))
    def test_gradients_match_tensor_backward(self, case):
        model, config, (first_sets, second_sets), targets = case
        trainer = CRNTrainer(model, config)
        data = ragged_pairs(first_sets, second_sets, targets)
        count = len(data)
        # A gradient is the mean of per-pair terms, which the fused step and
        # autodiff sum in different orders.  Two orders of a float64 sum of
        # n terms differ by at most 2·n·u·Σ|term| (u the unit roundoff): the
        # floor for a gradient whose terms cancel, where 1e-12 of the
        # (near-zero) result would hold rounding noise to a bound it cannot meet.
        magnitude = [np.zeros_like(gradient) for gradient in trainer.gradients]
        for index in range(count):
            trainer.loss_and_gradients(data, index, index + 1)
            for total, term in zip(magnitude, trainer.gradients):
                total += np.abs(term) / count
        unit_roundoff = np.finfo(np.float64).eps / 2
        loss = trainer.loss_and_gradients(data, 0, count)

        reference = _reference_loss(model, config, first_sets, second_sets, targets)
        reference.backward()
        assert loss == pytest.approx(reference.item(), rel=1e-12, abs=1e-15)
        gradients = zip(model.named_parameters(), trainer.gradients, magnitude)
        for (name, parameter), fused, terms in gradients:
            expected = parameter.grad if parameter.grad is not None else np.zeros_like(fused)
            scale = max(np.abs(expected).max(), np.abs(fused).max())
            floor = 2 * count * unit_roundoff * terms
            assert np.all(np.abs(fused - expected) <= 1e-12 * scale + floor), name

    def test_empty_set_is_rejected(self):
        vectors = np.ones((2, 3))
        with pytest.raises(ValueError, match="non-empty"):
            ragged_pairs([vectors, np.empty((0, 3))], [vectors, vectors], [0.5, 0.5])

    def test_vocabulary_holds_each_given_row_once(self):
        rng = np.random.default_rng(8)
        # One-hot rows, a predicate-like row, and 0.0 / -0.0 rows, which are
        # equal but not the same bytes: both must come back as given.
        palette = np.concatenate(
            (np.eye(4), [[0.0, 0.0, 1.0, 0.37]], np.zeros((1, 4)), np.full((1, 4), -0.0))
        )
        first, second = (
            [palette[rng.integers(len(palette), size=size)] for size in rng.integers(1, 6, size=12)]
            for _ in range(2)
        )
        data = ragged_pairs(first, second, rng.random(12))
        for sets, (vocabulary, ids, offsets) in zip((first, second), data.sides):
            assert vocabulary[ids].tobytes() == np.concatenate(sets).tobytes()
            assert len({row.tobytes() for row in vocabulary}) == len(vocabulary) < len(ids)
            assert offsets.tolist() == [0, *np.cumsum([len(vectors) for vectors in sets])]

    def test_featurize_shares_one_vocabulary_of_the_featurized_rows(
        self, imdb_small, imdb_featurizer, imdb_oracle
    ):
        pairs = build_training_pairs(imdb_small, count=80, seed=9, oracle=imdb_oracle)
        data = RaggedPairs.featurize(imdb_featurizer, pairs)
        assert data.sides[0][0] is data.sides[1][0]
        vocabulary = data.sides[0][0]
        assert len({row.tobytes() for row in vocabulary}) == len(vocabulary)
        for side, (_, ids, offsets) in zip(("first", "second"), data.sides):
            sets = [imdb_featurizer.featurize(getattr(pair, side)) for pair in pairs]
            assert vocabulary[ids].tobytes() == np.concatenate(sets).tobytes()
            assert np.diff(offsets).tolist() == [len(vectors) for vectors in sets]
            assert len(vocabulary) < len(ids)

    def test_row_count_must_match_the_set_sizes(self):
        vectors = np.ones((3, 2))
        for rows in (np.ones((4, 2)), np.ones((2, 2))):
            with pytest.raises(ValueError, match="rows for set sizes summing to 3"):
                RaggedPairs((rows, [1, 2]), (vectors, [2, 1]), [0.5, 0.5])

    def test_take_lays_pairs_out_in_the_requested_order(self):
        sets = [np.full((size, 2), float(size)) for size in (1, 3, 2)]
        data = ragged_pairs(sets, sets[::-1], [0.1, 0.2, 0.3])
        taken = data.take([2, 0])
        vocabulary, ids, offsets = taken.sides[0]
        assert vocabulary is data.sides[0][0]  # ids are gathered, rows are not
        assert vocabulary.tolist() == [[1.0, 1.0], [3.0, 3.0], [2.0, 2.0]]
        assert offsets.tolist() == [0, 2, 3] and ids.tolist() == [2, 2, 0]
        vocabulary, ids, _ = taken.sides[1]
        assert vocabulary[ids][:, 0].tolist() == [1.0, 2.0, 2.0]
        assert taken.targets.tolist() == [0.3, 0.1]

    def test_take_equals_building_from_the_reordered_sets(self):
        rng = np.random.default_rng(4)
        first, second = (
            [rng.integers(0, 2, (size, 3)).astype(float) for size in rng.integers(1, 7, size=15)]
            for _ in range(2)
        )
        targets, order = rng.random(15), rng.permutation(15)[:11]
        taken = ragged_pairs(first, second, targets).take(order)
        rebuilt = ragged_pairs(
            [first[i] for i in order], [second[i] for i in order], targets[order]
        )
        assert taken.targets.tolist() == rebuilt.targets.tolist()
        for (vocabulary, ids, offsets), (expected, expected_ids, expected_offsets) in zip(
            taken.sides, rebuilt.sides
        ):
            assert offsets.tolist() == expected_offsets.tolist()
            np.testing.assert_array_equal(vocabulary[ids], expected[expected_ids])

    def test_three_epoch_trajectory_matches_a_reference_loop(
        self, imdb_small, imdb_featurizer, imdb_oracle
    ):
        """``train_crn`` against the loop it replaced, rebuilt here from the
        autodiff CRN + per-parameter ``Adam`` with the same seeds."""
        pairs = build_training_pairs(imdb_small, count=90, seed=9, oracle=imdb_oracle)
        crn_config = CRNConfig(hidden_size=8, seed=3)
        config = TrainingConfig(epochs=3, batch_size=16, seed=5)
        result = train_crn(imdb_featurizer, pairs, crn_config, config)

        def featurized(chosen):
            return (
                [imdb_featurizer.featurize(pair.first) for pair in chosen],
                [imdb_featurizer.featurize(pair.second) for pair in chosen],
                np.asarray([pair.containment_rate for pair in chosen]),
            )

        train_pairs, validation_pairs = train_validation_split(
            list(pairs), config.validation_fraction, seed=config.seed
        )
        train, validation = featurized(train_pairs), featurized(validation_pairs)
        model = track(CRNModel(imdb_featurizer.vector_size, crn_config))
        optimizer = Adam(model.parameters(), learning_rate=config.learning_rate)
        iterator = BatchIterator(len(train_pairs), config.batch_size, seed=config.seed)
        for stats in result.history:
            losses = []
            for indices in iterator.epoch():
                loss = _reference_loss(
                    model,
                    config,
                    [train[0][i] for i in indices],
                    [train[1][i] for i in indices],
                    train[2][indices],
                )
                zero_grad(model)
                loss.backward()
                optimizer.step()
                losses.append(loss.item())
            with no_grad():
                predictions = crn_forward(model, *pad_sets(validation[0]), *pad_sets(validation[1])).numpy()
            errors = q_errors(predictions, validation[2], epsilon=config.loss_epsilon)
            assert stats.train_loss == pytest.approx(float(np.mean(losses)), rel=1e-9)
            assert stats.validation_mean_q_error == pytest.approx(
                float(np.exp(np.mean(np.log(errors)))), rel=1e-9
            )
        assert result.epochs_run == 3

    def test_trained_model_owns_its_weights(self, tiny_training_run):
        _, result = tiny_training_run
        assert all(parameter.data.flags.owndata for parameter in result.model.parameters())
