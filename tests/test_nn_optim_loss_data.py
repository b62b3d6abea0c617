"""Unit tests for optimizers, loss functions and data utilities."""

import numpy as np
import pytest

from repro.nn.data import BatchIterator, train_validation_split
from repro.nn.init import he_init, xavier_init
from repro.nn.layers import Parameter
from repro.nn.loss import loss_and_gradient
from repro.nn.optim import FlatAdam
from tests.autodiff import SGD, Adam, Tensor, get_loss, mae_loss, mse_loss, q_error_loss


class TestOptimizers:
    def _minimize(self, optimizer_class, **kwargs) -> float:
        """Minimize ||x - 3||^2 from x=0 and return the final distance."""
        parameter = Tensor(np.zeros(4), requires_grad=True)
        optimizer = optimizer_class([parameter], **kwargs)
        for _ in range(300):
            loss = ((parameter - 3.0) * (parameter - 3.0)).sum()
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        return float(np.abs(parameter.data - 3.0).max())

    def test_sgd_converges_on_quadratic(self):
        assert self._minimize(SGD, learning_rate=0.05) < 1e-3

    def test_sgd_with_momentum_converges(self):
        assert self._minimize(SGD, learning_rate=0.02, momentum=0.9) < 1e-3

    def test_adam_converges_on_quadratic(self):
        assert self._minimize(Adam, learning_rate=0.05) < 1e-2

    def test_step_skips_parameters_without_gradient(self):
        parameter = Tensor(np.ones(2), requires_grad=True)
        optimizer = Adam([parameter])
        optimizer.step()  # no gradient accumulated yet
        np.testing.assert_allclose(parameter.data, np.ones(2))

    def test_invalid_learning_rate_rejected(self):
        parameter = Tensor(np.ones(1), requires_grad=True)
        with pytest.raises(ValueError):
            SGD([parameter], learning_rate=0.0)
        with pytest.raises(ValueError):
            Adam([parameter], learning_rate=-1.0)

    def test_empty_parameter_list_rejected(self):
        with pytest.raises(ValueError):
            Adam([])

    def test_flat_adam_steps_with_the_bits_of_per_parameter_adam(self):
        rng = np.random.default_rng(6)
        shapes = [(3, 4), (4,), (4, 1), (1,)]
        values = [rng.normal(size=shape) for shape in shapes]
        tensors = [Tensor(value.copy(), requires_grad=True) for value in values]
        parameters = [Parameter(value.copy()) for value in values]
        reference, flat = Adam(tensors, learning_rate=0.01), FlatAdam(parameters, 0.01)
        for _ in range(5):
            for tensor, gradient in zip(tensors, flat.gradients):
                tensor.grad = rng.normal(size=tensor.data.shape)
                gradient[...] = tensor.grad
            reference.step()
            flat.step()
        flat.publish()
        for tensor, parameter in zip(tensors, parameters):
            assert parameter.data.tobytes() == tensor.data.tobytes()
            assert not np.shares_memory(parameter.data, flat.flat)


class TestLosses:
    def test_q_error_of_exact_prediction_is_one(self):
        predictions = Tensor(np.array([0.5, 0.1, 0.9]))
        assert q_error_loss(predictions, predictions).item() == pytest.approx(1.0)

    def test_q_error_is_symmetric_in_ratio(self):
        over = q_error_loss(Tensor(np.array([0.4])), Tensor(np.array([0.1]))).item()
        under = q_error_loss(Tensor(np.array([0.1])), Tensor(np.array([0.4]))).item()
        assert over == pytest.approx(under)

    def test_q_error_clamps_zero_targets(self):
        loss = q_error_loss(Tensor(np.array([0.5])), Tensor(np.array([0.0])), epsilon=1e-3)
        assert np.isfinite(loss.item())
        assert loss.item() == pytest.approx(500.0)

    def test_mse_and_mae(self):
        predictions = Tensor(np.array([1.0, 2.0]))
        targets = Tensor(np.array([0.0, 0.0]))
        assert mse_loss(predictions, targets).item() == pytest.approx(2.5)
        assert mae_loss(predictions, targets).item() == pytest.approx(1.5)

    def test_loss_registry(self):
        assert get_loss("q_error") is q_error_loss
        with pytest.raises(KeyError):
            get_loss("huber")
        with pytest.raises(KeyError, match="huber"):
            loss_and_gradient("huber", np.ones(2), np.ones(2))

    def test_losses_are_differentiable(self):
        for loss in (q_error_loss, mse_loss, mae_loss):
            predictions = Tensor(np.array([0.3, 0.6]), requires_grad=True)
            loss(predictions, Tensor(np.array([0.5, 0.5]))).backward()
            assert predictions.grad is not None


class TestDataUtilities:
    def test_split_fractions(self):
        train, validation = train_validation_split(list(range(100)), validation_fraction=0.2, seed=1)
        assert len(validation) == 20
        assert sorted(train + validation) == list(range(100))

    def test_split_is_deterministic(self):
        first = train_validation_split(list(range(50)), seed=3)
        second = train_validation_split(list(range(50)), seed=3)
        assert first == second

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            train_validation_split([1, 2, 3], validation_fraction=1.0)

    def test_small_dataset_keeps_a_nonempty_validation_set(self):
        # Regression: round(2 * 0.2) == 0 used to leave the validation set
        # empty, so early stopping silently "validated" on the training data.
        for size in (2, 3, 4):
            train, validation = train_validation_split(
                list(range(size)), validation_fraction=0.2, seed=0
            )
            assert len(validation) >= 1
            assert len(train) >= 1
            assert sorted(train + validation) == list(range(size))

    def test_training_side_never_empties(self):
        # round(3 * 0.9) == 3 used to hand every item to validation.
        train, validation = train_validation_split(
            list(range(3)), validation_fraction=0.9, seed=0
        )
        assert len(train) >= 1

    def test_single_item_and_zero_fraction_stay_trainable(self):
        train, validation = train_validation_split([1], validation_fraction=0.2)
        assert train == [1] and validation == []
        train, validation = train_validation_split(
            list(range(10)), validation_fraction=0.0
        )
        assert len(train) == 10 and validation == []

    def test_batch_iterator_covers_dataset_each_epoch(self):
        iterator = BatchIterator(num_items=25, batch_size=8, seed=0)
        for _ in range(3):
            indices = np.concatenate(list(iterator.epoch()))
            assert sorted(indices.tolist()) == list(range(25))
        assert len(list(iterator.epoch())) == 4  # ceil(25 / 8) batches

    def test_batch_iterator_rejects_invalid_sizes(self):
        with pytest.raises(ValueError):
            BatchIterator(num_items=0, batch_size=4)
        with pytest.raises(ValueError):
            BatchIterator(num_items=5, batch_size=0)


class TestInitialisers:
    def test_shapes(self):
        rng = np.random.default_rng(0)
        assert xavier_init(rng, 10, 5).shape == (10, 5)
        assert he_init(rng, 10, 5).shape == (10, 5)

    def test_xavier_bounds(self):
        rng = np.random.default_rng(0)
        limit = np.sqrt(6.0 / 15)
        weights = xavier_init(rng, 10, 5)
        assert np.all(np.abs(weights) <= limit + 1e-12)
