"""Unit tests for the autodiff engine, including numerical gradient checks."""

import numpy as np
import pytest

from tests.autodiff import Tensor, concatenate, no_grad


def numerical_gradient(function, array: np.ndarray, epsilon: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of one array."""
    gradient = np.zeros_like(array, dtype=np.float64)
    flat = array.reshape(-1)
    gradient_flat = gradient.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + epsilon
        upper = function(array)
        flat[index] = original - epsilon
        lower = function(array)
        flat[index] = original
        gradient_flat[index] = (upper - lower) / (2 * epsilon)
    return gradient


def check_gradient(build, shape, seed=0, atol=1e-5):
    """Compare autodiff gradients against numerical differentiation."""
    rng = np.random.default_rng(seed)
    array = rng.normal(size=shape)

    tensor = Tensor(array.copy(), requires_grad=True)
    output = build(tensor)
    output.backward()

    def scalar(values: np.ndarray) -> float:
        return float(build(Tensor(values)).numpy())

    expected = numerical_gradient(scalar, array.copy())
    np.testing.assert_allclose(tensor.grad, expected, atol=atol)


class TestGradients:
    def test_addition_and_scaling(self):
        check_gradient(lambda t: (t * 3.0 + 1.5).sum(), (4, 3))

    def test_subtraction_and_division(self):
        check_gradient(lambda t: ((t - 0.5) / 2.0).sum(), (5,))

    def test_elementwise_product(self):
        check_gradient(lambda t: (t * t).sum(), (3, 3))

    def test_matmul(self):
        rng = np.random.default_rng(1)
        other = rng.normal(size=(4, 2))
        check_gradient(lambda t: (t @ Tensor(other)).sum(), (3, 4))

    def test_relu(self):
        check_gradient(lambda t: t.relu().sum(), (6,), seed=3)

    def test_sigmoid(self):
        check_gradient(lambda t: t.sigmoid().sum(), (6,))

    def test_exp_and_log(self):
        check_gradient(lambda t: (t.exp() + 2.0).log().sum(), (5,))

    def test_abs(self):
        check_gradient(lambda t: t.abs().sum(), (7,), seed=5)

    def test_maximum(self):
        check_gradient(lambda t: t.maximum(0.25).sum(), (6,), seed=7)

    def test_power(self):
        check_gradient(lambda t: (t * t * t).sum(), (4,))

    def test_mean_over_axis(self):
        check_gradient(lambda t: t.mean(axis=1).sum(), (3, 5))

    def test_sum_keepdims(self):
        check_gradient(lambda t: (t.sum(axis=0, keepdims=True) * 2.0).sum(), (3, 4))

    def test_reshape(self):
        check_gradient(lambda t: t.reshape(6).sum(), (2, 3))

    def test_broadcast_add(self):
        rng = np.random.default_rng(2)
        bias = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
        data = Tensor(rng.normal(size=(3, 4)))
        output = (data + bias).sum()
        output.backward()
        np.testing.assert_allclose(bias.grad, np.full((1, 4), 3.0))

    def test_concatenate(self):
        rng = np.random.default_rng(4)
        left = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        right = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        concatenate([left, right], axis=1).sum().backward()
        np.testing.assert_allclose(left.grad, np.ones((2, 3)))
        np.testing.assert_allclose(right.grad, np.ones((2, 2)))

    def test_clip_min_gradient_masks_clamped_entries(self):
        tensor = Tensor(np.array([-1.0, 0.5, 2.0]), requires_grad=True)
        tensor.clip_min(0.0).sum().backward()
        np.testing.assert_allclose(tensor.grad, [0.0, 1.0, 1.0])

    def test_gradient_accumulates_over_reuse(self):
        tensor = Tensor(np.array([2.0]), requires_grad=True)
        (tensor * 3.0 + tensor * 4.0).sum().backward()
        np.testing.assert_allclose(tensor.grad, [7.0])


class TestMechanics:
    def test_no_grad_disables_graph(self):
        tensor = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            output = (tensor * 2.0).sum()
        assert not output.requires_grad
        with pytest.raises(RuntimeError):
            output.backward()

    def test_no_grad_is_thread_local(self):
        # Regression: grad mode used to be one process-wide flag, so
        # concurrent no_grad enter/exit across serving threads could restore
        # a stale "previous" and leave gradient tracking off for the whole
        # process — after which freshly built models had zero trainable
        # parameters.  Each thread's inference mode must be independent.
        import threading

        entered = threading.Event()
        release = threading.Event()
        worker_saw: list[bool] = []

        def worker():
            with no_grad():
                entered.set()
                release.wait(5.0)
                worker_saw.append(Tensor(1.0, requires_grad=True).requires_grad)

        thread = threading.Thread(target=worker)
        thread.start()
        assert entered.wait(5.0)
        # Another thread's inference mode must not leak into this one ...
        assert Tensor(1.0, requires_grad=True).requires_grad
        release.set()
        thread.join()
        # ... and the worker's own no_grad stayed in force throughout.
        assert worker_saw == [False]
        assert Tensor(1.0, requires_grad=True).requires_grad

    def test_backward_requires_scalar_without_gradient(self):
        tensor = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(RuntimeError):
            (tensor * 2.0).backward()

    def test_backward_on_non_grad_tensor_raises(self):
        with pytest.raises(RuntimeError):
            Tensor(np.ones(2)).backward()

    def test_matmul_requires_2d(self):
        with pytest.raises(ValueError):
            Tensor(np.ones(3)) @ Tensor(np.ones(3))

    def test_detach_and_item(self):
        tensor = Tensor(np.array([1.5]), requires_grad=True)
        assert tensor.detach().requires_grad is False
        assert tensor.item() == pytest.approx(1.5)

    def test_zero_grad(self):
        tensor = Tensor(np.ones(2), requires_grad=True)
        (tensor * 2.0).sum().backward()
        assert tensor.grad is not None
        tensor.zero_grad()
        assert tensor.grad is None

    def test_sigmoid_is_numerically_stable(self):
        extreme = Tensor(np.array([-1000.0, 1000.0]))
        values = extreme.sigmoid().numpy()
        assert np.all(np.isfinite(values))
        assert values[0] == pytest.approx(0.0, abs=1e-12)
        assert values[1] == pytest.approx(1.0, abs=1e-12)
