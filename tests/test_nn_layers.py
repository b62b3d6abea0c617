"""Unit tests for parameter containers, their autodiff modules and serialization."""

import numpy as np
import pytest

from repro.nn import layers
from repro.nn.serialization import (
    ParameterMismatchError,
    load_parameters,
    read_parameter_metadata,
    save_parameters,
)
from tests.autodiff import Linear, Module, ReLU, Sequential, Sigmoid, Tensor


class TestLinear:
    def test_forward_shape(self):
        layer = Linear(4, 3, rng=np.random.default_rng(0))
        output = layer(Tensor(np.ones((5, 4))))
        assert output.shape == (5, 3)

    def test_parameters_registered(self):
        layer = layers.Linear(4, 3, rng=np.random.default_rng(0))
        names = dict(layer.named_parameters())
        assert set(names) == {"weight", "bias"}
        assert all(type(parameter) is layers.Parameter for parameter in names.values())
        assert sum(parameter.data.size for parameter in layer.parameters()) == 4 * 3 + 3

    def test_tracked_layer_keeps_the_plain_layers_weights(self):
        plain = layers.Linear(4, 3, rng=np.random.default_rng(0))
        tracked = Linear(4, 3, rng=np.random.default_rng(0))
        assert list(plain.state_dict()) == list(tracked.state_dict())
        for value, expected in zip(tracked.state_dict().values(), plain.state_dict().values()):
            assert value.tobytes() == expected.tobytes()

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            layers.Linear(0, 3)


class TestSequentialAndNesting:
    def build(self) -> Sequential:
        rng = np.random.default_rng(1)
        return Sequential(Linear(4, 8, rng=rng), ReLU(), Linear(8, 1, rng=rng), Sigmoid())

    def test_nested_parameter_discovery(self):
        model = self.build()
        names = [name for name, _ in model.named_parameters()]
        assert len(names) == 4
        assert all(name.startswith("modules.") for name in names)

    def test_forward_range_with_sigmoid(self):
        model = self.build()
        output = model(Tensor(np.random.default_rng(2).normal(size=(10, 4)))).numpy()
        assert np.all((output >= 0.0) & (output <= 1.0))

    def test_zero_grad_clears_gradients(self):
        model = self.build()
        output = model(Tensor(np.ones((3, 4)))).sum()
        output.backward()
        assert any(parameter.grad is not None for parameter in model.parameters())
        model.zero_grad()
        assert all(parameter.grad is None for parameter in model.parameters())

    def test_append_returns_self(self):
        model = Sequential(ReLU())
        assert model.append(Sigmoid()) is model
        assert len(model.modules) == 2


class TestStateDict:
    def test_round_trip(self):
        model = Sequential(Linear(3, 2, rng=np.random.default_rng(3)))
        state = model.state_dict()
        clone = Sequential(Linear(3, 2, rng=np.random.default_rng(99)))
        clone.load_state_dict(state)
        inputs = Tensor(np.ones((2, 3)))
        np.testing.assert_allclose(model(inputs).numpy(), clone(inputs).numpy())

    def test_snapshot_is_isolated_from_later_training(self):
        # state_dict must hand back copies, never live parameter arrays: a
        # checkpoint taken before an optimizer step (or a compiled inference
        # plan freezing weights) must not be rewritten by later training.
        model = Sequential(Linear(3, 2, rng=np.random.default_rng(3)))
        state = model.state_dict()
        frozen = {name: value.copy() for name, value in state.items()}
        for parameter in model.parameters():
            parameter.data += 1.0
        for name in state:
            np.testing.assert_array_equal(state[name], frozen[name])
        # And symmetrically: poking the snapshot leaves the model alone.
        live = {name: p.data.copy() for name, p in model.named_parameters()}
        for value in state.values():
            value[...] = -123.0
        for name, parameter in model.named_parameters():
            np.testing.assert_array_equal(parameter.data, live[name])

    def test_missing_key_rejected(self):
        model = Sequential(Linear(3, 2, rng=np.random.default_rng(3)))
        state = model.state_dict()
        state.pop(next(iter(state)))
        with pytest.raises(ValueError, match="missing"):
            model.load_state_dict(state)

    def test_shape_mismatch_rejected(self):
        model = Sequential(Linear(3, 2, rng=np.random.default_rng(3)))
        state = model.state_dict()
        key = next(iter(state))
        state[key] = np.zeros((1, 1))
        with pytest.raises(ValueError, match="shape"):
            model.load_state_dict(state)

    def test_save_and_load_file(self, tmp_path):
        model = Sequential(Linear(3, 2, rng=np.random.default_rng(3)))
        path = tmp_path / "model.npz"
        save_parameters(model, path)
        clone = Sequential(Linear(3, 2, rng=np.random.default_rng(4)))
        load_parameters(clone, path)
        inputs = Tensor(np.ones((2, 3)))
        np.testing.assert_allclose(model(inputs).numpy(), clone(inputs).numpy())

    def test_header_less_archive_rejected(self, tmp_path):
        # The v0 layout: one array per parameter, no metadata header.
        model = Sequential(Linear(3, 2, rng=np.random.default_rng(3)))
        path = tmp_path / "v0.npz"
        np.savez_compressed(path, **model.state_dict())
        before = model.state_dict()
        with pytest.raises(ParameterMismatchError):
            read_parameter_metadata(path)
        with pytest.raises(ParameterMismatchError):
            load_parameters(model, path)
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(value, before[name])


def test_base_module_forward_is_abstract():
    with pytest.raises(NotImplementedError):
        Module().forward(Tensor(np.ones(1)))
