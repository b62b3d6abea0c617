"""Parameter containers: named float64 arrays the fused kernels read and train."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.nn.init import he_init


class Parameter:
    """One learned array, held as ``data``.

    Trainers and checkpoints replace ``data`` instead of writing into it, so
    an array a reader took from a parameter never changes under it.
    """

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray) -> None:
        self.data = data


class Module:
    """Base class for models: a tree of named parameters.

    Parameter discovery walks instance attributes, so nested modules and
    lists of modules are registered automatically, in attribute order.
    """

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(name, parameter)`` pairs for this module and all sub-modules."""
        for attr_name, attr_value in vars(self).items():
            full_name = f"{prefix}{attr_name}"
            if isinstance(attr_value, Parameter):
                yield full_name, attr_value
            elif isinstance(attr_value, Module):
                yield from attr_value.named_parameters(prefix=f"{full_name}.")
            elif isinstance(attr_value, (list, tuple)):
                for index, item in enumerate(attr_value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{full_name}.{index}.")
                    elif isinstance(item, Parameter):
                        yield f"{full_name}.{index}", item

    def parameters(self) -> list[Parameter]:
        """All learned parameters of this module."""
        return [parameter for _, parameter in self.named_parameters()]

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy all parameters into a plain dict of arrays."""
        return {name: parameter.data.copy() for name, parameter in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter values from :meth:`state_dict` output."""
        parameters = dict(self.named_parameters())
        missing = set(parameters) - set(state)
        unexpected = set(state) - set(parameters)
        if missing or unexpected:
            raise ValueError(
                f"state dict mismatch; missing={sorted(missing)}, unexpected={sorted(unexpected)}"
            )
        for name, parameter in parameters.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != parameter.data.shape:
                raise ValueError(
                    f"parameter {name!r} has shape {parameter.data.shape}, "
                    f"state provides {value.shape}"
                )
            parameter.data = value.copy()


class Linear(Module):
    """The parameters of a fully connected layer ``y = x @ weight + bias``."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator | None = None) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ValueError("layer dimensions must be positive")
        rng = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(he_init(rng, in_features, out_features))
        self.bias = Parameter(np.zeros(out_features))
