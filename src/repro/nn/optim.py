"""Optimizers: SGD and Adam (the paper uses Adam, Section 3.3)."""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor


class Optimizer:
    """Base optimizer holding a parameter list."""

    def __init__(self, parameters: list[Tensor]) -> None:
        if not parameters:
            raise ValueError("optimizer needs at least one parameter")
        self.parameters = parameters

    def zero_grad(self) -> None:
        """Clear gradients of all managed parameters."""
        for parameter in self.parameters:
            parameter.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, parameters: list[Tensor], learning_rate: float = 0.01, momentum: float = 0.0) -> None:
        super().__init__(parameters)
        if learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        self.learning_rate = learning_rate
        self.momentum = momentum
        self._velocity = [np.zeros_like(parameter.data) for parameter in parameters]

    def step(self) -> None:
        """Apply one SGD update using the accumulated gradients."""
        for parameter, velocity in zip(self.parameters, self._velocity):
            if parameter.grad is None:
                continue
            velocity *= self.momentum
            velocity -= self.learning_rate * parameter.grad
            parameter.data = parameter.data + velocity


def adam_update(
    gradient: np.ndarray,
    first: np.ndarray,
    second: np.ndarray,
    step: int,
    learning_rate: float,
    out: np.ndarray,
    scratch: np.ndarray,
    beta1: float = 0.9,
    beta2: float = 0.999,
    epsilon: float = 1e-8,
) -> np.ndarray:
    """One Adam step's arithmetic, allocation-free.

    Advances the moment estimates ``first`` / ``second`` in place by
    ``gradient`` (``step`` counts from 1) and returns ``out`` holding the
    amount to subtract from the parameters.  :class:`Adam` applies it per
    parameter; the fused CRN trainer (:mod:`repro.core.training`) once over
    its flat parameter vector, so the two optimise with the same bits.
    """
    first *= beta1
    np.multiply(gradient, 1.0 - beta1, out=out)
    first += out
    second *= beta2
    np.multiply(gradient, gradient, out=out)
    out *= 1.0 - beta2
    second += out
    np.divide(first, 1.0 - beta1**step, out=out)
    out *= learning_rate
    np.divide(second, 1.0 - beta2**step, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += epsilon
    out /= scratch
    return out


class Adam(Optimizer):
    """The Adam optimizer (Kingma & Ba, 2015)."""

    def __init__(
        self,
        parameters: list[Tensor],
        learning_rate: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        super().__init__(parameters)
        if learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._step_count = 0
        self._first_moment = [np.zeros_like(parameter.data) for parameter in parameters]
        self._second_moment = [np.zeros_like(parameter.data) for parameter in parameters]

    def step(self) -> None:
        """Apply one Adam update using the accumulated gradients."""
        self._step_count += 1
        for parameter, first, second in zip(self.parameters, self._first_moment, self._second_moment):
            if parameter.grad is None:
                continue
            update = adam_update(
                parameter.grad,
                first,
                second,
                self._step_count,
                self.learning_rate,
                np.empty_like(first),
                np.empty_like(first),
                self.beta1,
                self.beta2,
                self.epsilon,
            )
            parameter.data = parameter.data - update
