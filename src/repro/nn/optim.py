"""The Adam optimizer (the paper trains with Adam, Section 3.3), on plain arrays."""

from __future__ import annotations

import numpy as np


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
    amount to subtract from the parameters.  Elementwise, so one call over
    a flat parameter vector (:class:`FlatAdam`) gives the bits of one call
    per parameter.
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


class FlatAdam:
    """Adam over a private flat copy of ``parameters``: a fused trainer's state.

    ``flat`` holds six rows — weights, gradients, Adam's two moments and its
    two temporaries — and ``weights`` / ``gradients`` view the first two per
    parameter, in ``parameters`` order.  A trainer writes ``gradients``,
    :meth:`step` applies :func:`adam_update` once over the whole row, and
    :meth:`publish` hands every parameter a fresh copy of its weights, so a
    parameter's ``data`` never aliases this buffer.
    """

    def __init__(self, parameters, learning_rate: float) -> None:
        self.parameters, self.learning_rate = list(parameters), learning_rate
        shapes = [parameter.data.shape for parameter in self.parameters]
        bounds = np.concatenate(([0], np.cumsum([int(np.prod(shape)) for shape in shapes])))
        self.flat = np.zeros((6, bounds[-1]))
        self.flat[0] = np.concatenate([parameter.data.ravel() for parameter in self.parameters])
        self.weights, self.gradients = (
            [row[lo:hi].reshape(shape) for lo, hi, shape in zip(bounds, bounds[1:], shapes)]
            for row in self.flat[:2]
        )
        self.steps = 0

    def step(self) -> None:
        """Subtract one Adam update, from the current ``gradients``, from the weights."""
        weights, gradient, first, second, update, scratch = self.flat
        self.steps += 1
        weights -= adam_update(
            gradient, first, second, self.steps, self.learning_rate, update, scratch
        )

    def publish(self) -> None:
        """Hand every parameter a fresh copy of its current weights."""
        for parameter, weight in zip(self.parameters, self.weights):
            parameter.data = weight.copy()
