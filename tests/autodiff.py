"""The autodiff reference the fused kernels of ``src/`` are checked against.

``src/`` computes every forward and backward pass on plain arrays
(:class:`repro.core.training.CRNTrainer`,
:class:`repro.baselines.mscn.MSCNTrainer`, :func:`repro.core.crn.pair_head`).
This module is the independent oracle those kernels are held to: a small
reverse-mode automatic-differentiation engine over NumPy arrays, the modules,
optimizers and losses built on it, and the CRN and MSCN forward passes
written on it, primitive by primitive.

* elementwise: ``+ - * /``, ``abs``, ``maximum``, ``exp``, ``log``, ``clip``
* matrix multiply (2-D)
* activations: ``relu``, ``sigmoid``
* shape: ``reshape``, ``concatenate``; basic indexing is intentionally omitted
* reductions: ``sum`` / ``mean`` over an axis or all elements

Gradients are accumulated into ``Tensor.grad`` by :meth:`Tensor.backward`,
which runs a topological sort over the recorded computation graph.  A model
of ``src/`` takes part once :func:`track` has made its parameters leaves.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.nn import layers
from repro.nn.layers import Parameter
from repro.nn.optim import adam_update

#: Graph-construction mode is **per thread**.  A process-wide flag would race
#: when threads enter and exit ``no_grad`` concurrently: interleaved
#: save/restore pairs can restore a stale ``previous`` and leave gradient
#: tracking off for every thread.  Thread-local state makes each thread's
#: ``no_grad`` blocks independent, matching how PyTorch scopes its grad mode.
_GRAD_STATE = threading.local()


def _grad_enabled() -> bool:
    """Whether the *current thread* is building autodiff graphs."""
    return getattr(_GRAD_STATE, "enabled", True)


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Context manager disabling graph construction (inference mode).

    Scoped to the calling thread: one thread can run inside ``no_grad``
    while another builds graphs.
    """
    previous = _grad_enabled()
    _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_STATE.enabled = previous


def _unbroadcast(gradient: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``gradient`` back to ``shape`` after a broadcasting operation."""
    if gradient.shape == shape:
        return gradient
    # Sum over leading axes added by broadcasting.
    while gradient.ndim > len(shape):
        gradient = gradient.sum(axis=0)
    # Sum over axes that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and gradient.shape[axis] != 1:
            gradient = gradient.sum(axis=axis, keepdims=True)
    return gradient.reshape(shape)


class Tensor(Parameter):
    """A NumPy-backed tensor participating in reverse-mode autodiff.

    A :class:`repro.nn.layers.Parameter`, so a tracked model (:func:`track`)
    holds its leaves where it held its parameters: ``Module`` walks, state
    dicts and the fused trainers read them through ``data`` as before.
    """

    __slots__ = ("grad", "requires_grad", "_parents", "_backward")

    def __init__(
        self,
        data: np.ndarray | float | Sequence[float],
        requires_grad: bool = False,
        parents: tuple["Tensor", ...] = (),
        backward: Callable[[np.ndarray], None] | None = None,
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad and _grad_enabled()
        self._parents = parents if self.requires_grad else ()
        self._backward = backward if self.requires_grad else None

    # ------------------------------------------------------------------ #
    # basic protocol

    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return self.data.ndim

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        """Return the scalar value of a single-element tensor."""
        return float(self.data.item())

    def numpy(self) -> np.ndarray:
        """Return the underlying data array (shared)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        """Clear the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------ #
    # graph construction helpers

    @staticmethod
    def _coerce(value: "Tensor | float | np.ndarray") -> "Tensor":
        if isinstance(value, Tensor):
            return value
        return Tensor(value)

    def _make(self, data: np.ndarray, parents: tuple["Tensor", ...], backward) -> "Tensor":
        requires_grad = _grad_enabled() and any(parent.requires_grad for parent in parents)
        return Tensor(data, requires_grad=requires_grad, parents=parents, backward=backward)

    def _accumulate(self, gradient: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += gradient

    # ------------------------------------------------------------------ #
    # arithmetic

    def __add__(self, other: "Tensor | float") -> "Tensor":
        other = self._coerce(other)
        out_data = self.data + other.data

        def backward(gradient: np.ndarray) -> None:
            self._accumulate(_unbroadcast(gradient, self.shape))
            other._accumulate(_unbroadcast(gradient, other.shape))

        return self._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(gradient: np.ndarray) -> None:
            self._accumulate(-gradient)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other: "Tensor | float") -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other: "Tensor | float") -> "Tensor":
        return self._coerce(other) + (-self)

    def __mul__(self, other: "Tensor | float") -> "Tensor":
        other = self._coerce(other)
        out_data = self.data * other.data

        def backward(gradient: np.ndarray) -> None:
            self._accumulate(_unbroadcast(gradient * other.data, self.shape))
            other._accumulate(_unbroadcast(gradient * self.data, other.shape))

        return self._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: "Tensor | float") -> "Tensor":
        other = self._coerce(other)
        out_data = self.data / other.data

        def backward(gradient: np.ndarray) -> None:
            self._accumulate(_unbroadcast(gradient / other.data, self.shape))
            other._accumulate(
                _unbroadcast(-gradient * self.data / (other.data**2), other.shape)
            )

        return self._make(out_data, (self, other), backward)

    def __rtruediv__(self, other: "Tensor | float") -> "Tensor":
        return self._coerce(other) / self

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other = self._coerce(other)
        if self.data.ndim != 2 or other.data.ndim != 2:
            raise ValueError("matmul supports 2-D operands only")
        out_data = self.data @ other.data

        def backward(gradient: np.ndarray) -> None:
            self._accumulate(gradient @ other.data.T)
            other._accumulate(self.data.T @ gradient)

        return self._make(out_data, (self, other), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        out_data = self.data**exponent

        def backward(gradient: np.ndarray) -> None:
            self._accumulate(gradient * exponent * self.data ** (exponent - 1))

        return self._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # elementwise functions

    def abs(self) -> "Tensor":
        """Elementwise absolute value."""
        out_data = np.abs(self.data)

        def backward(gradient: np.ndarray) -> None:
            self._accumulate(gradient * np.sign(self.data))

        return self._make(out_data, (self,), backward)

    def maximum(self, other: "Tensor | float") -> "Tensor":
        """Elementwise maximum; ties route the gradient to ``self``."""
        other = self._coerce(other)
        out_data = np.maximum(self.data, other.data)

        def backward(gradient: np.ndarray) -> None:
            self_mask = (self.data >= other.data).astype(np.float64)
            other_mask = 1.0 - self_mask
            self._accumulate(_unbroadcast(gradient * self_mask, self.shape))
            other._accumulate(_unbroadcast(gradient * other_mask, other.shape))

        return self._make(out_data, (self, other), backward)

    def relu(self) -> "Tensor":
        """Rectified linear unit."""
        out_data = np.maximum(self.data, 0.0)

        def backward(gradient: np.ndarray) -> None:
            self._accumulate(gradient * (self.data > 0.0))

        return self._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        """Numerically stable logistic sigmoid."""
        out_data = np.where(
            self.data >= 0.0,
            1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0))),
            np.exp(np.clip(self.data, -60.0, 60.0))
            / (1.0 + np.exp(np.clip(self.data, -60.0, 60.0))),
        )

        def backward(gradient: np.ndarray) -> None:
            self._accumulate(gradient * out_data * (1.0 - out_data))

        return self._make(out_data, (self,), backward)

    def exp(self) -> "Tensor":
        """Elementwise exponential."""
        out_data = np.exp(np.clip(self.data, -700.0, 700.0))

        def backward(gradient: np.ndarray) -> None:
            self._accumulate(gradient * out_data)

        return self._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        """Elementwise natural logarithm."""
        out_data = np.log(self.data)

        def backward(gradient: np.ndarray) -> None:
            self._accumulate(gradient / self.data)

        return self._make(out_data, (self,), backward)

    def clip_min(self, minimum: float) -> "Tensor":
        """Clamp values from below; gradient flows only through unclamped entries."""
        out_data = np.maximum(self.data, minimum)

        def backward(gradient: np.ndarray) -> None:
            self._accumulate(gradient * (self.data > minimum))

        return self._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # shape manipulation

    def reshape(self, *shape: int) -> "Tensor":
        """Reshape to ``shape`` (a view of the data)."""
        out_data = self.data.reshape(*shape)
        original_shape = self.shape

        def backward(gradient: np.ndarray) -> None:
            self._accumulate(gradient.reshape(original_shape))

        return self._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # reductions

    def sum(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        """Sum of elements, optionally over a single axis."""
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(gradient: np.ndarray) -> None:
            grad = np.asarray(gradient)
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
            self._accumulate(np.broadcast_to(grad, self.shape).copy())

        return self._make(out_data, (self,), backward)

    def mean(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        """Mean of elements, optionally over a single axis."""
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    # ------------------------------------------------------------------ #
    # backward

    def backward(self, gradient: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor.

        Args:
            gradient: the upstream gradient; defaults to 1 for scalar tensors.
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if gradient is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without a gradient requires a scalar tensor")
            gradient = np.ones_like(self.data)

        ordering: list[Tensor] = []
        visited: set[int] = set()

        def visit(node: "Tensor") -> None:
            stack = [(node, iter(node._parents))]
            seen_on_stack = {id(node)}
            while stack:
                current, parents = stack[-1]
                advanced = False
                for parent in parents:
                    if id(parent) not in visited and parent.requires_grad:
                        if id(parent) in seen_on_stack:
                            continue
                        visited.add(id(parent))
                        seen_on_stack.add(id(parent))
                        stack.append((parent, iter(parent._parents)))
                        advanced = True
                        break
                if not advanced:
                    ordering.append(current)
                    stack.pop()

        visited.add(id(self))
        visit(self)

        self._accumulate(np.asarray(gradient, dtype=np.float64))
        for node in reversed(ordering):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def concatenate(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing back to each input."""
    tensors = [Tensor._coerce(tensor) for tensor in tensors]
    out_data = np.concatenate([tensor.data for tensor in tensors], axis=axis)
    sizes = [tensor.data.shape[axis] for tensor in tensors]
    requires_grad = _grad_enabled() and any(tensor.requires_grad for tensor in tensors)

    def backward(gradient: np.ndarray) -> None:
        splits = np.cumsum(sizes)[:-1]
        pieces = np.split(gradient, splits, axis=axis)
        for tensor, piece in zip(tensors, pieces):
            tensor._accumulate(piece)

    return Tensor(out_data, requires_grad=requires_grad, parents=tuple(tensors), backward=backward)


def track(module: layers.Module) -> layers.Module:
    """Make every parameter of ``module`` a gradient-tracking leaf, in place.

    Each leaf shares its parameter's array; returns ``module``.
    """
    for name, parameter in list(module.named_parameters()):
        *path, attribute = name.split(".")
        owner = module
        for part in path:
            owner = owner[int(part)] if part.isdigit() else getattr(owner, part)
        setattr(owner, attribute, Tensor(parameter.data, requires_grad=True))
    return module


# --------------------------------------------------------------------------- #
# modules


class Module(layers.Module):
    """A :class:`repro.nn.layers.Module` with an autodiff forward pass."""

    def forward(self, *inputs: Tensor) -> Tensor:
        raise NotImplementedError

    def __call__(self, *inputs: Tensor) -> Tensor:
        return self.forward(*inputs)

    def zero_grad(self) -> None:
        """Clear the gradients of all parameters."""
        zero_grad(self)


class Linear(Module, layers.Linear):
    """A fully connected layer ``y = x @ W + b`` with tracked parameters."""

    def __init__(self, *args, **kwargs) -> None:
        layers.Linear.__init__(self, *args, **kwargs)
        track(self)

    def forward(self, inputs: Tensor) -> Tensor:
        return linear(self, inputs)


class ReLU(Module):
    """Rectified linear unit activation."""

    def forward(self, inputs: Tensor) -> Tensor:
        return inputs.relu()


class Sigmoid(Module):
    """Logistic sigmoid activation."""

    def forward(self, inputs: Tensor) -> Tensor:
        return inputs.sigmoid()


class Sequential(Module):
    """A chain of modules applied in order."""

    def __init__(self, *modules: Module) -> None:
        self.modules = list(modules)

    def forward(self, inputs: Tensor) -> Tensor:
        output = inputs
        for module in self.modules:
            output = module(output)
        return output

    def append(self, module: Module) -> "Sequential":
        """Append another module and return self."""
        self.modules.append(module)
        return self


def linear(layer: layers.Linear, inputs: Tensor) -> Tensor:
    """``inputs @ weight + bias`` of a tracked :class:`repro.nn.layers.Linear`."""
    return inputs @ layer.weight + layer.bias


def zero_grad(module: layers.Module) -> None:
    """Clear the gradients of a tracked module's parameters."""
    for parameter in module.parameters():
        parameter.zero_grad()


# --------------------------------------------------------------------------- #
# optimizers


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

    def step(self) -> None:
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


class Adam(Optimizer):
    """The Adam optimizer (Kingma & Ba, 2015), one :func:`adam_update` per parameter."""

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


# --------------------------------------------------------------------------- #
# losses (repro.nn.loss.loss_and_gradient is their closed form)


def q_error_loss(predictions: Tensor, targets: Tensor, epsilon: float = 1e-6) -> Tensor:
    """Mean q-error between ``predictions`` and ``targets``, both clamped at ``epsilon``."""
    safe_predictions = predictions.clip_min(epsilon)
    safe_targets = targets.clip_min(epsilon)
    ratio = safe_predictions / safe_targets
    inverse_ratio = safe_targets / safe_predictions
    return ratio.maximum(inverse_ratio).mean()


def log_q_error_loss(predictions: Tensor, targets: Tensor, epsilon: float = 1e-6) -> Tensor:
    """Mean ``|log(prediction) - log(target)|`` (the log of the q-error)."""
    safe_predictions = predictions.clip_min(epsilon)
    safe_targets = targets.clip_min(epsilon)
    return (safe_predictions.log() - safe_targets.log()).abs().mean()


def mse_loss(predictions: Tensor, targets: Tensor) -> Tensor:
    """Mean squared error."""
    difference = predictions - targets
    return (difference * difference).mean()


def mae_loss(predictions: Tensor, targets: Tensor) -> Tensor:
    """Mean absolute error."""
    return (predictions - targets).abs().mean()


LOSS_FUNCTIONS = {
    "q_error": q_error_loss,
    "log_q_error": log_q_error_loss,
    "mse": mse_loss,
    "mae": mae_loss,
}


def get_loss(name: str):
    """Look up a loss function by name (``q_error``, ``log_q_error``, ``mse`` or ``mae``)."""
    if name not in LOSS_FUNCTIONS:
        raise KeyError(f"unknown loss {name!r}; available: {sorted(LOSS_FUNCTIONS)}")
    return LOSS_FUNCTIONS[name]


# --------------------------------------------------------------------------- #
# the CRN (Section 3.2) on a tracked repro.core.crn.CRNModel


def crn_encode_query(model, vectors: Tensor, mask: Tensor, encoder: layers.Linear) -> Tensor:
    """Encode a padded ``(batch, max set size, L)`` batch of vector sets with
    its ``(batch, max set size, 1)`` validity mask into ``(batch, H)`` ``Qvec``s."""
    batch_size, max_set, _ = vectors.shape
    flat = vectors.reshape(batch_size * max_set, model.vector_size)
    transformed = linear(encoder, flat).relu()
    transformed = transformed.reshape(batch_size, max_set, model.hidden_size)
    masked = transformed * mask
    pooled = masked.sum(axis=1)
    if model.config.pooling == "average":
        counts = mask.sum(axis=1).clip_min(1.0)
        pooled = pooled / counts
    return pooled


def crn_expand(first: Tensor, second: Tensor) -> Tensor:
    """The Expand feature map ``[v1, v2, |v1 - v2|, v1 ⊙ v2]`` (Section 3.2.3)."""
    return concatenate([first, second, (first - second).abs(), first * second], axis=1)


def crn_head(model, first_repr: Tensor, second_repr: Tensor) -> Tensor:
    """``MLPout`` over ``(batch, H)`` encodings: ``(batch,)`` rates in ``[0, 1]``."""
    if model.config.use_expand:
        pair = crn_expand(first_repr, second_repr)
    else:
        pair = concatenate([first_repr, second_repr], axis=1)
    hidden = linear(model.out_hidden, pair).relu()
    output = linear(model.out_final, hidden).sigmoid()
    return output.reshape(output.shape[0])


def pad_sets(sets: Sequence[np.ndarray]) -> tuple[Tensor, Tensor]:
    """``(set size, L)`` vector sets as :func:`crn_forward`'s input: the
    zero-padded ``(batch, max set size, L)`` batch and its validity mask."""
    longest = max(len(vectors) for vectors in sets)
    batch = np.zeros((len(sets), longest, sets[0].shape[1]))
    mask = np.zeros((len(sets), longest, 1))
    for index, vectors in enumerate(sets):
        batch[index, : len(vectors)] = vectors
        mask[index, : len(vectors), 0] = 1.0
    return Tensor(batch), Tensor(mask)


def crn_forward(model, first_vectors, first_mask, second_vectors, second_mask) -> Tensor:
    """Containment rates ``(batch,)`` of a batch of padded, masked query pairs."""
    first_repr = crn_encode_query(model, first_vectors, first_mask, model.set_encoder1)
    second_repr = crn_encode_query(model, second_vectors, second_mask, model.set_encoder2)
    return crn_head(model, first_repr, second_repr)


# --------------------------------------------------------------------------- #
# MSCN on a tracked repro.baselines.mscn.MSCNModel


def _mscn_encode_set(model, vectors: Tensor, mask: Tensor, module: layers.Linear) -> Tensor:
    batch_size, max_set, size = vectors.shape
    flat = vectors.reshape(batch_size * max_set, size)
    transformed = linear(module, flat).relu().reshape(batch_size, max_set, model.hidden_size)
    pooled = (transformed * mask).sum(axis=1)
    counts = mask.sum(axis=1).clip_min(1.0)
    return pooled / counts


def mscn_layers(
    model, tables, table_mask, joins, join_mask, predicates, predicate_mask
) -> tuple[Tensor, Tensor, Tensor]:
    """A featurized MSCN batch's pooled ``combined`` vectors, ``hidden``
    activations and ``(batch,)`` normalized log cardinalities."""
    table_repr = _mscn_encode_set(model, tables, table_mask, model.table_module)
    join_repr = _mscn_encode_set(model, joins, join_mask, model.join_module)
    predicate_repr = _mscn_encode_set(model, predicates, predicate_mask, model.predicate_module)
    combined = concatenate([table_repr, join_repr, predicate_repr], axis=1)
    hidden = linear(model.out_hidden, combined).relu()
    output = linear(model.out_final, hidden).sigmoid()
    return combined, hidden, output.reshape(output.shape[0])


def mscn_forward(model, *batch: Tensor) -> Tensor:
    """Normalized log cardinalities ``(batch,)`` of a featurized MSCN batch."""
    return mscn_layers(model, *batch)[2]


def denormalize(normalizer, values: Tensor) -> Tensor:
    """``CardinalityNormalizer.denormalize``, differentiable: ``exp(logs) - 1``."""
    logs = values * (normalizer.max_log - normalizer.min_log) + normalizer.min_log
    return logs.exp() - 1.0


def mscn_loss(model, normalizer, batch, cardinalities) -> Tensor:
    """MSCN's training loss: mean ``|log max(estimate, 1) - log max(truth, 1)|``."""
    predictions = mscn_forward(model, *(Tensor(part) for part in batch))
    estimated = denormalize(normalizer, predictions).clip_min(1.0)
    targets = Tensor(np.maximum(cardinalities, 1.0))
    return (estimated.log() - targets.log()).abs().mean()
