"""A small reverse-mode automatic-differentiation engine over NumPy arrays.

Only the operations needed by the paper's models are implemented, but each is
implemented with full broadcasting support so the engine is reusable:

* elementwise: ``+ - * /``, ``abs``, ``maximum``, ``exp``, ``log``, ``clip``
* matrix multiply (2-D)
* activations: ``relu``, ``sigmoid``
* shape: ``reshape``, ``concatenate``, basic indexing is intentionally omitted
* reductions: ``sum`` / ``mean`` over an axis or all elements

Gradients are accumulated into ``Tensor.grad`` by :meth:`Tensor.backward`,
which runs a topological sort over the recorded computation graph.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

#: Graph-construction mode is **per thread**.  A process-wide flag would race
#: under concurrent inference (the serving dispatcher thread plus client
#: threads all enter/exit ``no_grad``): interleaved save/restore pairs can
#: restore a stale ``previous`` and leave gradient tracking off for every
#: thread — after which newly built models silently have no trainable
#: parameters.  Thread-local state makes each thread's ``no_grad`` blocks
#: independent, matching how PyTorch scopes its grad mode.
_GRAD_STATE = threading.local()


def _grad_enabled() -> bool:
    """Whether the *current thread* is building autodiff graphs."""
    return getattr(_GRAD_STATE, "enabled", True)


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Context manager disabling graph construction (inference mode).

    Scoped to the calling thread: concurrent serving threads can run
    inference inside ``no_grad`` while another thread trains.
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


class Tensor:
    """A NumPy-backed tensor participating in reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

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


def stack_rows(rows: Iterable[np.ndarray]) -> np.ndarray:
    """Stack 1-D arrays into a 2-D matrix (plain NumPy helper, no gradient)."""
    rows = list(rows)
    if not rows:
        return np.empty((0, 0))
    return np.stack(rows, axis=0)
