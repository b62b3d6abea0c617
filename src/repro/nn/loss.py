"""Loss functions: the paper's mean q-error (Section 3.2.4) plus variants.

The paper trains CRN to minimise the mean q-error
``q(y, ŷ) = max(ŷ/y, y/ŷ)`` and reports that optimizing MSE / MAE instead puts
less emphasis on heavy outliers and yields worse results; all of these are
provided so the loss ablation benchmark can reproduce that comparison.

``log_q_error`` optimizes ``|log ŷ - log y|`` -- the logarithm of the q-error.
It ranks models identically to the raw q-error but its gradients are bounded
and symmetric, which matters on the synthetic training corpus where a large
share of pairs has a (clamped) zero containment rate: with the raw ratio loss
those pairs contribute enormous one-sided gradients that push every prediction
toward a low hedge value and prevent the model from discriminating at all.
The training loop therefore uses ``log_q_error`` by default (a deviation from
the paper, measured by ``benchmarks/bench_ablation_loss.py``), while the raw
``q_error`` remains available and is still the *evaluation* metric everywhere.

Every loss has a closed-form twin on plain arrays, :func:`loss_and_gradient`,
returning the value and ``dL/dprediction`` the Tensor version would
backpropagate; the fused CRN training step (:mod:`repro.core.training`) uses
it and ``tests/test_core_training.py`` holds the two together.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor


def q_error_loss(predictions: Tensor, targets: Tensor, epsilon: float = 1e-6) -> Tensor:
    """Mean q-error between ``predictions`` and ``targets``.

    Both inputs are clamped away from zero so the ratio is finite; the
    containment-rate targets live in ``[0, 1]`` and the cardinality targets are
    positive, so the clamp only guards true zeros.
    """
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


def loss_and_gradient(
    name: str, predictions: np.ndarray, targets: np.ndarray, epsilon: float = 1e-6
) -> tuple[float, np.ndarray]:
    """``LOSS_FUNCTIONS[name]`` and its gradient w.r.t. ``predictions``, in closed form.

    ``epsilon`` is the clamp of the two q-error losses (ignored by ``mse`` /
    ``mae``); a clamped prediction gets no gradient, and a ``q_error`` tie
    between the ratio and its inverse goes to the ratio, as in
    :meth:`Tensor.clip_min` and :meth:`Tensor.maximum`.
    """
    scale = 1.0 / predictions.size
    if name in ("mse", "mae"):
        difference = predictions - targets
        if name == "mse":
            return float((difference * difference).mean()), 2.0 * scale * difference
        return float(np.abs(difference).mean()), scale * np.sign(difference)
    safe_predictions = np.maximum(predictions, epsilon)
    safe_targets = np.maximum(targets, epsilon)
    unclamped = scale * (predictions > epsilon)
    if name == "log_q_error":
        difference = np.log(safe_predictions) - np.log(safe_targets)
        return float(np.abs(difference).mean()), unclamped * np.sign(difference) / safe_predictions
    if name != "q_error":
        raise KeyError(f"unknown loss {name!r}; available: {sorted(LOSS_FUNCTIONS)}")
    ratio = safe_predictions / safe_targets
    inverse = safe_targets / safe_predictions
    slope = np.where(ratio >= inverse, 1.0 / safe_targets, -inverse / safe_predictions)
    return float(np.maximum(ratio, inverse).mean()), unclamped * slope


def get_loss(name: str):
    """Look up a loss function by name (``q_error``, ``log_q_error``, ``mse`` or ``mae``)."""
    if name not in LOSS_FUNCTIONS:
        raise KeyError(f"unknown loss {name!r}; available: {sorted(LOSS_FUNCTIONS)}")
    return LOSS_FUNCTIONS[name]
