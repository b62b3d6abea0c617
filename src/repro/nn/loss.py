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

Each loss is written in closed form, value and ``dL/dprediction`` together
(:func:`loss_and_gradient`); the fused CRN training step
(:mod:`repro.core.training`) uses it, and ``tests/test_core_training.py``
holds it to the autodiff losses of ``tests/autodiff.py``.
"""

from __future__ import annotations

import numpy as np

#: The losses :func:`loss_and_gradient` knows, by name.
LOSSES = ("q_error", "log_q_error", "mse", "mae")


def loss_and_gradient(
    name: str, predictions: np.ndarray, targets: np.ndarray, epsilon: float = 1e-6
) -> tuple[float, np.ndarray]:
    """The mean loss ``name`` and its gradient w.r.t. ``predictions``.

    ``epsilon`` is the clamp of the two q-error losses (ignored by ``mse`` /
    ``mae``): predictions and targets are clamped from below, a clamped
    prediction gets no gradient, and a ``q_error`` tie between the ratio and
    its inverse goes to the ratio.
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
        raise KeyError(f"unknown loss {name!r}; available: {sorted(LOSSES)}")
    ratio = safe_predictions / safe_targets
    inverse = safe_targets / safe_predictions
    slope = np.where(ratio >= inverse, 1.0 / safe_targets, -inverse / safe_predictions)
    return float(np.maximum(ratio, inverse).mean()), unclamped * slope
