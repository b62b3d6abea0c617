"""Pure-NumPy neural-network substrate.

The paper trains its models with TensorFlow and the Adam optimizer.  This
package substitutes a small, dependency-free stack:

* :mod:`repro.nn.tensor` -- a reverse-mode autodiff :class:`Tensor` over NumPy
  arrays (matmul, broadcasting arithmetic, ReLU, sigmoid, reductions, ...).
* :mod:`repro.nn.layers` -- ``Linear`` / ``ReLU`` / ``Sigmoid`` / ``Sequential``
  modules with parameter registration.
* :mod:`repro.nn.optim` -- ``Adam`` and ``SGD`` optimizers.
* :mod:`repro.nn.loss` -- the paper's mean q-error loss plus MSE and MAE.
* :mod:`repro.nn.data` -- train/validation splitting and mini-batch iteration.
* :mod:`repro.nn.serialization` -- saving/loading parameters as ``.npz``.

The ``Tensor`` forward pass is the training path and the inference
reference; serving's Tensor-free pair head
(:mod:`repro.serving.inference_plan`) is written by hand against
``CRNModel.head`` and checked against it at compile time.
"""

from repro.nn.data import BatchIterator, train_validation_split
from repro.nn.init import he_init, xavier_init
from repro.nn.layers import Linear, Module, ReLU, Sequential, Sigmoid
from repro.nn.loss import mae_loss, mse_loss, q_error_loss
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn.serialization import load_parameters, save_parameters
from repro.nn.tensor import Tensor, concatenate, no_grad

__all__ = [
    "Adam",
    "BatchIterator",
    "Linear",
    "Module",
    "Optimizer",
    "ReLU",
    "SGD",
    "Sequential",
    "Sigmoid",
    "Tensor",
    "concatenate",
    "he_init",
    "load_parameters",
    "mae_loss",
    "mse_loss",
    "no_grad",
    "q_error_loss",
    "save_parameters",
    "train_validation_split",
    "xavier_init",
]
