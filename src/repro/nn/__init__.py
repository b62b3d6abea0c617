"""Pure-NumPy neural-network substrate.

The paper trains its models with TensorFlow and the Adam optimizer.  This
package substitutes a small, dependency-free stack on plain float64 arrays;
each model writes its own fused forward and backward pass
(:class:`repro.core.training.CRNTrainer`,
:class:`repro.baselines.mscn.MSCNTrainer`):

* :mod:`repro.nn.layers` -- ``Parameter`` / ``Module`` / ``Linear``: named
  parameter arrays with He initialisation and state dicts.
* :mod:`repro.nn.optim` -- ``adam_update`` and ``FlatAdam``, Adam over a
  trainer's flat parameter vector.
* :mod:`repro.nn.loss` -- the paper's mean q-error loss plus variants, each
  with its gradient in closed form.
* :mod:`repro.nn.data` -- train/validation splitting and mini-batch iteration.
* :mod:`repro.nn.serialization` -- saving/loading parameters as ``.npz``.

The autodiff ``Tensor`` the fused steps are checked against is test support,
in ``tests/autodiff.py``.
"""

from repro.nn.data import BatchIterator, train_validation_split
from repro.nn.init import he_init, xavier_init
from repro.nn.layers import Linear, Module, Parameter
from repro.nn.loss import loss_and_gradient
from repro.nn.optim import FlatAdam, adam_update
from repro.nn.serialization import load_parameters, save_parameters

__all__ = [
    "BatchIterator",
    "FlatAdam",
    "Linear",
    "Module",
    "Parameter",
    "adam_update",
    "he_init",
    "load_parameters",
    "loss_and_gradient",
    "save_parameters",
    "train_validation_split",
    "xavier_init",
]
