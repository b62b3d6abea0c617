"""Training loop for the CRN model (Section 3.3).

The paper trains CRN with the Adam optimizer, minimising the mean q-error of
the predicted containment rates, and stops early once the validation q-error
converges (early stopping, Section 3.3).  :func:`train_crn` reproduces that
recipe on the NumPy substrate and records the per-epoch convergence history
used by the Figure 3 / Figure 4 benchmarks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.crn import PASS_ROWS, CRNConfig, CRNEstimator, CRNModel
from repro.core.featurization import QueryFeaturizer
from repro.core.metrics import q_errors
from repro.datasets.pairs import QueryPair
from repro.nn.data import BatchIterator, train_validation_split
from repro.nn.loss import get_loss
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor, no_grad


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters of the CRN training loop.

    The defaults are the laptop-scale profile; the paper's published settings
    (batch size 128, learning rate 0.001, ~120 epochs over 100k pairs) are one
    configuration change away.

    ``loss_epsilon`` clamps containment rates away from zero inside the
    q-error: a substantial share of generated pairs has a true rate of exactly
    0 (disjoint results), and without a floor those pairs dominate the loss
    with unbounded ratios.  The same floor is applied to the validation
    q-error so training and evaluation agree.
    """

    epochs: int = 50
    batch_size: int = 64
    learning_rate: float = 0.001
    loss: str = "log_q_error"
    loss_epsilon: float = 1e-3
    validation_fraction: float = 0.2
    early_stopping_patience: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.loss_epsilon <= 0:
            raise ValueError("loss_epsilon must be positive")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must lie in [0, 1)")
        if self.early_stopping_patience < 0:
            raise ValueError("early_stopping_patience must be non-negative")


@dataclass(frozen=True)
class EpochStats:
    """Metrics recorded after one training epoch."""

    epoch: int
    train_loss: float
    validation_mean_q_error: float
    seconds: float


@dataclass
class TrainingResult:
    """The outcome of a CRN training run."""

    model: CRNModel
    featurizer: QueryFeaturizer
    history: list[EpochStats] = field(default_factory=list)
    best_epoch: int = 0
    best_validation_q_error: float = float("inf")
    stopped_early: bool = False

    def estimator(self, batch_size: int = PASS_ROWS) -> CRNEstimator:
        """Wrap the trained model as a :class:`~repro.core.estimators.ContainmentEstimator`."""
        return CRNEstimator(self.model, self.featurizer, batch_size=batch_size)

    @property
    def epochs_run(self) -> int:
        """Number of epochs actually executed."""
        return len(self.history)


class _FeaturizedPairs:
    """Pairs pre-featurized into padded batches for fast epoch iteration."""

    def __init__(self, featurizer: QueryFeaturizer, pairs: Sequence[QueryPair]) -> None:
        first_sets = [featurizer.featurize(pair.first) for pair in pairs]
        second_sets = [featurizer.featurize(pair.second) for pair in pairs]
        self.first, self.first_mask = featurizer.pad_sets(first_sets)
        self.second, self.second_mask = featurizer.pad_sets(second_sets)
        self.targets = np.asarray([pair.containment_rate for pair in pairs], dtype=np.float64)

    def __len__(self) -> int:
        return len(self.targets)

    def batch(self, indices: np.ndarray) -> tuple[Tensor, Tensor, Tensor, Tensor, Tensor]:
        return (
            Tensor(self.first[indices]),
            Tensor(self.first_mask[indices]),
            Tensor(self.second[indices]),
            Tensor(self.second_mask[indices]),
            Tensor(self.targets[indices]),
        )


def train_crn(
    database_featurizer: QueryFeaturizer,
    pairs: Sequence[QueryPair],
    crn_config: CRNConfig | None = None,
    training_config: TrainingConfig | None = None,
    verbose: bool = False,
) -> TrainingResult:
    """Train a CRN model on labelled query pairs.

    Args:
        database_featurizer: featurizer bound to the training database.
        pairs: labelled training pairs (true containment rates).
        crn_config: architecture configuration (hidden size, pooling, Expand).
        training_config: optimisation configuration.
        verbose: print one line per epoch.

    Returns:
        A :class:`TrainingResult` holding the trained model (restored to the
        best validation epoch) and the convergence history.
    """
    if not pairs:
        raise ValueError("cannot train on an empty pair set")
    crn_config = crn_config or CRNConfig()
    training_config = training_config or TrainingConfig()

    train_pairs, validation_pairs = train_validation_split(
        list(pairs),
        validation_fraction=training_config.validation_fraction,
        seed=training_config.seed,
    )
    if not validation_pairs:
        validation_pairs = train_pairs

    train_data = _FeaturizedPairs(database_featurizer, train_pairs)
    validation_data = _FeaturizedPairs(database_featurizer, validation_pairs)

    model = CRNModel(database_featurizer.vector_size, crn_config)
    optimizer = Adam(model.parameters(), learning_rate=training_config.learning_rate)
    base_loss = get_loss(training_config.loss)
    if training_config.loss in ("q_error", "log_q_error"):
        def loss_function(predictions: Tensor, targets: Tensor) -> Tensor:
            return base_loss(predictions, targets, epsilon=training_config.loss_epsilon)
    else:
        loss_function = base_loss
    iterator = BatchIterator(len(train_data), training_config.batch_size, seed=training_config.seed)

    result = TrainingResult(model=model, featurizer=database_featurizer)
    best_state = model.state_dict()
    epochs_without_improvement = 0

    for epoch in range(1, training_config.epochs + 1):
        start = time.perf_counter()
        epoch_losses: list[float] = []
        for indices in iterator.epoch():
            first, first_mask, second, second_mask, targets = train_data.batch(indices)
            predictions = model(first, first_mask, second, second_mask)
            loss = loss_function(predictions, targets)
            model.zero_grad()
            loss.backward()
            optimizer.step()
            epoch_losses.append(loss.item())

        validation_q_error = evaluate_mean_q_error(
            model, validation_data, epsilon=training_config.loss_epsilon
        )
        stats = EpochStats(
            epoch=epoch,
            train_loss=float(np.mean(epoch_losses)),
            validation_mean_q_error=validation_q_error,
            seconds=time.perf_counter() - start,
        )
        result.history.append(stats)
        if verbose:  # pragma: no cover - console output only
            print(
                f"epoch {epoch:3d}  train loss {stats.train_loss:8.4f}  "
                f"validation q-error {stats.validation_mean_q_error:8.4f}"
            )

        if validation_q_error < result.best_validation_q_error:
            result.best_validation_q_error = validation_q_error
            result.best_epoch = epoch
            best_state = model.state_dict()
            epochs_without_improvement = 0
        else:
            epochs_without_improvement += 1
            if (
                training_config.early_stopping_patience
                and epochs_without_improvement >= training_config.early_stopping_patience
            ):
                result.stopped_early = True
                break

    model.load_state_dict(best_state)
    return result


def evaluate_mean_q_error(
    model: CRNModel, data: _FeaturizedPairs, epsilon: float | None = None
) -> float:
    """Geometric-mean q-error of ``model`` over a featurized pair set.

    The geometric mean (``exp`` of the mean absolute log ratio) is the
    validation metric used for early stopping: unlike the arithmetic mean it
    is not dominated by the handful of clamped zero-rate pairs, so it tracks
    the optimisation objective.  The evaluation tables still report the
    paper's arithmetic mean / percentiles via :mod:`repro.core.metrics`.

    ``epsilon`` defaults to :attr:`TrainingConfig.loss_epsilon` so that
    evaluation agrees with the train-time metric on zero-rate pairs (see
    :func:`evaluate_pairs_q_error` for why the two must share one floor).
    """
    if epsilon is None:
        epsilon = TrainingConfig.loss_epsilon
    with no_grad():
        predictions = model(
            Tensor(data.first), Tensor(data.first_mask), Tensor(data.second), Tensor(data.second_mask)
        ).numpy()
    errors = q_errors(predictions, data.targets, epsilon=epsilon)
    return float(np.exp(np.mean(np.log(errors))))


def evaluate_pairs_q_error(
    estimator: CRNEstimator,
    pairs: Sequence[QueryPair],
    epsilon: float | None = None,
    training_config: TrainingConfig | None = None,
) -> np.ndarray:
    """Per-pair q-errors of a CRN estimator on labelled pairs.

    The zero-rate floor must match the one used during training: a
    substantial share of generated pairs has a true rate of exactly 0, so a
    smaller evaluation epsilon would report systematically larger q-errors
    on those pairs than the validation metric that drove early stopping —
    the numbers would disagree for no modelling reason.  Pass the run's
    ``training_config`` (its :attr:`TrainingConfig.loss_epsilon` is used) or
    an explicit ``epsilon``; by default the shared
    :attr:`TrainingConfig.loss_epsilon` default applies everywhere.
    """
    if epsilon is None:
        config = training_config or TrainingConfig()
        epsilon = config.loss_epsilon
    estimates = estimator.estimate_containments([(pair.first, pair.second) for pair in pairs])
    truths = [pair.containment_rate for pair in pairs]
    return q_errors(estimates, truths, epsilon=epsilon)
