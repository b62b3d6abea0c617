"""Training loop for the CRN model (Section 3.3).

The paper trains CRN with the Adam optimizer, minimising the mean q-error of
the predicted containment rates, and stops early once the validation q-error
converges (early stopping, Section 3.3).  :func:`train_crn` reproduces that
recipe on the NumPy substrate and records the per-epoch convergence history
used by the Figure 3 / Figure 4 benchmarks.

The architecture is fixed, so the step is hand-written, not taped
(:class:`CRNTrainer`); the autodiff CRN of ``tests/autodiff.py`` is its
gradient oracle in ``tests/test_core_training.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.crn import CRNConfig, CRNEstimator, CRNModel, sigmoid_into
from repro.core.featurization import QueryFeaturizer
from repro.core.metrics import q_errors
from repro.datasets.pairs import QueryPair
from repro.nn.data import BatchIterator, train_validation_split
from repro.nn.loss import LOSSES, loss_and_gradient
from repro.nn.optim import FlatAdam


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
        if not 0.0 < self.learning_rate < float("inf"):  # also rejects NaN
            raise ValueError("learning_rate must be positive and finite")
        if self.loss not in LOSSES:
            raise ValueError(f"unknown loss {self.loss!r}; available: {sorted(LOSSES)}")
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

    def estimator(self) -> CRNEstimator:
        """Wrap the trained model as a :class:`~repro.core.estimators.ContainmentEstimator`."""
        return CRNEstimator(self.model, self.featurizer)

    @property
    def epochs_run(self) -> int:
        """Number of epochs actually executed."""
        return len(self.history)


#: Pairs per validation forward pass (bounds the trainer's buffers).
_EVAL_PAIRS = 512


def _vocabulary(rows) -> tuple[np.ndarray, np.ndarray]:
    """``(vocabulary, ids)``, ``vocabulary[ids] == rows``: distinct rows by exact bytes."""
    rows, index = np.ascontiguousarray(rows, dtype=np.float64), {}
    ids = np.array([index.setdefault(row.tobytes(), len(index)) for row in rows], np.intp)
    return np.frombuffer(b"".join(index)).reshape(len(index), rows.shape[1]), ids


def _take(vocabulary, ids, offsets, order) -> tuple:
    """Sets ``order`` of a ``(vocabulary, ids, offsets)`` side, as ``(vocabulary, ids, counts)``."""
    counts = np.diff(offsets)[order]
    # A taken row sits as far behind its set's old start as behind its new one.
    shift = offsets[order] - (np.cumsum(counts) - counts)
    return vocabulary, ids[np.arange(counts.sum()) + np.repeat(shift, counts)], counts


class RaggedPairs:
    """Labelled pairs as ids into a vocabulary of distinct feature rows.

    Each side (the first and the second queries) comes as ``(rows, counts)``:
    the vector sets of all pairs concatenated into one ``(R, L)`` matrix, and
    every pair's set size.  ``sides`` holds ``(vocabulary, ids, offsets)``,
    each distinct row once (exact bytes), pair ``i``'s set being
    ``vocabulary[ids[offsets[i]:offsets[i + 1]]]``; a side given as
    ``(vocabulary, ids, counts)`` is already laid out (two sides may share a
    vocabulary).  No set may be empty: average pooling divides by its size.
    """

    def __init__(self, first, second, targets) -> None:
        self.targets = np.asarray(targets, dtype=np.float64)
        self.sides = []
        for side in (first, second):
            vocabulary, ids, counts = side if len(side) == 3 else (*_vocabulary(side[0]), side[1])
            counts = np.asarray(counts)
            if len(counts) != len(self.targets) or (counts <= 0).any():
                raise ValueError("every pair needs a non-empty vector set on both sides")
            offsets = np.concatenate(([0], np.cumsum(counts)))
            if offsets[-1] != len(ids):
                raise ValueError(f"{len(ids)} rows for set sizes summing to {offsets[-1]}")
            self.sides.append((vocabulary, ids, offsets))

    @classmethod
    def featurize(cls, featurizer: QueryFeaturizer, pairs: Sequence[QueryPair]) -> "RaggedPairs":
        """Featurize every *distinct* query of ``pairs`` once; their rows make
        the vocabulary both sides share."""
        queries = dict.fromkeys(query for pair in pairs for query in (pair.first, pair.second))
        position = {query: index for index, query in enumerate(queries)}
        rows, counts = featurizer.featurize_many(list(queries))
        distinct = (*_vocabulary(rows), np.concatenate(([0], np.cumsum(counts))))
        order = np.array([(position[pair.first], position[pair.second]) for pair in pairs])
        targets = [pair.containment_rate for pair in pairs]
        return cls(_take(*distinct, order[:, 0]), _take(*distinct, order[:, 1]), targets)

    def __len__(self) -> int:
        return len(self.targets)

    def take(self, order) -> "RaggedPairs":
        """The pairs at ``order``, laid out in that order by one id gather per
        side: an epoch lays out its permutation once, after which every
        mini-batch is a slice."""
        order = np.asarray(order)
        return RaggedPairs(*(_take(*side, order) for side in self.sides), self.targets[order])


class CRNTrainer:
    """Fused forward + backward + Adam step for the fixed CRN architecture,
    and the one epoch loop (docs/architecture.md, "Training path").

    **Ownership.**  The trainer optimises a private flat copy of the weights
    and owns every buffer a step touches, so trainers on different threads
    (the lifecycle retrains beside serving) share nothing; one trainer is not
    thread-safe.  The model receives a fresh copy once, when :meth:`fit`
    returns (:meth:`publish`): its ``parameter.data`` never aliases trainer
    memory, and no one reads it while the loop runs.

    **What the callers of** :meth:`fit` **switch off.**  :func:`train_crn`:
    nothing — validation split, early stopping and best-state restore are on.
    :func:`repro.extensions.updates.incremental_update` and
    :func:`repro.extensions.updates.retrain_from_scratch`, the two retrains
    the lifecycle runs: all three.  They pass no validation set (the
    reported q-error is measured on the few fresh training pairs; whether the
    candidate ships is the lifecycle accept gate's call, on feedback the
    model never trained on), set patience 0 (the epoch budget is the
    caller's, and small) and ``restore_best=False``: a best epoch picked on
    training data is no generalisation signal, so the candidate keeps its
    last epoch's weights.
    """

    def __init__(self, model: CRNModel, config: TrainingConfig) -> None:
        self.model, self.config = model, config
        # MLP1, MLP2, MLPout hidden, MLPout final: a (weight, bias) pair each.
        self._adam = FlatAdam(model.parameters(), config.learning_rate)
        self.weights, self.gradients = self._adam.weights, self._adam.gradients
        self._capacity = 0

    def _reserve(self, pairs: int) -> None:
        """Make every buffer hold ``pairs`` pairs."""
        if pairs <= self._capacity:
            return
        self._capacity, size = pairs, self.model.hidden_size
        self._pair, self._pair_gradient = np.empty((2, pairs, self.weights[4].shape[0]))
        self._hidden = np.empty((pairs, 2 * size))
        # The rate column and three sigmoid temporaries; the sigmoid's sign mask.
        self._columns, self._mask = np.empty((4, pairs, 1)), np.empty((pairs, 1), bool)

    def forward(self, data: RaggedPairs, start: int, stop: int) -> np.ndarray:
        """Rates of pairs ``start:stop``: a ``(count, 1)`` view, valid until the next pass."""
        count, size = stop - start, self.model.hidden_size
        self._reserve(count)
        pair = self._pair[:count]
        self._encoded = []  # per side, what the backward pass reads
        for side, (vocabulary, ids, offsets) in enumerate(data.sides):
            distinct, inverse = np.unique(ids[offsets[start] : offsets[stop]], return_inverse=True)
            sizes, width = np.diff(offsets[start : stop + 1]), len(distinct)
            # pooling[i, j]: how often distinct row j occurs in pair i's set,
            # over the set's size under average pooling.
            owners = np.repeat(np.arange(0, count * width, width), sizes)
            pooling = np.bincount(owners + inverse, minlength=count * width)
            pooling = pooling.reshape(count, width).astype(np.float64)
            if self.model.config.pooling == "average":
                pooling /= sizes[:, None]
            rows = vocabulary[distinct]
            activation = np.maximum(rows @ self.weights[2 * side] + self.weights[2 * side + 1], 0.0)
            np.matmul(pooling, activation, out=pair[:, side * size : (side + 1) * size])
            self._encoded.append((pooling, rows, activation))
        if self.model.config.use_expand:
            first, second = pair[:, :size], pair[:, size : 2 * size]
            distance = np.subtract(first, second, out=pair[:, 2 * size : 3 * size])
            np.absolute(distance, out=distance)
            np.multiply(first, second, out=pair[:, 3 * size :])
        hidden = self._hidden[:count]
        np.matmul(pair, self.weights[4], out=hidden)
        np.add(hidden, self.weights[5], out=hidden)
        np.maximum(hidden, 0.0, out=hidden)
        rates, *temporaries = (column[:count] for column in self._columns)
        np.matmul(hidden, self.weights[6], out=rates)
        np.add(rates, self.weights[7], out=rates)
        sigmoid_into(rates, rates, *temporaries, self._mask[:count])
        return rates

    def loss_and_gradients(self, data: RaggedPairs, start: int, stop: int) -> float:
        """Forward + backward over pairs ``start:stop``: fills ``gradients``, returns the loss."""
        rates = self.forward(data, start, stop)
        loss, rate_gradient = loss_and_gradient(
            self.config.loss, rates[:, 0], data.targets[start:stop], self.config.loss_epsilon
        )
        count, size = stop - start, self.model.hidden_size
        pair, hidden = self._pair[:count], self._hidden[:count]
        output_gradient = self._columns[1, :count]
        np.subtract(1.0, rates, out=output_gradient)  # sigmoid: dz = dp * p * (1 - p)
        output_gradient *= rates
        output_gradient *= rate_gradient[:, None]
        np.matmul(hidden.T, output_gradient, out=self.gradients[6])
        np.sum(output_gradient, axis=0, out=self.gradients[7])
        # ``hidden`` becomes its own pre-activation gradient: a ReLU output's
        # sign is the ReLU mask, and (count, 1) @ (1, 2H) is a broadcast.
        np.sign(hidden, out=hidden)
        hidden *= self.weights[6].T
        hidden *= output_gradient
        np.matmul(pair.T, hidden, out=self.gradients[4])
        np.sum(hidden, axis=0, out=self.gradients[5])
        pair_gradient = self._pair_gradient[:count]
        np.matmul(hidden, self.weights[4].T, out=pair_gradient)
        if self.model.config.use_expand:
            first, second = pair[:, :size], pair[:, size : 2 * size]
            distance = np.sign(first - second) * pair_gradient[:, 2 * size : 3 * size]
            product = pair_gradient[:, 3 * size :]
            pair_gradient[:, :size] += distance + product * second
            pair_gradient[:, size : 2 * size] += product * first - distance
        for side, (pooling, rows, activation) in enumerate(self._encoded):
            encoding_gradient = pair_gradient[:, side * size : (side + 1) * size]
            # Un-pool through the same weights, then each distinct row's ReLU mask.
            activation_gradient = (pooling.T @ encoding_gradient) * np.sign(activation)
            np.matmul(rows.T, activation_gradient, out=self.gradients[2 * side])
            np.sum(activation_gradient, axis=0, out=self.gradients[2 * side + 1])
        return loss

    def step(self, data: RaggedPairs, start: int, stop: int) -> float:
        """One optimisation step on pairs ``start:stop``; returns the batch loss."""
        loss = self.loss_and_gradients(data, start, stop)
        self._adam.step()
        return loss

    def publish(self) -> None:
        """Hand the model fresh copies of the trainer's current weights."""
        self._adam.publish()

    def mean_q_error(self, data: RaggedPairs) -> float:
        """Geometric-mean q-error of the trainer's current weights over ``data``.

        The geometric mean (``exp`` of the mean absolute log ratio) is the
        early-stopping metric: unlike the arithmetic mean it is not dominated
        by the handful of clamped zero-rate pairs, so it tracks the objective
        (the evaluation tables still report the paper's arithmetic mean and
        percentiles via :mod:`repro.core.metrics`).  Rates are floored at
        ``loss_epsilon`` as in the loss; :func:`evaluate_pairs_q_error` says why.
        """
        rates = np.empty(len(data))
        for start in range(0, len(data), _EVAL_PAIRS):
            stop = min(start + _EVAL_PAIRS, len(data))
            rates[start:stop] = self.forward(data, start, stop)[:, 0]
        errors = q_errors(rates, data.targets, epsilon=self.config.loss_epsilon)
        return float(np.exp(np.mean(np.log(errors))))

    def fit(
        self,
        result: TrainingResult,
        train: RaggedPairs,
        validation: RaggedPairs | None = None,
        *,
        restore_best: bool,
        verbose: bool = False,
    ) -> TrainingResult:
        """Run ``config.epochs`` more epochs, appending to ``result.history``.

        ``validation`` defaults to ``train``.  The model receives the
        weights once, at the end: the last epoch's, or with ``restore_best``
        those of this call's best validation epoch.
        """
        config = self.config
        validation = train if validation is None else validation
        iterator = BatchIterator(len(train), config.batch_size, seed=config.seed)
        weights = self._adam.flat[0]
        best_weights = weights.copy()
        epochs_without_improvement = 0
        first_epoch = result.epochs_run + 1
        for epoch in range(first_epoch, first_epoch + config.epochs):
            start = time.perf_counter()
            shuffled = train.take(iterator.permutation())
            losses = [
                self.step(shuffled, low, min(low + config.batch_size, len(shuffled)))
                for low in range(0, len(shuffled), config.batch_size)
            ]
            stats = EpochStats(
                epoch=epoch,
                train_loss=float(np.mean(losses)),
                validation_mean_q_error=self.mean_q_error(validation),
                seconds=time.perf_counter() - start,
            )
            result.history.append(stats)
            if verbose:  # pragma: no cover - console output only
                print(
                    f"epoch {epoch:3d}  train loss {stats.train_loss:8.4f}  "
                    f"validation q-error {stats.validation_mean_q_error:8.4f}"
                )
            if stats.validation_mean_q_error < result.best_validation_q_error:
                result.best_validation_q_error = stats.validation_mean_q_error
                result.best_epoch = epoch
                epochs_without_improvement = 0
                np.copyto(best_weights, weights)
            else:
                epochs_without_improvement += 1
            if 0 < config.early_stopping_patience <= epochs_without_improvement:
                result.stopped_early = True
                break
        if restore_best:
            np.copyto(weights, best_weights)
        self.publish()
        return result


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
    training_config = training_config or TrainingConfig()
    train_indices, validation_indices = train_validation_split(
        range(len(pairs)),
        validation_fraction=training_config.validation_fraction,
        seed=training_config.seed,
    )
    data = RaggedPairs.featurize(database_featurizer, pairs)
    model = CRNModel(database_featurizer.vector_size, crn_config or CRNConfig())
    return CRNTrainer(model, training_config).fit(
        TrainingResult(model=model, featurizer=database_featurizer),
        data.take(train_indices),
        data.take(validation_indices) if validation_indices else None,
        restore_best=True,
        verbose=verbose,
    )


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
