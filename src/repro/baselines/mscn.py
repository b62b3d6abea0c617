"""MSCN: the multi-set convolutional network of Kipf et al. (CIDR 2019).

The paper uses MSCN as its learned baseline, both directly as a cardinality
estimator and routed through the Crd2Cnt transformation as a containment
baseline.  This is a faithful re-implementation on the NumPy substrate:

* a query is featurized as three separate sets -- tables, joins, predicates --
  each with its own vector layout (unlike CRN's shared layout);
* each set runs through its own set module (one fully connected layer + ReLU)
  and is average-pooled into a fixed-size representation;
* the three representations are concatenated and pushed through a two-layer
  output network that predicts the query's cardinality in normalized log
  space.

Training and inference run one plain-array forward pass, :func:`forward`;
:class:`MSCNTrainer` adds its hand-written backward pass and Adam step, on
the pattern of :class:`repro.core.training.CRNTrainer`.

The "MSCN with 1000 samples" variant (Section 6.6 of the paper) appends a
bitmap of sample rows satisfying the query's predicates to each table vector.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.crn import sigmoid_into
from repro.core.estimators import CardinalityEstimator
from repro.core.metrics import q_errors
from repro.datasets.pairs import LabeledQuery
from repro.db.database import Database
from repro.db.sampling import SampleCatalog
from repro.nn.data import BatchIterator, train_validation_split
from repro.nn.layers import Linear, Module
from repro.nn.optim import FlatAdam
from repro.sql.query import OPERATORS, Query


@dataclass(frozen=True)
class MSCNConfig:
    """Architecture hyperparameters of the MSCN model.

    Attributes:
        hidden_size: hidden dimension of the set modules and the output network.
        use_samples: enable the sample-bitmap variant (MSCN1000 in the paper).
        sample_size: number of materialized sample rows per base table when
            ``use_samples`` is enabled.
        seed: RNG seed for weight initialisation.
    """

    hidden_size: int = 64
    use_samples: bool = False
    sample_size: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.hidden_size <= 0:
            raise ValueError("hidden_size must be positive")
        if self.sample_size <= 0:
            raise ValueError("sample_size must be positive")


@dataclass(frozen=True)
class CardinalityNormalizer:
    """Min-max normalization of log cardinalities (MSCN's target encoding)."""

    min_log: float
    max_log: float

    @classmethod
    def fit(cls, cardinalities: Sequence[int]) -> "CardinalityNormalizer":
        """Fit the normalizer on the training cardinalities."""
        logs = np.log1p(np.asarray(cardinalities, dtype=np.float64))
        min_log = float(logs.min()) if logs.size else 0.0
        max_log = float(logs.max()) if logs.size else 1.0
        if max_log <= min_log:
            max_log = min_log + 1.0
        return cls(min_log=min_log, max_log=max_log)

    def normalize(self, cardinalities: Sequence[float]) -> np.ndarray:
        """Map cardinalities to [0, 1] in log space."""
        logs = np.log1p(np.asarray(cardinalities, dtype=np.float64))
        return np.clip((logs - self.min_log) / (self.max_log - self.min_log), 0.0, 1.0)

    def denormalize(self, values: np.ndarray) -> np.ndarray:
        """Map normalized predictions back to cardinalities."""
        logs = np.asarray(values, dtype=np.float64) * (self.max_log - self.min_log) + self.min_log
        return np.expm1(logs)


class MSCNFeaturizer:
    """Featurizes queries into MSCN's three per-set vector layouts."""

    def __init__(self, database: Database, config: MSCNConfig | None = None) -> None:
        self.database = database
        self.config = config or MSCNConfig()
        schema = database.schema
        self._table_index = {alias: i for i, alias in enumerate(schema.aliases)}
        self._column_index = {name: i for i, name in enumerate(schema.qualified_columns())}
        self._operator_index = {op: i for i, op in enumerate(OPERATORS)}
        self._join_index = {
            self._join_key(left_alias, left_column, right_alias, right_column): i
            for i, (left_alias, left_column, right_alias, right_column) in enumerate(
                schema.join_edges()
            )
        }
        self._value_ranges = {
            qualified: database.column_range(*qualified.split(".", 1))
            for qualified in self._column_index
        }
        self._samples: SampleCatalog | None = None
        if self.config.use_samples:
            self._samples = database.samples(sample_size=self.config.sample_size)

    # ------------------------------------------------------------------ #
    # layout sizes

    @property
    def table_vector_size(self) -> int:
        """Size of a table-set vector (one-hot table, plus optional sample bitmap)."""
        bitmap = self.config.sample_size if self.config.use_samples else 0
        return len(self._table_index) + bitmap

    @property
    def join_vector_size(self) -> int:
        """Size of a join-set vector (one-hot over the schema's join edges)."""
        return max(len(self._join_index), 1)

    @property
    def predicate_vector_size(self) -> int:
        """Size of a predicate-set vector (column one-hot, operator one-hot, value)."""
        return len(self._column_index) + len(self._operator_index) + 1

    # ------------------------------------------------------------------ #
    # featurization

    def featurize(self, query: Query) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return the query's (tables, joins, predicates) vector sets."""
        table_rows = []
        for table in query.tables:
            vector = np.zeros(self.table_vector_size)
            vector[self._table_index[table.alias]] = 1.0
            if self._samples is not None:
                bitmap = self._samples.bitmap(table.name, query.predicates_for(table.alias))
                vector[len(self._table_index) :] = bitmap
            table_rows.append(vector)
        tables = np.stack(table_rows, axis=0)

        join_rows = []
        for join in query.joins:
            vector = np.zeros(self.join_vector_size)
            key = self._join_key(join.left_alias, join.left_column, join.right_alias, join.right_column)
            if key in self._join_index:
                vector[self._join_index[key]] = 1.0
            join_rows.append(vector)
        joins = (
            np.stack(join_rows, axis=0) if join_rows else np.zeros((0, self.join_vector_size))
        )

        predicate_rows = []
        for predicate in query.predicates:
            vector = np.zeros(self.predicate_vector_size)
            vector[self._column_index[predicate.qualified_column]] = 1.0
            vector[len(self._column_index) + self._operator_index[predicate.operator]] = 1.0
            vector[-1] = self._normalize_value(predicate.qualified_column, predicate.value)
            predicate_rows.append(vector)
        predicates = (
            np.stack(predicate_rows, axis=0)
            if predicate_rows
            else np.zeros((0, self.predicate_vector_size))
        )
        return tables, joins, predicates

    def pad_batch(
        self, sets: list[np.ndarray], vector_size: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Pad a list of (possibly empty) vector sets into a dense masked batch."""
        max_size = max(max((matrix.shape[0] for matrix in sets), default=0), 1)
        batch = np.zeros((len(sets), max_size, vector_size))
        mask = np.zeros((len(sets), max_size, 1))
        for index, matrix in enumerate(sets):
            if matrix.shape[0]:
                batch[index, : matrix.shape[0], :] = matrix
                mask[index, : matrix.shape[0], 0] = 1.0
        return batch, mask

    def featurize_batch(
        self, queries: Sequence[Query]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Featurize and pad a batch of queries into the three masked set batches."""
        featurized = [self.featurize(query) for query in queries]
        tables, table_mask = self.pad_batch([f[0] for f in featurized], self.table_vector_size)
        joins, join_mask = self.pad_batch([f[1] for f in featurized], self.join_vector_size)
        predicates, predicate_mask = self.pad_batch(
            [f[2] for f in featurized], self.predicate_vector_size
        )
        return tables, table_mask, joins, join_mask, predicates, predicate_mask

    # ------------------------------------------------------------------ #
    # internals

    def _normalize_value(self, qualified_column: str, value: float) -> float:
        low, high = self._value_ranges[qualified_column]
        if high == low:
            return 0.5
        return float(np.clip((value - low) / (high - low), 0.0, 1.0))

    @staticmethod
    def _join_key(left_alias: str, left_column: str, right_alias: str, right_column: str) -> tuple:
        left = (left_alias, left_column)
        right = (right_alias, right_column)
        return (left, right) if left <= right else (right, left)


class MSCNModel(Module):
    """The multi-set convolutional network."""

    def __init__(
        self,
        table_vector_size: int,
        join_vector_size: int,
        predicate_vector_size: int,
        config: MSCNConfig | None = None,
    ) -> None:
        self.config = config or MSCNConfig()
        hidden = self.config.hidden_size
        rng = np.random.default_rng(self.config.seed)
        self.table_vector_size = table_vector_size
        self.join_vector_size = join_vector_size
        self.predicate_vector_size = predicate_vector_size
        self.table_module = Linear(table_vector_size, hidden, rng=rng)
        self.join_module = Linear(join_vector_size, hidden, rng=rng)
        self.predicate_module = Linear(predicate_vector_size, hidden, rng=rng)
        self.out_hidden = Linear(3 * hidden, hidden, rng=rng)
        self.out_final = Linear(hidden, 1, rng=rng)

    @property
    def hidden_size(self) -> int:
        """The hidden dimension."""
        return self.config.hidden_size

    def predict(self, batch: Sequence[np.ndarray]) -> np.ndarray:
        """Normalized log cardinalities ``(B,)`` of a featurized batch, on the live weights.

        ``batch`` is :meth:`MSCNFeaturizer.featurize_batch` output.
        """
        return forward([parameter.data for parameter in self.parameters()], batch)[0][:, 0]


def forward(weights: Sequence[np.ndarray], batch: Sequence[np.ndarray]) -> tuple:
    """MSCN's forward pass on plain arrays.

    ``weights`` are the ten parameter arrays in :meth:`MSCNModel.parameters`
    order; ``batch`` is the padded, masked layout of
    :meth:`MSCNFeaturizer.featurize_batch`.  Per set (tables, joins,
    predicates), every padded row runs through the set module and ReLU, the
    rows are masked and summed, and the sum is divided by the set size
    clamped at 1, so an empty set pools to 0.  The three pooled vectors,
    concatenated, run through ``out_hidden`` + ReLU and ``out_final`` +
    sigmoid.  These are the autodiff reference's primitives in its order
    (``tests/autodiff.py``), so a prediction keeps its bits.

    Returns the ``(B, 1)`` predictions and what :class:`MSCNTrainer`'s
    backward pass reads: per set ``(rows, mask, activations, sizes)``, then
    the concatenated pooled vectors and the hidden activations.
    """
    sets = []
    for index, (vectors, mask) in enumerate(zip(batch[0::2], batch[1::2])):
        count, width, size = vectors.shape
        rows = vectors.reshape(count * width, size)
        activations = np.maximum(rows @ weights[2 * index] + weights[2 * index + 1], 0.0)
        sizes = np.maximum(mask.sum(axis=1), 1.0)
        sets.append((rows, mask, activations.reshape(count, width, -1), sizes))
    combined = np.concatenate(
        [(activations * mask).sum(axis=1) / sizes for _, mask, activations, sizes in sets], axis=1
    )
    hidden = np.maximum(combined @ weights[6] + weights[7], 0.0)
    logits = hidden @ weights[8] + weights[9]
    output = np.empty_like(logits)
    sigmoid_into(logits, output, *np.empty((3, *logits.shape)), np.empty(logits.shape, bool))
    return output, (sets, combined, hidden)


def log_q_error_and_gradient(
    normalizer: CardinalityNormalizer, predictions: np.ndarray, cardinalities: np.ndarray
) -> tuple[float, np.ndarray]:
    """The training loss and its gradient w.r.t. the ``(B,)`` normalized predictions.

    The loss is the mean ``|log max(denormalize(p), 1) - log max(c, 1)|``,
    where ``denormalize(p)`` is ``exp(p * (max_log - min_log) + min_log) - 1``
    with the exponent clipped to ``±700``.  An estimate clamped at 1 gets no
    gradient.
    """
    scale = normalizer.max_log - normalizer.min_log
    exponential = np.exp(np.clip(predictions * scale + normalizer.min_log, -700.0, 700.0))
    estimates = exponential - 1.0
    clamped = np.maximum(estimates, 1.0)
    difference = np.log(clamped) - np.log(np.maximum(cardinalities, 1.0))
    gradient = np.sign(difference) / len(predictions) / clamped * (estimates > 1.0)
    return float(np.abs(difference).mean()), gradient * exponential * scale


class MSCNTrainer:
    """Fused forward + backward + Adam step for the fixed MSCN architecture.

    The :class:`repro.core.training.CRNTrainer` pattern: the trainer
    optimises a private flat copy of the weights (:class:`FlatAdam`) and the
    model only receives fresh copies (:meth:`publish`).  Not thread-safe.
    """

    def __init__(
        self, model: MSCNModel, normalizer: CardinalityNormalizer, learning_rate: float
    ) -> None:
        self.model, self.normalizer = model, normalizer
        # Set modules (tables, joins, predicates), out_hidden, out_final.
        self._adam = FlatAdam(model.parameters(), learning_rate)
        self.weights, self.gradients = self._adam.weights, self._adam.gradients

    def loss_and_gradients(self, batch: Sequence[np.ndarray], cardinalities: np.ndarray) -> float:
        """Forward + backward over one featurized batch: fills ``gradients``, returns the loss."""
        output, (sets, combined, hidden) = forward(self.weights, batch)
        loss, gradient = log_q_error_and_gradient(self.normalizer, output[:, 0], cardinalities)
        weights, gradients = self.weights, self.gradients
        output_gradient = gradient[:, None] * output * (1.0 - output)  # sigmoid
        np.matmul(hidden.T, output_gradient, out=gradients[8])
        np.sum(output_gradient, axis=0, out=gradients[9])
        hidden_gradient = (output_gradient @ weights[8].T) * (hidden > 0.0)
        np.matmul(combined.T, hidden_gradient, out=gradients[6])
        np.sum(hidden_gradient, axis=0, out=gradients[7])
        combined_gradient = hidden_gradient @ weights[6].T
        size = self.model.hidden_size
        for index, (rows, mask, activations, sizes) in enumerate(sets):
            pooled_gradient = combined_gradient[:, index * size : (index + 1) * size] / sizes
            # Un-pool to every masked row, then its ReLU mask.
            row_gradient = pooled_gradient[:, None, :] * mask * (activations > 0.0)
            row_gradient = row_gradient.reshape(len(rows), size)
            np.matmul(rows.T, row_gradient, out=gradients[2 * index])
            np.sum(row_gradient, axis=0, out=gradients[2 * index + 1])
        return loss

    def step(self, batch: Sequence[np.ndarray], cardinalities: np.ndarray) -> float:
        """One optimisation step on one featurized batch; returns the batch loss."""
        loss = self.loss_and_gradients(batch, cardinalities)
        self._adam.step()
        return loss

    def publish(self) -> None:
        """Hand the model fresh copies of the trainer's current weights."""
        self._adam.publish()


class MSCNEstimator(CardinalityEstimator):
    """A :class:`CardinalityEstimator` backed by a trained MSCN model."""

    def __init__(
        self,
        model: MSCNModel,
        featurizer: MSCNFeaturizer,
        normalizer: CardinalityNormalizer,
        batch_size: int = 256,
        name: str | None = None,
    ) -> None:
        self.model = model
        self.featurizer = featurizer
        self.normalizer = normalizer
        self.batch_size = batch_size
        if name is not None:
            self.name = name
        else:
            self.name = "MSCN1000" if featurizer.config.use_samples else "MSCN"

    def estimate_cardinality(self, query: Query) -> float:
        return self.estimate_cardinalities([query])[0]

    def estimate_cardinalities(self, queries: Sequence[Query]) -> list[float]:
        estimates: list[float] = []
        for start in range(0, len(queries), self.batch_size):
            chunk = list(queries[start : start + self.batch_size])
            normalized = self.model.predict(self.featurizer.featurize_batch(chunk))
            estimates.extend(float(v) for v in self.normalizer.denormalize(normalized))
        return [max(estimate, 1.0) for estimate in estimates]


@dataclass(frozen=True)
class MSCNTrainingConfig:
    """Optimisation hyperparameters for MSCN training."""

    epochs: int = 30
    batch_size: int = 64
    learning_rate: float = 0.001
    validation_fraction: float = 0.15
    early_stopping_patience: int = 10
    seed: int = 0


@dataclass
class MSCNTrainingResult:
    """Outcome of an MSCN training run."""

    model: MSCNModel
    featurizer: MSCNFeaturizer
    normalizer: CardinalityNormalizer
    history: list[dict] = field(default_factory=list)
    best_epoch: int = 0
    best_validation_q_error: float = float("inf")

    def estimator(self, batch_size: int = 256) -> MSCNEstimator:
        """Wrap the trained model as a cardinality estimator."""
        return MSCNEstimator(self.model, self.featurizer, self.normalizer, batch_size=batch_size)


class _FeaturizedQueries:
    """Labelled queries pre-featurized into padded batches."""

    def __init__(self, featurizer: MSCNFeaturizer, labeled: Sequence[LabeledQuery]) -> None:
        self.batches = featurizer.featurize_batch([item.query for item in labeled])
        self.cardinalities = np.asarray([item.cardinality for item in labeled], dtype=np.float64)

    def __len__(self) -> int:
        return len(self.cardinalities)

    def batch(self, indices: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        return [part[indices] for part in self.batches], self.cardinalities[indices]


def train_mscn(
    database: Database,
    labeled_queries: Sequence[LabeledQuery],
    mscn_config: MSCNConfig | None = None,
    training_config: MSCNTrainingConfig | None = None,
    verbose: bool = False,
) -> MSCNTrainingResult:
    """Train an MSCN model on labelled queries.

    The loss is the mean absolute log-ratio between the *denormalized*
    cardinality estimate and the true cardinality -- the q-error in log space.
    Kipf et al. train on the raw q-error; the log-space variant ranks models
    identically while keeping gradients bounded on the synthetic corpus, whose
    cardinalities span eight orders of magnitude.
    """
    if not labeled_queries:
        raise ValueError("cannot train on an empty query set")
    mscn_config = mscn_config or MSCNConfig()
    training_config = training_config or MSCNTrainingConfig()

    featurizer = MSCNFeaturizer(database, mscn_config)
    normalizer = CardinalityNormalizer.fit([item.cardinality for item in labeled_queries])
    model = MSCNModel(
        featurizer.table_vector_size,
        featurizer.join_vector_size,
        featurizer.predicate_vector_size,
        mscn_config,
    )

    train_items, validation_items = train_validation_split(
        list(labeled_queries),
        validation_fraction=training_config.validation_fraction,
        seed=training_config.seed,
    )
    if not validation_items:
        validation_items = train_items
    train_data = _FeaturizedQueries(featurizer, train_items)
    validation_data = _FeaturizedQueries(featurizer, validation_items)

    trainer = MSCNTrainer(model, normalizer, training_config.learning_rate)
    iterator = BatchIterator(len(train_data), training_config.batch_size, seed=training_config.seed)
    result = MSCNTrainingResult(model=model, featurizer=featurizer, normalizer=normalizer)
    best_state = model.state_dict()
    epochs_without_improvement = 0

    for epoch in range(1, training_config.epochs + 1):
        start = time.perf_counter()
        epoch_losses = [trainer.step(*train_data.batch(indices)) for indices in iterator.epoch()]
        trainer.publish()
        validation_q_error = _validation_q_error(model, normalizer, validation_data)
        result.history.append(
            {
                "epoch": epoch,
                "train_loss": float(np.mean(epoch_losses)),
                "validation_mean_q_error": validation_q_error,
                "seconds": time.perf_counter() - start,
            }
        )
        if verbose:  # pragma: no cover - console output only
            print(f"MSCN epoch {epoch:3d}  validation q-error {validation_q_error:8.3f}")
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
                break

    model.load_state_dict(best_state)
    return result


def _validation_q_error(
    model: MSCNModel, normalizer: CardinalityNormalizer, data: _FeaturizedQueries
) -> float:
    estimates = np.maximum(normalizer.denormalize(model.predict(data.batches)), 1.0)
    truths = np.maximum(data.cardinalities, 1.0)
    return float(q_errors(estimates, truths).mean())
