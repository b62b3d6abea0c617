"""Handling database updates (Section 9, "Database updates").

The paper sketches two approaches for keeping CRN usable when the database
changes: (1) fully re-train on a freshly generated training set, and (2)
incrementally train the existing model on new samples.  Both are implemented
here on top of the standard training loop; the incremental path reuses the
trained weights and continues optimisation on pairs labelled against the
updated snapshot.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from repro.core.crn import CRNConfig, CRNModel
from repro.core.featurization import QueryFeaturizer
from repro.core.queries_pool import QueriesPool
from repro.core.training import (
    CRNTrainer,
    EpochStats,
    RaggedPairs,
    TrainingConfig,
    TrainingResult,
    train_crn,
)
from repro.datasets.pairs import QueryPair, label_pairs
from repro.datasets.workloads import build_training_pairs
from repro.db.database import Database
from repro.db.intersection import TrueCardinalityOracle


def retrain_from_scratch(
    database: Database,
    training_pairs: int = 2000,
    crn_config: CRNConfig | None = None,
    training_config: TrainingConfig | None = None,
    seed: int = 1,
) -> TrainingResult:
    """Approach (1): regenerate the training set on the new snapshot and re-train.

    This is the safe path after schema changes, because the featurizer layout
    is rebuilt from the updated schema.
    """
    featurizer = QueryFeaturizer(database)
    pairs = build_training_pairs(database, count=training_pairs, seed=seed)
    return train_crn(featurizer, pairs, crn_config=crn_config, training_config=training_config)


def incremental_update(
    result: TrainingResult,
    updated_database: Database,
    new_pairs: Sequence[QueryPair] | Sequence[tuple],
    training_config: TrainingConfig | None = None,
    epochs: int = 5,
    on_epoch=None,
    should_stop=None,
) -> TrainingResult:
    """Approach (2): continue training the existing model on new labelled pairs.

    Args:
        result: the previous training result (its model weights are reused).
        updated_database: the updated snapshot; it must keep the same schema
            (same featurizer layout) -- schema changes require
            :func:`retrain_from_scratch`.
        new_pairs: either :class:`QueryPair` objects already labelled against
            the updated snapshot, or raw ``(Q1, Q2)`` tuples to be labelled
            here.
        training_config: optimisation settings; defaults are used when omitted.
        epochs: number of incremental epochs.
        on_epoch: optional callback receiving each completed epoch's
            :class:`~repro.core.training.EpochStats` (progress reporting for
            long retrains; see :class:`RetrainSession`).
        should_stop: optional zero-argument callable polled between epochs;
            returning True stops the loop cleanly after the current epoch
            (the returned result holds the completed epochs' weights and can
            be resumed by a further call).

    Returns:
        A new :class:`TrainingResult` whose model starts from the previous
        weights and has been fine-tuned on the new pairs.
    """
    if not new_pairs:
        raise ValueError("incremental training needs at least one new pair")
    new_featurizer = QueryFeaturizer(updated_database)
    if new_featurizer.vector_size != result.featurizer.vector_size:
        raise ValueError(
            "the updated database has a different schema layout; incremental training "
            "cannot re-map learned weights -- use retrain_from_scratch instead"
        )
    if not isinstance(new_pairs[0], QueryPair):
        oracle = TrueCardinalityOracle(updated_database)
        new_pairs = label_pairs(updated_database, list(new_pairs), oracle=oracle)

    model = CRNModel(new_featurizer.vector_size, result.model.config)
    model.load_state_dict(result.model.state_dict())
    return _fit_more_epochs(
        TrainingResult(model=model, featurizer=new_featurizer),
        RaggedPairs.featurize(new_featurizer, list(new_pairs)),
        training_config or TrainingConfig(),
        epochs,
        on_epoch=on_epoch,
        should_stop=should_stop,
    )


def _fit_more_epochs(
    warm_result: TrainingResult,
    data: RaggedPairs,
    config: TrainingConfig,
    epochs: int,
    on_epoch=None,
    should_stop=None,
) -> TrainingResult:
    """``epochs`` more epochs from ``warm_result``'s current weights.

    The same epoch loop as :func:`train_crn`, :meth:`CRNTrainer.fit`, whose
    docstring says why this path validates on the training pairs, never stops
    early and keeps the last epoch's weights instead of the best epoch's.
    """
    config = replace(config, epochs=epochs, early_stopping_patience=0)
    return CRNTrainer(warm_result.model, config).fit(
        warm_result, data, restore_best=False, on_epoch=on_epoch, should_stop=should_stop
    )


@dataclass(frozen=True)
class RetrainProgress:
    """One progress report from a :class:`RetrainSession` (emitted per epoch).

    Attributes:
        mode: ``"incremental"`` (fine-tuning the existing weights) or
            ``"full"`` (fresh weights on the updated snapshot).
        epochs_completed: epochs finished so far, cumulative across resumes.
        target_epochs: the cumulative epoch count the current run aims for.
        train_loss: the completed epoch's mean training loss.
        validation_q_error: the completed epoch's geometric-mean q-error.
        seconds: the completed epoch's wall-clock duration.
    """

    mode: str
    epochs_completed: int
    target_epochs: int
    train_loss: float
    validation_q_error: float
    seconds: float

    @property
    def fraction(self) -> float:
        """Completed fraction of the current run's epoch budget."""
        if self.target_epochs <= 0:
            return 0.0
        return min(self.epochs_completed / self.target_epochs, 1.0)


class RetrainSession:
    """A resumable, progress-reporting wrapper around the retraining entrypoints.

    The plain functions above run to completion in one opaque call — fine for
    offline experiments, unusable inside a live serving system where a
    retrain runs on a background thread while the dispatcher keeps serving
    (:mod:`repro.serving.lifecycle`).  A session adds the two properties a
    long-running retrain needs:

    * **progress**: ``on_progress`` receives a :class:`RetrainProgress` after
      every epoch, so the lifecycle can report how far along a retrain is;
    * **resumability**: :meth:`cancel` stops the loop cleanly after the
      current epoch, keeping the completed epochs' weights; a later
      :meth:`run` continues from them instead of starting over.  (The Adam
      moments are rebuilt on resume — only the weights persist, which is the
      same contract :func:`incremental_update` offers between calls.)

    ``mode`` follows the paper's two update approaches: with a
    ``base_result`` the session fine-tunes the existing model on pairs
    labelled against the updated snapshot (approach 2); without one it
    trains fresh weights on a freshly generated training set (approach 1).
    Full-mode sessions train for the requested epoch budget without early
    stopping — the lifecycle's accept gate, not a validation split, decides
    whether the candidate ships.

    Args:
        updated_database: the snapshot to label pairs against and featurize
            from.
        base_result: the previous training result to fine-tune (None for a
            full retrain).  Schema changes require full mode, exactly as with
            :func:`incremental_update`.
        pairs: labelled :class:`~repro.datasets.pairs.QueryPair` objects or
            raw ``(Q1, Q2)`` tuples (labelled here); generated from the
            snapshot when omitted.
        training_pairs: how many pairs to generate when ``pairs`` is omitted.
        crn_config: architecture for full mode (ignored in incremental mode —
            the base model's architecture is kept).
        training_config: optimisation settings; defaults when omitted.
        seed: pair-generation seed.
        on_progress: per-epoch :class:`RetrainProgress` callback.
    """

    def __init__(
        self,
        updated_database: Database,
        base_result: TrainingResult | None = None,
        pairs: Sequence[QueryPair] | Sequence[tuple] | None = None,
        training_pairs: int = 200,
        crn_config: CRNConfig | None = None,
        training_config: TrainingConfig | None = None,
        seed: int = 1,
        on_progress: Callable[[RetrainProgress], None] | None = None,
    ) -> None:
        if training_pairs <= 0:
            raise ValueError("training_pairs must be positive")
        self.database = updated_database
        self.mode = "incremental" if base_result is not None else "full"
        self.on_progress = on_progress
        self._base_result = base_result
        self._supplied_pairs = pairs
        self._training_pairs = training_pairs
        self._crn_config = crn_config
        self._training_config = training_config or TrainingConfig()
        self._seed = seed
        self._cancel = threading.Event()
        self._last_run_cancelled = False
        self._target_epochs = 0
        self._result: TrainingResult | None = None
        self._data: RaggedPairs | None = None

    # ------------------------------------------------------------------ #
    # state

    @property
    def result(self) -> TrainingResult | None:
        """The training state so far (None before the first :meth:`run`)."""
        return self._result

    @property
    def epochs_completed(self) -> int:
        """Epochs finished so far, across all runs of this session."""
        return self._result.epochs_run if self._result is not None else 0

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` cut the last :meth:`run` short."""
        return self._last_run_cancelled

    def cancel(self) -> None:
        """Ask a running (or future) :meth:`run` to stop after the current epoch.

        Safe to call from any thread — this is how the lifecycle pauses an
        in-flight retrain without losing the completed epochs.  Each cancel
        is consumed by exactly one :meth:`run`: a cancel issued mid-run stops
        that run, a cancel issued between runs makes the *next* run return
        immediately (zero new epochs) — either way the run after that
        resumes training from the completed weights.
        """
        self._cancel.set()

    # ------------------------------------------------------------------ #
    # training

    def run(self, epochs: int = 5) -> TrainingResult:
        """Train (or continue training) for up to ``epochs`` more epochs.

        Returns the session's :class:`TrainingResult` after the budget is
        exhausted or :meth:`cancel` intervened; call again to resume.
        """
        if epochs <= 0:
            raise ValueError("epochs must be positive")
        if self._cancel.is_set():
            # A cancel issued before this run: honor it instead of silently
            # training the full budget (the flag is consumed here).
            self._cancel.clear()
            self._last_run_cancelled = True
            self._materialize()
            return self._result
        self._last_run_cancelled = False
        data = self._materialize()
        self._target_epochs = self.epochs_completed + epochs
        result = _fit_more_epochs(
            self._result,
            data,
            self._training_config,
            epochs,
            on_epoch=self._report,
            should_stop=self._cancel.is_set,
        )
        if self._cancel.is_set():
            # The mid-run cancel is consumed: the next run resumes training.
            self._cancel.clear()
            self._last_run_cancelled = True
        return result

    def _materialize(self) -> RaggedPairs:
        """Build the featurizer, featurized labelled pairs, and starting weights once."""
        if self._data is not None:
            return self._data
        featurizer = QueryFeaturizer(self.database)
        pairs = self._supplied_pairs
        if pairs is None:
            pairs = build_training_pairs(
                self.database, count=self._training_pairs, seed=self._seed
            )
        pairs = list(pairs)
        if not pairs:
            raise ValueError("retraining needs at least one pair")
        if not isinstance(pairs[0], QueryPair):
            oracle = TrueCardinalityOracle(self.database)
            pairs = label_pairs(self.database, pairs, oracle=oracle)
        if self._base_result is not None:
            if featurizer.vector_size != self._base_result.featurizer.vector_size:
                raise ValueError(
                    "the updated database has a different schema layout; an "
                    "incremental session cannot re-map learned weights -- start a "
                    "full session (base_result=None) instead"
                )
            model = CRNModel(featurizer.vector_size, self._base_result.model.config)
            model.load_state_dict(self._base_result.model.state_dict())
        else:
            model = CRNModel(featurizer.vector_size, self._crn_config or CRNConfig())
        self._result = TrainingResult(model=model, featurizer=featurizer)
        self._data = RaggedPairs.featurize(featurizer, pairs)
        return self._data

    def _report(self, stats: EpochStats) -> None:
        if self.on_progress is None:
            return
        self.on_progress(
            RetrainProgress(
                mode=self.mode,
                epochs_completed=stats.epoch,
                target_epochs=self._target_epochs,
                train_loss=stats.train_loss,
                validation_q_error=stats.validation_mean_q_error,
                seconds=stats.seconds,
            )
        )


def refresh_queries_pool(pool: QueriesPool, updated_database: Database) -> QueriesPool:
    """Re-execute every pool query on the updated snapshot to refresh cardinalities.

    The queries pool stores actual cardinalities, which become stale when the
    data changes; the refreshed pool keeps the same queries with up-to-date
    counts.
    """
    oracle = TrueCardinalityOracle(updated_database)
    refreshed = QueriesPool()
    for entry in pool:
        refreshed.add(entry.query, oracle.cardinality(entry.query))
    return refreshed
