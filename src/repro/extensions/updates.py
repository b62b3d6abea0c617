"""Handling database updates (Section 9, "Database updates").

The paper sketches two approaches for keeping CRN usable when the database
changes: (1) fully re-train on a freshly generated training set, and (2)
incrementally train the existing model on new samples.  One function does
each: :func:`retrain_from_scratch` fits a fresh model, and
:func:`incremental_update` continues from the trained weights.  Both take
pairs labelled against the updated snapshot (or raw pairs they label there),
run the standard epoch loop for every epoch they are given, with no
validation split or early stopping, and keep the last epoch's weights.

Each call runs to completion and returns a new :class:`TrainingResult` with
a model and a featurizer of its own; nothing is retrained in place.  A
serving deployment follows an update the same way: the lifecycle
(:class:`repro.serving.AdaptationManager`) retrains through these functions,
and the candidate is served by a newly wired estimator over the new model,
the new featurizer and :func:`refresh_queries_pool`'s refreshed pool.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from repro.core.crn import CRNConfig, CRNModel
from repro.core.featurization import QueryFeaturizer
from repro.core.queries_pool import QueriesPool
from repro.core.training import CRNTrainer, RaggedPairs, TrainingConfig, TrainingResult
from repro.datasets.pairs import QueryPair, label_pairs
from repro.db.database import Database
from repro.db.intersection import TrueCardinalityOracle


def retrain_from_scratch(
    updated_database: Database,
    new_pairs: Sequence[QueryPair] | Sequence[tuple],
    crn_config: CRNConfig,
    training_config: TrainingConfig | None = None,
    epochs: int = 8,
) -> TrainingResult:
    """Approach (1): train a fresh model of ``crn_config`` on pairs from the new snapshot.

    This is the safe path after schema changes, because the featurizer layout
    is rebuilt from the updated schema.  Like :func:`incremental_update`, it
    runs every epoch and keeps the last epoch's weights.

    Args:
        updated_database: the updated snapshot.
        new_pairs: :class:`QueryPair` objects labelled against the updated
            snapshot, or raw ``(Q1, Q2)`` tuples to be labelled here.
        crn_config: the architecture (and initialisation seed) of the new model.
        training_config: optimisation settings; defaults are used when omitted.
        epochs: number of training epochs.
    """
    featurizer = QueryFeaturizer(updated_database)
    pairs = _labelled(updated_database, new_pairs)
    return _fit_more_epochs(
        TrainingResult(model=CRNModel(featurizer.vector_size, crn_config), featurizer=featurizer),
        RaggedPairs.featurize(featurizer, pairs),
        training_config or TrainingConfig(),
        epochs,
    )


def incremental_update(
    result: TrainingResult,
    updated_database: Database,
    new_pairs: Sequence[QueryPair] | Sequence[tuple],
    training_config: TrainingConfig | None = None,
    epochs: int = 5,
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

    Returns:
        A new :class:`TrainingResult` whose model starts from the previous
        weights and has been fine-tuned on the new pairs.
    """
    new_featurizer = QueryFeaturizer(updated_database)
    if new_featurizer.vector_size != result.featurizer.vector_size:
        raise ValueError(
            "the updated database has a different schema layout; incremental training "
            "cannot re-map learned weights -- use retrain_from_scratch instead"
        )
    pairs = _labelled(updated_database, new_pairs)
    model = CRNModel(new_featurizer.vector_size, result.model.config)
    model.load_state_dict(result.model.state_dict())
    return _fit_more_epochs(
        TrainingResult(model=model, featurizer=new_featurizer),
        RaggedPairs.featurize(new_featurizer, pairs),
        training_config or TrainingConfig(),
        epochs,
    )


def _labelled(
    database: Database, pairs: Sequence[QueryPair] | Sequence[tuple]
) -> list[QueryPair]:
    """``pairs`` as :class:`QueryPair` objects, raw tuples labelled against ``database``."""
    if not pairs:
        raise ValueError("retraining needs at least one new pair")
    if isinstance(pairs[0], QueryPair):
        return list(pairs)
    return label_pairs(database, list(pairs), oracle=TrueCardinalityOracle(database))


def _fit_more_epochs(
    warm_result: TrainingResult,
    data: RaggedPairs,
    config: TrainingConfig,
    epochs: int,
) -> TrainingResult:
    """``epochs`` more epochs from ``warm_result``'s current weights.

    The same epoch loop as :func:`train_crn`, :meth:`CRNTrainer.fit`, whose
    docstring says why this path validates on the training pairs, never stops
    early and keeps the last epoch's weights instead of the best epoch's.
    """
    config = replace(config, epochs=epochs, early_stopping_patience=0)
    return CRNTrainer(warm_result.model, config).fit(warm_result, data, restore_best=False)


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
