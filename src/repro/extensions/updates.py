"""Handling database updates (Section 9, "Database updates").

The paper sketches two approaches for keeping CRN usable when the database
changes: (1) fully re-train on a freshly generated training set, and (2)
incrementally train the existing model on new samples.  Both are implemented
here on top of the standard training loop; the incremental path reuses the
trained weights and continues optimisation on pairs labelled against the
updated snapshot.

Each call runs to completion and returns a new :class:`TrainingResult` with
a model and a featurizer of its own; nothing is retrained in place.  A
serving deployment follows an update the same way: the lifecycle
(:class:`repro.serving.CRNRetrainer`) retrains through these functions, and
the candidate is served by a newly wired estimator over the new model, the
new featurizer and :func:`refresh_queries_pool`'s refreshed pool.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from repro.core.crn import CRNConfig, CRNModel
from repro.core.featurization import QueryFeaturizer
from repro.core.queries_pool import QueriesPool
from repro.core.training import (
    CRNTrainer,
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
    )


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
