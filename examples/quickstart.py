"""Quickstart: train CRN and estimate containment rates and cardinalities.

This walks through the paper's full pipeline end to end on a small synthetic
database:

1. build the synthetic IMDb-like database;
2. generate and label a training corpus of query pairs;
3. train the CRN containment-rate model;
4. estimate containment rates for a hand-written query pair;
5. build a queries pool and estimate a query's cardinality with the
   Cnt2Crd technique, comparing against the true cardinality and the
   PostgreSQL-style baseline.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.baselines import PostgresCardinalityEstimator
from repro.core import (
    CRNConfig,
    Cnt2CrdEstimator,
    QueriesPool,
    QueryFeaturizer,
    TrainingConfig,
    train_crn,
)
from repro.datasets import (
    SyntheticIMDbConfig,
    build_queries_pool_queries,
    build_synthetic_imdb,
    build_training_pairs,
)
from repro.db import TrueCardinalityOracle
from repro.sql import parse_query


def main() -> None:
    # 1. The database snapshot (a synthetic stand-in for IMDb, see repro.datasets.imdb).
    database = build_synthetic_imdb(SyntheticIMDbConfig(num_titles=1000))
    oracle = TrueCardinalityOracle(database)
    print(database.describe())

    # 2. Training corpus: pairs of queries with their true containment rates.
    print("\nGenerating and labelling training pairs ...")
    pairs = build_training_pairs(database, count=2000, oracle=oracle)

    # 3. Train the CRN model.
    print("Training CRN ...")
    featurizer = QueryFeaturizer(database)
    result = train_crn(
        featurizer,
        pairs,
        crn_config=CRNConfig(hidden_size=64),
        training_config=TrainingConfig(epochs=25, batch_size=64),
    )
    print(
        f"trained for {result.epochs_run} epochs, "
        f"best validation q-error {result.best_validation_q_error:.2f}"
    )
    crn = result.estimator()

    # 4. Estimate containment rates for a pair of queries.
    first = parse_query(
        "SELECT * FROM title t, movie_companies mc "
        "WHERE t.id = mc.movie_id AND t.production_year > 2000 AND mc.company_type_id = 2"
    )
    second = parse_query(
        "SELECT * FROM title t, movie_companies mc "
        "WHERE t.id = mc.movie_id AND t.production_year > 1990"
    )
    estimated_rate = crn.estimate_containment(first, second)
    true_rate = oracle.containment_rate(first, second)
    print("\nContainment rate Q1 ⊂% Q2")
    print(f"  estimated: {estimated_rate:6.1%}   true: {true_rate:6.1%}")

    # 5. Cardinality estimation with the queries pool (Cnt2Crd technique).
    print("\nBuilding the queries pool ...")
    pool = QueriesPool.from_labeled_queries(
        build_queries_pool_queries(database, count=150, oracle=oracle)
    )
    cnt2crd = Cnt2CrdEstimator(crn, pool)
    postgres = PostgresCardinalityEstimator(database)

    target = parse_query(
        "SELECT * FROM title t, movie_companies mc, movie_keyword mk "
        "WHERE t.id = mc.movie_id AND t.id = mk.movie_id AND t.production_year > 2005"
    )
    print("Cardinality of:", target)
    print(f"  true:          {oracle.cardinality(target):>12,}")
    print(f"  Cnt2Crd(CRN):  {cnt2crd.estimate_cardinality(target):>12,.0f}")
    print(f"  PostgreSQL:    {postgres.estimate_cardinality(target):>12,.0f}")


if __name__ == "__main__":
    main()
