"""Reproduction of "Improved Cardinality Estimation by Learning Queries
Containment Rates" (Hayek & Shmueli, EDBT 2020).

The package is organised around the paper's pipeline:

* :mod:`repro.sql` -- the conjunctive query model (SELECT * / equi-joins /
  column predicates) with parsing, intersection and analytic containment.
* :mod:`repro.db` -- the in-memory relational substrate: columnar storage,
  exact execution, ANALYZE statistics, materialized samples.
* :mod:`repro.datasets` -- the synthetic IMDb-like database and the paper's
  query / query-pair / workload generators.
* :mod:`repro.nn` -- the pure-NumPy neural-network substrate (parameters,
  Adam, losses, serialization).
* :mod:`repro.core` -- the paper's contribution: CRN, the Crd2Cnt / Cnt2Crd
  transformations, the queries pool, and the improved-model construction.
* :mod:`repro.baselines` -- PostgreSQL-style, MSCN and sampling estimators.
* :mod:`repro.evaluation` -- the experiment harness, the per-table/figure
  experiment registry, and timing/serving metrics.
* :mod:`repro.serving` -- the online estimation service: cross-request batch
  planning, featurization/encoding caches, one served estimator with a fallback.
* :mod:`repro.extensions` -- Section 9 future-work features (set queries,
  string predicates, database updates).

Quickstart::

    from repro.datasets import build_synthetic_imdb, build_training_pairs
    from repro.core import QueryFeaturizer, train_crn

    database = build_synthetic_imdb()
    pairs = build_training_pairs(database, count=1000)
    result = train_crn(QueryFeaturizer(database), pairs)
    estimator = result.estimator()

See ``examples/quickstart.py`` for the full end-to-end walkthrough.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
