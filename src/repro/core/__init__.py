"""The paper's primary contribution.

* :mod:`repro.core.featurization` -- the shared vector layout of Table 1 and
  the query-to-set-of-vectors featurizer.
* :mod:`repro.core.crn` -- the CRN model (set encoders, Expand, MLPout) and
  its estimator wrapper.
* :mod:`repro.core.training` -- the Adam + q-error training loop with early
  stopping and convergence history.
* :mod:`repro.core.metrics` -- q-error and the paper's percentile summaries.
* :mod:`repro.core.estimators` -- the cardinality / containment estimator
  interfaces.
* :mod:`repro.core.crd2cnt` / :mod:`repro.core.cnt2crd` -- the two
  transformations between the problems (Sections 4.1 and 5.1).
* :mod:`repro.core.queries_pool` -- the queries pool (Section 5.2).
* :mod:`repro.core.final_functions` -- median / mean / trimmed-mean final
  functions (Section 5.3.1).
* :mod:`repro.core.improved` -- ``Improved M = Cnt2Crd(Crd2Cnt(M))``
  (Section 7).
* :mod:`repro.core.oracle` -- ground-truth estimators used as sanity
  references in tests.
"""

from repro.core.cnt2crd import Cnt2CrdEstimator, NoMatchingPoolQueryError
from repro.core.crd2cnt import Crd2CntEstimator
from repro.core.crn import CRNConfig, CRNEstimator, CRNModel
from repro.core.estimators import CardinalityEstimator, ContainmentEstimator
from repro.core.featurization import FeatureLayout, QueryFeaturizer
from repro.core.final_functions import (
    FINAL_FUNCTIONS,
    get_final_function,
    mean_final,
    median_final,
    trimmed_mean_final,
)
from repro.core.improved import ImprovedEstimator, improve
from repro.core.metrics import ErrorSummary, q_error, q_errors, summarize_by_group
from repro.core.oracle import OracleCardinalityEstimator, OracleContainmentEstimator
from repro.core.queries_pool import PoolEntry, PoolSlab, QueriesPool
from repro.core.training import (
    EpochStats,
    TrainingConfig,
    TrainingResult,
    evaluate_pairs_q_error,
    train_crn,
)

__all__ = [
    "CRNConfig",
    "CRNEstimator",
    "CRNModel",
    "CardinalityEstimator",
    "Cnt2CrdEstimator",
    "ContainmentEstimator",
    "Crd2CntEstimator",
    "EpochStats",
    "ErrorSummary",
    "FINAL_FUNCTIONS",
    "FeatureLayout",
    "ImprovedEstimator",
    "NoMatchingPoolQueryError",
    "OracleCardinalityEstimator",
    "OracleContainmentEstimator",
    "PoolEntry",
    "PoolSlab",
    "QueriesPool",
    "QueryFeaturizer",
    "TrainingConfig",
    "TrainingResult",
    "evaluate_pairs_q_error",
    "get_final_function",
    "improve",
    "mean_final",
    "median_final",
    "q_error",
    "q_errors",
    "summarize_by_group",
    "train_crn",
    "trimmed_mean_final",
]
