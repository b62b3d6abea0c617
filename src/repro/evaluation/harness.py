"""The experiment harness: build the database, train the models, run workloads.

Every benchmark and example goes through :class:`ExperimentHarness`, which owns
the expensive shared artifacts (synthetic database, trained CRN / MSCN models,
queries pool, evaluation workloads) and builds each of them lazily exactly
once.  Three :class:`ExperimentProfile` presets scale the whole experiment:

* ``smoke``  -- minutes-long CI profile used by the integration tests;
* ``default`` -- the benchmark profile (laptop-scale, tens of minutes);
* ``paper``  -- the paper's published sizes (100k pairs, H=512, 120 epochs),
  provided for completeness and not executed in CI.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from repro.baselines.mscn import (
    MSCNConfig,
    MSCNEstimator,
    MSCNTrainingConfig,
    MSCNTrainingResult,
    train_mscn,
)
from repro.baselines.postgres import PostgresCardinalityEstimator
from repro.core.cnt2crd import Cnt2CrdEstimator
from repro.core.crd2cnt import Crd2CntEstimator
from repro.core.crn import CRNConfig, CRNEstimator
from repro.core.estimators import CardinalityEstimator, ContainmentEstimator
from repro.core.featurization import QueryFeaturizer
from repro.core.improved import ImprovedEstimator
from repro.core.metrics import ErrorSummary, summarize_by_group
from repro.core.queries_pool import QueriesPool
from repro.core.training import TrainingConfig, TrainingResult, train_crn
from repro.datasets.imdb import SyntheticIMDbConfig, build_synthetic_imdb
from repro.datasets.pairs import LabeledQuery, QueryPair, mscn_training_set
from repro.datasets.workloads import (
    PairWorkload,
    Workload,
    build_cnt_test1,
    build_cnt_test2,
    build_crd_test1,
    build_crd_test2,
    build_queries_pool_queries,
    build_scale_workload,
    build_training_pairs,
)
from repro.db.database import Database
from repro.db.intersection import TrueCardinalityOracle

#: q-error floor for containment rates (rates live in [0, 1] and are often 0).
CONTAINMENT_EPSILON = 1e-3

#: q-error floor for cardinalities (an empty result counts as one row).
CARDINALITY_EPSILON = 1.0


@dataclass(frozen=True)
class ExperimentProfile:
    """All knobs of one end-to-end experiment."""

    name: str
    imdb: SyntheticIMDbConfig = field(default_factory=SyntheticIMDbConfig)
    training_pairs: int = 2000
    crn: CRNConfig = field(default_factory=CRNConfig)
    crn_training: TrainingConfig = field(default_factory=TrainingConfig)
    mscn: MSCNConfig = field(default_factory=MSCNConfig)
    mscn_training: MSCNTrainingConfig = field(default_factory=MSCNTrainingConfig)
    mscn_samples: int = 200
    workload_scale: float = 0.25
    pool_size: int = 300
    seed: int = 0


#: CI-friendly profile: a small database, few pairs, a tiny CRN.
SMOKE_PROFILE = ExperimentProfile(
    name="smoke",
    imdb=SyntheticIMDbConfig(num_titles=600),
    training_pairs=400,
    crn=CRNConfig(hidden_size=32),
    crn_training=TrainingConfig(epochs=12, batch_size=32, early_stopping_patience=6),
    mscn=MSCNConfig(hidden_size=32),
    mscn_training=MSCNTrainingConfig(epochs=12),
    mscn_samples=100,
    workload_scale=0.05,
    pool_size=60,
)

#: Benchmark profile: laptop-scale but large enough for stable rankings.
DEFAULT_PROFILE = ExperimentProfile(
    name="default",
    imdb=SyntheticIMDbConfig(num_titles=2000),
    training_pairs=8000,
    crn=CRNConfig(hidden_size=128, seed=1),
    crn_training=TrainingConfig(epochs=60, batch_size=128, early_stopping_patience=12),
    mscn=MSCNConfig(hidden_size=128),
    mscn_training=MSCNTrainingConfig(epochs=60, batch_size=128),
    mscn_samples=500,
    workload_scale=0.15,
    pool_size=300,
)

#: The paper's published sizes (not run in CI; hours of NumPy training).
PAPER_PROFILE = ExperimentProfile(
    name="paper",
    imdb=SyntheticIMDbConfig(num_titles=50_000),
    training_pairs=100_000,
    crn=CRNConfig(hidden_size=512),
    crn_training=TrainingConfig(epochs=120, batch_size=128, early_stopping_patience=20),
    mscn=MSCNConfig(hidden_size=256),
    mscn_training=MSCNTrainingConfig(epochs=100),
    mscn_samples=1000,
    workload_scale=1.0,
    pool_size=300,
)

PROFILES: dict[str, ExperimentProfile] = {
    "smoke": SMOKE_PROFILE,
    "default": DEFAULT_PROFILE,
    "paper": PAPER_PROFILE,
}


class ExperimentHarness:
    """Lazily builds and caches every artifact the experiments need."""

    def __init__(self, profile: ExperimentProfile | str = "default") -> None:
        self.profile = PROFILES[profile] if isinstance(profile, str) else profile
        self._database: Database | None = None
        self._oracle: TrueCardinalityOracle | None = None
        self._featurizer: QueryFeaturizer | None = None
        self._training_pairs: list[QueryPair] | None = None
        self._mscn_training_queries: list[LabeledQuery] | None = None
        self._crn_result: TrainingResult | None = None
        self._mscn_result: MSCNTrainingResult | None = None
        self._mscn1000_result: MSCNTrainingResult | None = None
        self._pool: QueriesPool | None = None
        self._workloads: dict[str, Workload | PairWorkload] = {}

    # ------------------------------------------------------------------ #
    # shared substrate

    @property
    def database(self) -> Database:
        """The synthetic IMDb database snapshot."""
        if self._database is None:
            self._database = build_synthetic_imdb(self.profile.imdb)
        return self._database

    @property
    def oracle(self) -> TrueCardinalityOracle:
        """The shared memoizing true-cardinality oracle."""
        if self._oracle is None:
            self._oracle = TrueCardinalityOracle(self.database)
        return self._oracle

    @property
    def featurizer(self) -> QueryFeaturizer:
        """The CRN featurizer bound to the database."""
        if self._featurizer is None:
            self._featurizer = QueryFeaturizer(self.database)
        return self._featurizer

    @property
    def training_pairs(self) -> list[QueryPair]:
        """The CRN training corpus (pairs with 0-2 joins)."""
        if self._training_pairs is None:
            self._training_pairs = build_training_pairs(
                self.database,
                count=self.profile.training_pairs,
                seed=self.profile.seed + 1,
                oracle=self.oracle,
            )
        return self._training_pairs

    @property
    def mscn_training_queries(self) -> list[LabeledQuery]:
        """The MSCN training set derived from the CRN pairs (Section 4.1.2)."""
        if self._mscn_training_queries is None:
            self._mscn_training_queries = mscn_training_set(
                self.database, self.training_pairs, oracle=self.oracle
            )
        return self._mscn_training_queries

    # ------------------------------------------------------------------ #
    # trained models

    @property
    def crn_result(self) -> TrainingResult:
        """The trained CRN model (trained on first access)."""
        if self._crn_result is None:
            self._crn_result = train_crn(
                self.featurizer,
                self.training_pairs,
                crn_config=self.profile.crn,
                training_config=self.profile.crn_training,
            )
        return self._crn_result

    @property
    def mscn_result(self) -> MSCNTrainingResult:
        """The trained MSCN model (no samples)."""
        if self._mscn_result is None:
            self._mscn_result = train_mscn(
                self.database,
                self.mscn_training_queries,
                mscn_config=self.profile.mscn,
                training_config=self.profile.mscn_training,
            )
        return self._mscn_result

    @property
    def mscn1000_result(self) -> MSCNTrainingResult:
        """The trained sample-bitmap MSCN variant ("MSCN with samples")."""
        if self._mscn1000_result is None:
            config = replace(
                self.profile.mscn, use_samples=True, sample_size=self.profile.mscn_samples
            )
            self._mscn1000_result = train_mscn(
                self.database,
                self.mscn_training_queries,
                mscn_config=config,
                training_config=self.profile.mscn_training,
            )
        return self._mscn1000_result

    # ------------------------------------------------------------------ #
    # estimators

    def crn_estimator(self) -> CRNEstimator:
        """The trained CRN containment estimator."""
        return self.crn_result.estimator()

    def postgres_estimator(self) -> PostgresCardinalityEstimator:
        """The PostgreSQL-style statistics baseline."""
        return PostgresCardinalityEstimator(self.database)

    def mscn_estimator(self) -> MSCNEstimator:
        """The MSCN cardinality baseline."""
        return self.mscn_result.estimator()

    def mscn1000_estimator(self) -> MSCNEstimator:
        """The sample-enhanced MSCN baseline."""
        return self.mscn1000_result.estimator()

    def crd2cnt_estimators(self) -> dict[str, ContainmentEstimator]:
        """The containment estimators compared in Section 4 (CRN + Crd2Cnt baselines)."""
        return {
            "Crd2Cnt(PostgreSQL)": Crd2CntEstimator(self.postgres_estimator()),
            "Crd2Cnt(MSCN)": Crd2CntEstimator(self.mscn_estimator()),
            "CRN": self.crn_estimator(),
        }

    @property
    def pool(self) -> QueriesPool:
        """The queries pool of Section 6.2."""
        if self._pool is None:
            labelled = build_queries_pool_queries(
                self.database,
                count=self.profile.pool_size,
                seed=self.profile.seed + 29,
                oracle=self.oracle,
            )
            self._pool = QueriesPool.from_labeled_queries(labelled)
        return self._pool

    def cnt2crd_crn_estimator(
        self,
        pool: QueriesPool | None = None,
        fallback: CardinalityEstimator | None = None,
    ) -> Cnt2CrdEstimator:
        """The paper's proposed cardinality estimator ``Cnt2Crd(CRN)``.

        Args:
            pool: queries pool to use (defaults to the harness pool).
            fallback: estimator consulted when a query's FROM clause has no
                pool match (Section 5.2 suggests falling back to a basic
                estimator); only needed for artificially small pools.
        """
        return Cnt2CrdEstimator(self.crn_estimator(), pool or self.pool, fallback=fallback)

    def improved_postgres_estimator(self, pool: QueriesPool | None = None) -> ImprovedEstimator:
        """``Improved PostgreSQL`` = Cnt2Crd(Crd2Cnt(PostgreSQL))."""
        return ImprovedEstimator(self.postgres_estimator(), pool or self.pool)

    def improved_mscn_estimator(self, pool: QueriesPool | None = None) -> ImprovedEstimator:
        """``Improved MSCN`` = Cnt2Crd(Crd2Cnt(MSCN))."""
        return ImprovedEstimator(self.mscn_estimator(), pool or self.pool)

    def cardinality_estimators(self) -> dict[str, CardinalityEstimator]:
        """The cardinality estimators compared in Section 6 (Tables 6-10)."""
        return {
            "PostgreSQL": self.postgres_estimator(),
            "MSCN": self.mscn_estimator(),
            "Cnt2Crd(CRN)": self.cnt2crd_crn_estimator(),
        }

    def all_cardinality_estimators(self) -> dict[str, CardinalityEstimator]:
        """Every cardinality estimator in the paper, including the improved models."""
        estimators = self.cardinality_estimators()
        estimators["Improved PostgreSQL"] = self.improved_postgres_estimator()
        estimators["Improved MSCN"] = self.improved_mscn_estimator()
        estimators["MSCN1000"] = self.mscn1000_estimator()
        return estimators

    # ------------------------------------------------------------------ #
    # workloads

    def workload(self, name: str) -> Workload | PairWorkload:
        """Build (once) and return one of the paper's evaluation workloads.

        Supported names: ``cnt_test1``, ``cnt_test2``, ``crd_test1``,
        ``crd_test2``, ``scale``.
        """
        if name not in self._workloads:
            scale = self.profile.workload_scale
            seed = self.profile.seed
            builders = {
                "cnt_test1": lambda: build_cnt_test1(self.database, scale=scale, seed=seed + 11, oracle=self.oracle),
                "cnt_test2": lambda: build_cnt_test2(self.database, scale=scale, seed=seed + 13, oracle=self.oracle),
                "crd_test1": lambda: build_crd_test1(self.database, scale=scale, seed=seed + 17, oracle=self.oracle),
                "crd_test2": lambda: build_crd_test2(self.database, scale=scale, seed=seed + 19, oracle=self.oracle),
                "scale": lambda: build_scale_workload(self.database, scale=scale, seed=seed + 23, oracle=self.oracle),
            }
            if name not in builders:
                raise KeyError(f"unknown workload {name!r}; available: {sorted(builders)}")
            self._workloads[name] = builders[name]()
        return self._workloads[name]

    # ------------------------------------------------------------------ #
    # evaluation

    def evaluate_cardinality_per_join(
        self,
        workload_name: str,
        estimators: Mapping[str, CardinalityEstimator] | None = None,
    ) -> dict[str, dict[int, ErrorSummary]]:
        """Per-join-count error summaries (Table 9 / Figure 11)."""
        workload = self.workload(workload_name)
        if not isinstance(workload, Workload):
            raise TypeError(f"workload {workload_name!r} is not a cardinality workload")
        estimators = estimators or self.cardinality_estimators()
        queries = [labeled.query for labeled in workload.queries]
        truths = [labeled.cardinality for labeled in workload.queries]
        groups = [labeled.num_joins for labeled in workload.queries]
        result: dict[str, dict[int, ErrorSummary]] = {}
        for name, estimator in estimators.items():
            estimates = estimator.estimate_cardinalities(queries)
            result[name] = summarize_by_group(
                name, estimates, truths, groups, epsilon=CARDINALITY_EPSILON
            )
        return result


@lru_cache(maxsize=4)
def get_harness(profile: str = "default") -> ExperimentHarness:
    """Shared harness instances keyed by profile name.

    Benchmarks and examples call this so the expensive artifacts (database,
    trained models, workloads) are built once per process and reused.
    """
    return ExperimentHarness(profile)
