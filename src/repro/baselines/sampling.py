"""Sampling-based cardinality baselines.

The paper cites Random Sampling (RS) and Index-Based Join Sampling (IBJS) as
the strongest pre-learning baselines that MSCN was shown to beat; they are
provided here both for completeness and as additional models the benchmark
harness can include.

* :class:`RandomSamplingEstimator` evaluates each table's predicates on a
  materialized uniform sample to get per-table selectivities, then combines
  them with the same join-uniformity assumption as the PostgreSQL baseline.
* :class:`IndexBasedJoinSamplingEstimator` goes further: it executes the query
  exactly on a database restricted to a sample of the fact-table rows and
  scales the result up, which captures join-crossing correlations much better
  at a higher estimation cost.
"""

from __future__ import annotations

import numpy as np

from repro.core.estimators import CardinalityEstimator
from repro.db.database import Database
from repro.db.executor import QueryExecutor
from repro.db.sampling import SampleCatalog
from repro.sql.query import Query


class RandomSamplingEstimator(CardinalityEstimator):
    """Per-table sample selectivities combined under independence assumptions."""

    name = "RandomSampling"

    def __init__(self, database: Database, sample_size: int = 1000, seed: int = 0) -> None:
        self.database = database
        self.samples: SampleCatalog = database.samples(sample_size=sample_size, seed=seed)
        self.statistics = database.statistics()

    def estimate_cardinality(self, query: Query) -> float:
        alias_to_table = query.alias_to_table()
        cardinality = 1.0
        for alias in query.aliases:
            table_name = alias_to_table[alias]
            row_count = max(self.statistics.table(table_name).row_count, 1)
            selectivity = self.samples.selectivity(table_name, query.predicates_for(alias))
            # A sample selectivity of zero means "fewer matches than one sample
            # row"; estimate half a sample row instead of an impossible zero.
            if selectivity <= 0.0:
                selectivity = 0.5 / max(self.samples.sample(table_name).actual_size, 1)
            cardinality *= row_count * selectivity
        for join in query.joins:
            left_stats = self.statistics.table(alias_to_table[join.left_alias]).column(join.left_column)
            right_stats = self.statistics.table(alias_to_table[join.right_alias]).column(join.right_column)
            cardinality /= max(left_stats.n_distinct, right_stats.n_distinct, 1)
        return max(float(cardinality), 1.0)


class IndexBasedJoinSamplingEstimator(CardinalityEstimator):
    """Join sampling: execute the query with one table restricted to a sample.

    The query's largest table is replaced by a uniform row sample (the "driver"
    of the join sampling walk); the query is then executed exactly against that
    restricted database -- which is what index lookups on the join keys of the
    sampled rows would compute -- and the resulting count is scaled up by the
    inverse sampling fraction.
    """

    name = "IndexBasedJoinSampling"

    def __init__(self, database: Database, sample_size: int = 1000, seed: int = 0) -> None:
        self.database = database
        self.sample_size = sample_size
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._restricted_cache: dict[str, QueryExecutor] = {}

    def estimate_cardinality(self, query: Query) -> float:
        alias_to_table = query.alias_to_table()
        driver_alias = max(
            query.aliases, key=lambda alias: self.database.table(alias_to_table[alias]).num_rows
        )
        driver_name = alias_to_table[driver_alias]
        driver_table = self.database.table(driver_name)
        if driver_table.num_rows == 0:
            return 1.0
        restricted = self._restricted_executor(driver_name)
        sampling_fraction = min(self.sample_size, driver_table.num_rows) / driver_table.num_rows
        sampled_count = restricted.cardinality(query, use_cache=False)
        return max(sampled_count / max(sampling_fraction, 1e-12), 1.0)

    def _restricted_executor(self, driver_name: str) -> QueryExecutor:
        """An executor over the original database with ``driver_name`` sampled.

        One per driver table, kept: the executor's join-edge index is built
        from whole columns, which is worth paying once, not per estimate.
        """
        if driver_name in self._restricted_cache:
            return self._restricted_cache[driver_name]
        from repro.db.table import Table

        driver_table = self.database.table(driver_name)
        sample_rows = driver_table.sample_row_ids(self.sample_size, self._rng)
        schema = self.database.schema
        tables = {name: self.database.table(name) for name in self.database.table_names}
        tables[driver_name] = Table(
            schema.table(driver_name),
            {
                column.name: driver_table.column(column.name)[sample_rows]
                for column in schema.table(driver_name).columns
            },
        )
        restricted = QueryExecutor(Database(schema, tables))
        self._restricted_cache[driver_name] = restricted
        return restricted
