"""The "scale" workload generator (Section 6.1).

The paper's ``scale`` workload is derived from the MSCN test set of Kipf et
al., i.e. it comes from a *different* query generator than the one used to
train CRN.  Its purpose is to test generalization to queries that were not
produced by the training generator.

This module implements that different generator: it draws join patterns,
predicate counts, operators and values with different distributions than
:class:`repro.datasets.generator.QueryGenerator` (value-anchored predicates,
range-heavy operators, per-table predicate budgets independent of the column
count), mimicking how the MSCN workload generator differs from the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.generator import enumerate_join_subsets
from repro.db.database import Database
from repro.sql.query import ComparisonOperator, Predicate, Query, TableRef


@dataclass(frozen=True)
class ScaleGeneratorConfig:
    """Configuration of the scale-workload generator.

    Attributes:
        max_joins: largest number of join clauses (the paper's scale workload
            has queries with zero to four joins).
        max_predicates_per_query: total predicate budget per query (drawn
            uniformly in ``[1, max]`` and spread over the query's tables).
        range_operator_probability: probability of drawing ``<`` / ``>``
            instead of ``=`` (the MSCN generator is range-heavy).
        seed: RNG seed.
    """

    max_joins: int = 4
    max_predicates_per_query: int = 4
    range_operator_probability: float = 0.7
    seed: int = 101


class ScaleWorkloadGenerator:
    """Generates queries with different statistics than the training generator."""

    def __init__(self, database: Database, config: ScaleGeneratorConfig | None = None) -> None:
        self.database = database
        self.config = config or ScaleGeneratorConfig()
        self._rng = np.random.default_rng(self.config.seed)
        self._join_subsets = enumerate_join_subsets(database, self.config.max_joins)

    def generate_query(self, num_joins: int | None = None) -> Query:
        """Generate a single query, optionally with a fixed number of joins."""
        available = sorted(self._join_subsets)
        if num_joins is None:
            num_joins = int(self._rng.choice(available))
        elif num_joins not in self._join_subsets:
            num_joins = max(count for count in available if count <= num_joins)
        subsets = self._join_subsets[num_joins]
        aliases, joins = subsets[int(self._rng.integers(len(subsets)))]
        tables = [
            TableRef(self.database.schema.table_by_alias(alias).name, alias) for alias in aliases
        ]
        predicates = self._draw_predicates(aliases)
        return Query.create(tables, joins, predicates)

    def generate_queries(self, count: int, num_joins: int | None = None) -> list[Query]:
        """Generate ``count`` distinct queries."""
        queries: list[Query] = []
        seen: set[Query] = set()
        attempts = 0
        while len(queries) < count and attempts < count * 60 + 100:
            attempts += 1
            query = self.generate_query(num_joins)
            if query in seen:
                continue
            seen.add(query)
            queries.append(query)
        if len(queries) < count:
            raise RuntimeError(
                f"scale generator produced only {len(queries)} of {count} requested queries"
            )
        return queries

    # ------------------------------------------------------------------ #
    # internals

    def _draw_predicates(self, aliases: tuple[str, ...]) -> list[Predicate]:
        budget = int(self._rng.integers(1, self.config.max_predicates_per_query + 1))
        predicates: list[Predicate] = []
        for _ in range(budget):
            alias = str(self._rng.choice(aliases))
            table_schema = self.database.schema.table_by_alias(alias)
            non_key = table_schema.non_key_columns
            if not non_key:
                continue
            column = non_key[int(self._rng.integers(len(non_key)))]
            predicates.append(self._draw_predicate(alias, column.name))
        return list(dict.fromkeys(predicates))

    def _draw_predicate(self, alias: str, column: str) -> Predicate:
        # Anchor the value on an actual row so predicates are rarely empty,
        # unlike the training generator which draws uniformly from the range.
        values = self.database.table_by_alias(alias).column(column)
        anchor = float(values[int(self._rng.integers(len(values)))])
        if self._rng.random() < self.config.range_operator_probability:
            operator = (
                ComparisonOperator.LT if self._rng.random() < 0.5 else ComparisonOperator.GT
            )
        else:
            operator = ComparisonOperator.EQ
        return Predicate(alias, column, operator, anchor)
