"""Query featurization for the CRN model (Section 3.2.1, Table 1).

A query is represented as a *set of vectors*, one vector per element of its
table set ``T``, join set ``J`` and predicate set ``P``.  Unlike MSCN, all
vectors share one fixed layout so the same set-encoder network can consume
tables, joins and predicates alike:

====================  ==========  ===========================================
segment               size        contents
====================  ==========  ===========================================
``T-seg``             ``#T``      one-hot of the table (table elements)
``J1-seg``            ``#C``      one-hot of the join's left column
``J2-seg``            ``#C``      one-hot of the join's right column
``C-seg``             ``#C``      one-hot of the predicate's column
``O-seg``             ``#O``      one-hot of the predicate's operator
``V-seg``             ``1``       predicate value, min-max normalized to [0,1]
====================  ==========  ===========================================

giving a total dimension ``L = #T + 3 * #C + #O + 1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.db.database import Database
from repro.db.schema import DatabaseSchema
from repro.sql.query import OPERATORS, Query


@dataclass(frozen=True)
class FeatureLayout:
    """The segment offsets of the shared vector layout (Table 1).

    Attributes:
        num_tables: ``#T``, number of tables in the database schema.
        num_columns: ``#C``, number of qualified columns in the schema.
        num_operators: ``#O``, number of predicate operators.
    """

    num_tables: int
    num_columns: int
    num_operators: int

    @property
    def table_offset(self) -> int:
        """Start of the T-seg segment."""
        return 0

    @property
    def join_left_offset(self) -> int:
        """Start of the J1-seg segment."""
        return self.num_tables

    @property
    def join_right_offset(self) -> int:
        """Start of the J2-seg segment."""
        return self.num_tables + self.num_columns

    @property
    def predicate_column_offset(self) -> int:
        """Start of the C-seg segment."""
        return self.num_tables + 2 * self.num_columns

    @property
    def operator_offset(self) -> int:
        """Start of the O-seg segment."""
        return self.num_tables + 3 * self.num_columns

    @property
    def value_offset(self) -> int:
        """Index of the single V-seg entry."""
        return self.num_tables + 3 * self.num_columns + self.num_operators

    @property
    def vector_size(self) -> int:
        """The total vector dimension ``L``."""
        return self.num_tables + 3 * self.num_columns + self.num_operators + 1


class QueryFeaturizer:
    """Converts queries into the CRN set-of-vectors representation.

    The featurizer is bound to a database snapshot: the one-hot layouts come
    from the schema and predicate values are normalized with each column's
    actual min/max (Section 3.2.1).

    Args:
        database: the database snapshot the queries run against.
    """

    def __init__(self, database: Database) -> None:
        self.database = database
        schema: DatabaseSchema = database.schema
        self._table_index = {alias: i for i, alias in enumerate(schema.aliases)}
        self._column_index = {name: i for i, name in enumerate(schema.qualified_columns())}
        self._operator_index = {op: i for i, op in enumerate(OPERATORS)}
        self.layout = FeatureLayout(
            num_tables=len(self._table_index),
            num_columns=len(self._column_index),
            num_operators=len(self._operator_index),
        )
        self._value_ranges = {
            qualified: database.column_range(*qualified.split(".", 1))
            for qualified in self._column_index
        }
        # Everything featurization depends on besides the query itself: the
        # one-hot layouts and the normalization ranges.  Hashing it into the
        # cache key lets caches be shared (or at least collide safely) across
        # featurizers bound to different database snapshots.
        self._fingerprint = hash(
            (
                tuple(self._table_index),
                tuple(self._column_index),
                tuple(self._operator_index),
                tuple(sorted(self._value_ranges.items())),
            )
        )

    @property
    def vector_size(self) -> int:
        """The featurized vector dimension ``L``."""
        return self.layout.vector_size

    @property
    def fingerprint(self) -> int:
        """A hash of the featurizer's layout and normalization ranges.

        Two featurizers with equal fingerprints featurize every query
        identically, so cached featurizations keyed by :meth:`cache_key`
        remain valid across featurizer instances over the same snapshot.
        """
        return self._fingerprint

    def cache_key(self, query: Query) -> tuple[int, Query]:
        """A hashable memoization key for :meth:`featurize`.

        Queries are immutable and hash structurally, so ``(fingerprint,
        query)`` uniquely identifies the featurization result; see
        :class:`repro.serving.FeaturizationCache`.
        """
        return (self._fingerprint, query)

    # ------------------------------------------------------------------ #
    # featurization

    def featurize(self, query: Query) -> np.ndarray:
        """Return ``query``'s set of feature vectors as a ``(set size, L)`` matrix.

        The set always contains at least one vector (every query references at
        least one table), so the average pooling of the set encoder is well
        defined.
        """
        layout = self.layout
        tables, joins, predicates = query.tables, query.joins, query.predicates
        matrix = np.zeros((len(tables) + len(joins) + len(predicates), layout.vector_size))
        table_offset = layout.table_offset
        for row, table in enumerate(tables):
            matrix[row, table_offset + self._table_of(table.alias)] = 1.0
        left_offset, right_offset = layout.join_left_offset, layout.join_right_offset
        for row, join in enumerate(joins, start=len(tables)):
            matrix[row, left_offset + self._column_of(join.left)] = 1.0
            matrix[row, right_offset + self._column_of(join.right)] = 1.0
        column_offset, operator_offset = layout.predicate_column_offset, layout.operator_offset
        value_offset = layout.value_offset
        for row, predicate in enumerate(predicates, start=len(tables) + len(joins)):
            qualified = predicate.qualified_column
            matrix[row, column_offset + self._column_of(qualified)] = 1.0
            matrix[row, operator_offset + self._operator_index[predicate.operator]] = 1.0
            matrix[row, value_offset] = self.normalize_value(qualified, predicate.value)
        return matrix

    def normalize_value(self, qualified_column: str, value: float) -> float:
        """Min-max normalize a predicate value using the column's value range."""
        low, high = self._value_ranges[qualified_column]
        if high == low:
            return 0.5
        return min(max((value - low) / (high - low), 0.0), 1.0)

    # ------------------------------------------------------------------ #
    # batching

    def pad_sets(self, sets: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Pad variable-size vector sets into a dense batch.

        Returns:
            A ``(batch, max set size, L)`` array of padded vectors and a
            ``(batch, max set size, 1)`` mask that is 1 for real vectors and 0
            for padding, ready for masked average pooling.
        """
        if not sets:
            raise ValueError("cannot pad an empty batch")
        max_size = max(matrix.shape[0] for matrix in sets)
        batch = np.zeros((len(sets), max_size, self.vector_size))
        mask = np.zeros((len(sets), max_size, 1))
        for index, matrix in enumerate(sets):
            batch[index, : matrix.shape[0], :] = matrix
            mask[index, : matrix.shape[0], 0] = 1.0
        return batch, mask

    def featurize_batch(self, queries: list[Query]) -> tuple[np.ndarray, np.ndarray]:
        """Featurize and pad a batch of queries in one call."""
        return self.pad_sets([self.featurize(query) for query in queries])

    # ------------------------------------------------------------------ #
    # internals

    def _table_of(self, alias: str) -> int:
        if alias not in self._table_index:
            raise KeyError(f"alias {alias!r} is not part of the database schema")
        return self._table_index[alias]

    def _column_of(self, qualified_column: str) -> int:
        if qualified_column not in self._column_index:
            raise KeyError(f"column {qualified_column!r} is not part of the database schema")
        return self._column_index[qualified_column]
