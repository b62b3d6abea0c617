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
from typing import Sequence

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
        # The bulk lookups of featurize_many: columns by (alias, column),
        # operators by identity, and the value ranges as arrays by column index.
        self._column_by_pair = {
            tuple(qualified.split(".", 1)): index for qualified, index in self._column_index.items()
        }
        self._operator_by_id = {id(op): index for op, index in self._operator_index.items()}
        low, high = np.array(list(self._value_ranges.values()), dtype=np.float64).reshape(-1, 2).T
        self._value_low, self._value_constant = low, high == low
        self._value_span = np.where(self._value_constant, 1.0, high - low)

    @property
    def vector_size(self) -> int:
        """The featurized vector dimension ``L``."""
        return self.layout.vector_size

    # ------------------------------------------------------------------ #
    # featurization

    def featurize(self, query: Query) -> np.ndarray:
        """Return ``query``'s set of feature vectors as a ``(set size, L)`` matrix.

        The set always contains at least one vector (every query references at
        least one table), so the average pooling of the set encoder is well
        defined.  The one-query case of :meth:`featurize_many`.
        """
        return self.featurize_many((query,))[0]

    def featurize_many(self, queries: Sequence[Query]) -> tuple[np.ndarray, np.ndarray]:
        """Every query's set of feature vectors in one array pass: ``(rows, counts)``.

        ``rows`` stacks the sets in order, query ``i``'s ``counts[i]`` rows
        being its tables, then its joins, then its predicates; it is bit for
        bit the concatenation of :meth:`featurize` over ``queries``, and an
        unknown alias or column raises the ``KeyError`` :meth:`featurize`
        raises for the first query that has one.  Table and join rows depend
        on the FROM clause and join set alone, so their cells are resolved
        once per distinct ``(tables, joins)`` — once for a whole pool bucket
        — and the matrix is written by four scatters, however many queries.
        """
        layout, width = self.layout, self.layout.vector_size
        groups: dict = {}
        group_of = [
            groups.setdefault((query.tables, query.joins), len(groups)) for query in queries
        ]
        clauses = [query.predicates for query in queries]
        try:
            headers = [self._header_cells(*key) for key in groups]
            columns, operators, values = self._predicate_cells(
                [predicate for clause in clauses for predicate in clause]
            )
        except KeyError:
            for query in queries if len(queries) > 1 else ():
                self.featurize_many((query,))  # raises the first query's own error
            raise
        head_rows, predicate_counts = np.array(
            [[headers[group][0] for group in group_of], list(map(len, clauses))], dtype=np.intp
        ).reshape(2, len(clauses))
        counts = head_rows + predicate_counts
        starts = (np.cumsum(counts) - counts) * width
        matrix = np.zeros((int(counts.sum()), width))
        flat = matrix.reshape(-1)
        group_of = np.array(group_of, dtype=np.intp)
        for group, (_, cells) in enumerate(headers):
            members = starts if len(headers) == 1 else starts[group_of == group]
            flat[np.add.outer(members, cells).reshape(-1)] = 1.0
        # A query's predicate rows follow its header rows: the p-th predicate
        # overall sits p rows past the header rows of its query and all before.
        rows = (np.arange(len(columns)) + np.repeat(np.cumsum(head_rows), predicate_counts)) * width
        flat[rows + (layout.predicate_column_offset + columns)] = 1.0
        flat[rows + (layout.operator_offset + operators)] = 1.0
        flat[rows + layout.value_offset] = values
        return matrix, counts

    def normalize_value(self, qualified_column: str, value: float) -> float:
        """Min-max normalize a predicate value using the column's value range."""
        low, high = self._value_ranges[qualified_column]
        if high == low:
            return 0.5
        return min(max((value - low) / (high - low), 0.0), 1.0)

    # ------------------------------------------------------------------ #
    # internals

    def _header_cells(self, tables, joins) -> tuple[int, list[int]]:
        """``(rows, flat offsets)`` of the one-hot cells of a query's table and
        join rows, within its own block of the stacked matrix."""
        layout, width = self.layout, self.layout.vector_size
        cells = [
            row * width + layout.table_offset + self._table_of(table.alias)
            for row, table in enumerate(tables)
        ]
        for row, join in enumerate(joins, start=len(tables)):
            cells.append(row * width + layout.join_left_offset + self._column_of(join.left))
            cells.append(row * width + layout.join_right_offset + self._column_of(join.right))
        return len(tables) + len(joins), cells

    def _predicate_cells(self, predicates) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """C-seg column, O-seg operator and V-seg value of every predicate.

        The value is :meth:`normalize_value`'s arithmetic on arrays: the same
        IEEE operations, its ``max(x, 0.0)`` as the select it is (a ``-0.0``
        stays ``-0.0``), then ``0.5`` for a constant column.
        """
        if not predicates:
            empty = np.empty(0, dtype=np.intp)
            return empty, empty, np.empty(0)
        aliases, names, operators, values = zip(*predicates)
        columns = list(map(self._column_by_pair.get, zip(aliases, names)))
        # Enum members are singletons: keying them by id skips their Python-level __hash__.
        operators = list(map(self._operator_by_id.get, map(id, operators)))
        if None in columns or None in operators:
            # In featurize's order: raises its error, or resolves what the keys above miss.
            columns, operators = zip(
                *(
                    (
                        self._column_of(predicate.qualified_column),
                        self._operator_index[predicate.operator],
                    )
                    for predicate in predicates
                )
            )
        columns = np.array(columns, dtype=np.intp)
        scaled = (np.array(values) - self._value_low[columns]) / self._value_span[columns]
        scaled = np.minimum(np.where(scaled < 0.0, 0.0, scaled), 1.0)
        scaled[self._value_constant[columns]] = 0.5
        return columns, np.array(operators, dtype=np.intp), scaled

    def _table_of(self, alias: str) -> int:
        if alias not in self._table_index:
            raise KeyError(f"alias {alias!r} is not part of the database schema")
        return self._table_index[alias]

    def _column_of(self, qualified_column: str) -> int:
        if qualified_column not in self._column_index:
            raise KeyError(f"column {qualified_column!r} is not part of the database schema")
        return self._column_index[qualified_column]
