"""Columnar in-memory table storage.

Each table stores its columns as 1-D NumPy arrays of equal length.  All values
are numeric (string columns are dictionary-encoded by the dataset generator or
the strings extension), which keeps predicate evaluation fully vectorized.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from repro.db.schema import ColumnType, TableSchema
from repro.sql.query import ComparisonOperator, Predicate


class Table:
    """An immutable-by-convention columnar table.

    Args:
        schema: the table's schema.
        columns: mapping from column name to a 1-D array-like of values.  All
            columns must have the same length and every schema column must be
            present.
    """

    def __init__(self, schema: TableSchema, columns: Mapping[str, Iterable[float]]) -> None:
        self.schema = schema
        self._columns: dict[str, np.ndarray] = {}
        length: int | None = None
        for column in schema.columns:
            if column.name not in columns:
                raise ValueError(f"missing data for column {schema.name}.{column.name}")
            dtype = np.float64 if column.type is ColumnType.FLOAT else np.int64
            values = np.asarray(columns[column.name], dtype=dtype)
            if values.ndim != 1:
                raise ValueError(f"column {column.name} must be one-dimensional")
            if length is None:
                length = len(values)
            elif len(values) != length:
                raise ValueError(
                    f"column {column.name} has length {len(values)}, expected {length}"
                )
            self._columns[column.name] = values
        extra = set(columns) - set(schema.column_names)
        if extra:
            raise ValueError(f"unknown columns for table {schema.name!r}: {sorted(extra)}")
        self._length = length or 0

    @property
    def name(self) -> str:
        """The table's name."""
        return self.schema.name

    @property
    def num_rows(self) -> int:
        """Number of rows in the table."""
        return self._length

    def __len__(self) -> int:
        return self._length

    def column(self, name: str) -> np.ndarray:
        """Return the column array for ``name`` (shared, do not mutate)."""
        if name not in self._columns:
            raise KeyError(f"table {self.name!r} has no column {name!r}")
        return self._columns[name]

    def column_values(self, name: str, row_ids: np.ndarray | None = None) -> np.ndarray:
        """Return column values, optionally restricted to ``row_ids``."""
        values = self.column(name)
        if row_ids is None:
            return values
        return values[row_ids]

    def evaluate_predicate(self, predicate: Predicate, row_ids: np.ndarray | None = None) -> np.ndarray:
        """Return a boolean mask of rows satisfying ``predicate``.

        Args:
            predicate: a column predicate on this table.
            row_ids: if given, evaluate only those rows (the mask is aligned
                with ``row_ids``); otherwise evaluate all rows.
        """
        values = self.column_values(predicate.column, row_ids)
        if predicate.operator is ComparisonOperator.LT:
            return values < predicate.value
        if predicate.operator is ComparisonOperator.GT:
            return values > predicate.value
        return values == predicate.value

    def predicate_mask(self, predicates: Iterable[Predicate]) -> np.ndarray | None:
        """Return the boolean mask of rows satisfying all ``predicates``.

        ``None`` stands for "every row" when there are no predicates, so
        callers can skip a mask that would select everything.
        """
        mask = None
        for predicate in predicates:
            matched = self.evaluate_predicate(predicate)
            if mask is None:
                mask = matched
            else:
                mask &= matched
        return mask

    def filter_rows(self, predicates: Iterable[Predicate]) -> np.ndarray:
        """Return the row ids satisfying all ``predicates`` (empty iterable → all rows)."""
        mask = self.predicate_mask(predicates)
        return np.arange(self._length) if mask is None else np.flatnonzero(mask)

    def value_range(self, name: str) -> tuple[float, float]:
        """Return ``(min, max)`` of a column (0, 0 for an empty table)."""
        values = self.column(name)
        if len(values) == 0:
            return 0.0, 0.0
        return float(values.min()), float(values.max())

    def sample_row_ids(self, sample_size: int, rng: np.random.Generator) -> np.ndarray:
        """Return up to ``sample_size`` distinct row ids, uniformly at random."""
        if sample_size >= self._length:
            return np.arange(self._length)
        return rng.choice(self._length, size=sample_size, replace=False)
