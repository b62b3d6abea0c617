"""Schema objects: columns, tables, foreign keys and the database schema.

The schema distinguishes *key* columns (primary / foreign keys, used only in
join clauses) from *non-key* columns (the columns the query generator places
predicates on), mirroring the paper's query generator which "uniformly draws a
non-key column from the relevant table" for each predicate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator


class ColumnType(enum.Enum):
    """Storage type of a column.

    All columns are stored as NumPy numeric arrays; ``STRING`` columns hold
    integer codes produced by the dictionary encoding in
    :mod:`repro.extensions.strings`.
    """

    INTEGER = "integer"
    FLOAT = "float"
    STRING = "string"


class ColumnRole(enum.Enum):
    """Role of a column within the schema."""

    PRIMARY_KEY = "primary_key"
    FOREIGN_KEY = "foreign_key"
    ATTRIBUTE = "attribute"


@dataclass(frozen=True)
class Column:
    """A single column definition."""

    name: str
    type: ColumnType = ColumnType.INTEGER
    role: ColumnRole = ColumnRole.ATTRIBUTE

    @property
    def is_key(self) -> bool:
        """Whether the column is a primary or foreign key."""
        return self.role in (ColumnRole.PRIMARY_KEY, ColumnRole.FOREIGN_KEY)


@dataclass(frozen=True)
class ForeignKey:
    """A foreign-key relationship ``table.column -> referenced_table.referenced_column``."""

    table: str
    column: str
    referenced_table: str
    referenced_column: str


@dataclass(frozen=True)
class TableSchema:
    """Schema of a single table."""

    name: str
    alias: str
    columns: tuple[Column, ...]

    def __post_init__(self) -> None:
        names = [column.name for column in self.columns]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate column names in table {self.name!r}: {names}")

    def has_column(self, name: str) -> bool:
        """Whether the table defines a column called ``name``."""
        return any(column.name == name for column in self.columns)

    def column(self, name: str) -> Column:
        """Return the column definition for ``name``."""
        for column in self.columns:
            if column.name == name:
                return column
        raise KeyError(f"table {self.name!r} has no column {name!r}")

    @property
    def column_names(self) -> tuple[str, ...]:
        """Names of all columns, in definition order."""
        return tuple(column.name for column in self.columns)

    @cached_property
    def non_key_columns(self) -> tuple[Column, ...]:
        """Columns eligible for generated predicates (non-key attribute columns)."""
        return tuple(column for column in self.columns if not column.is_key)



@dataclass(frozen=True)
class DatabaseSchema:
    """Schema of the whole database: tables plus foreign-key join edges."""

    tables: tuple[TableSchema, ...]
    foreign_keys: tuple[ForeignKey, ...] = ()

    def __post_init__(self) -> None:
        names = [table.name for table in self.tables]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate table names: {names}")
        aliases = [table.alias for table in self.tables]
        if len(aliases) != len(set(aliases)):
            raise ValueError(f"duplicate table aliases: {aliases}")
        for fk in self.foreign_keys:
            source = self.table(fk.table)
            target = self.table(fk.referenced_table)
            if not source.has_column(fk.column):
                raise ValueError(f"foreign key column {fk.table}.{fk.column} does not exist")
            if not target.has_column(fk.referenced_column):
                raise ValueError(
                    f"referenced column {fk.referenced_table}.{fk.referenced_column} does not exist"
                )

    def has_table(self, name: str) -> bool:
        """Whether the schema defines a table called ``name``."""
        return any(table.name == name for table in self.tables)

    def table(self, name: str) -> TableSchema:
        """Return the table schema for ``name``."""
        for table in self.tables:
            if table.name == name:
                return table
        raise KeyError(f"unknown table {name!r}")

    def table_by_alias(self, alias: str) -> TableSchema:
        """Return the table schema whose conventional alias is ``alias``."""
        for table in self.tables:
            if table.alias == alias:
                return table
        raise KeyError(f"no table with alias {alias!r}")

    @property
    def table_names(self) -> tuple[str, ...]:
        """All table names, in definition order."""
        return tuple(table.name for table in self.tables)

    @property
    def aliases(self) -> tuple[str, ...]:
        """All conventional table aliases, in definition order."""
        return tuple(table.alias for table in self.tables)

    def qualified_columns(self) -> tuple[str, ...]:
        """All ``alias.column`` pairs in the database, in a stable order.

        This ordering defines the one-hot layout used by the featurizers
        (Section 3.2.1's ``#C`` columns).
        """
        qualified: list[str] = []
        for table in self.tables:
            for column in table.columns:
                qualified.append(f"{table.alias}.{column.name}")
        return tuple(qualified)

    def join_edges(self) -> tuple[tuple[str, str, str, str], ...]:
        """All joinable edges as ``(alias, column, alias, column)`` tuples.

        Derived from the foreign keys; the query generator picks connected
        subsets of these edges (Section 3.1.2: tables "that can join with each
        other in the database").
        """
        edges: list[tuple[str, str, str, str]] = []
        for fk in self.foreign_keys:
            source = self.table(fk.table)
            target = self.table(fk.referenced_table)
            edges.append((source.alias, fk.column, target.alias, fk.referenced_column))
        return tuple(edges)

    def iter_columns(self) -> Iterator[tuple[TableSchema, Column]]:
        """Iterate over ``(table, column)`` pairs in definition order."""
        for table in self.tables:
            for column in table.columns:
                yield table, column
