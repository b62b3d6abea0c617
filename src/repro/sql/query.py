"""Immutable value types describing the paper's conjunctive query class.

The paper (Section 2) restricts attention to ``SELECT * FROM ... WHERE ...``
queries whose WHERE clause is a conjunction of equi-join clauses
(``a.col = b.col``) and column predicates (``col <op> value`` with
``op in {<, =, >}``).  The classes below are deliberately small, hashable and
order-insensitive where SQL is order-insensitive (FROM and WHERE are sets),
so that queries can be used as dictionary keys, deduplicated, and compared
structurally.

The clause types are named tuples validated in ``__new__``, so building,
hashing, comparing and sorting them run in C; :class:`Query` stays a frozen
dataclass and never equals a tuple.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import lt
from typing import Iterable, NamedTuple


class ComparisonOperator(enum.Enum):
    """The predicate operators supported by the paper's query generator."""

    LT = "<"
    EQ = "="
    GT = ">"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

    def __lt__(self, other: "ComparisonOperator") -> bool:
        # Ordering lets predicates (and therefore queries) sort canonically.
        if not isinstance(other, ComparisonOperator):
            return NotImplemented
        return self.value < other.value

    @classmethod
    def from_symbol(cls, symbol: str) -> "ComparisonOperator":
        """Return the operator for ``symbol`` (one of ``<``, ``=``, ``>``)."""
        try:
            return _OPERATOR_BY_SYMBOL[symbol]
        except (KeyError, TypeError):
            raise ValueError(f"unsupported comparison operator: {symbol!r}") from None

    def evaluate(self, left: float, right: float) -> bool:
        """Evaluate ``left <op> right`` for scalar operands."""
        if self is ComparisonOperator.LT:
            return left < right
        if self is ComparisonOperator.GT:
            return left > right
        return left == right

    def flipped(self) -> "ComparisonOperator":
        """Return the operator with its operands swapped (``a < b`` == ``b > a``)."""
        if self is ComparisonOperator.LT:
            return ComparisonOperator.GT
        if self is ComparisonOperator.GT:
            return ComparisonOperator.LT
        return ComparisonOperator.EQ


_OPERATOR_BY_SYMBOL = {member.value: member for member in ComparisonOperator}

#: All operators, in the canonical order used by the featurizer's one-hot layout.
OPERATORS: tuple[ComparisonOperator, ...] = (
    ComparisonOperator.LT,
    ComparisonOperator.EQ,
    ComparisonOperator.GT,
)


class TableRef(NamedTuple("TableRef", [("name", str), ("alias", str)])):
    """A table referenced in a query's FROM clause.

    Attributes:
        name: the table's name in the database schema.
        alias: the alias used to reference the table in joins/predicates.
            The paper's workloads always use the table's conventional short
            alias (e.g. ``t`` for ``title``); when omitted the table name
            itself is the alias.

    Being a tuple, it equals the plain ``(name, alias)`` pair.
    """

    __slots__ = ()

    def __new__(cls, name: str, alias: str = "") -> "TableRef":
        if not name:
            raise ValueError("table name must be non-empty")
        return tuple.__new__(cls, (name, alias or name))

    def __str__(self) -> str:
        if self.alias == self.name:
            return self.name
        return f"{self.name} {self.alias}"


class JoinClause(NamedTuple("JoinClause", [("left_alias", str), ("left_column", str),
                                           ("right_alias", str), ("right_column", str)])):
    """An equi-join clause ``left_alias.left_column = right_alias.right_column``.

    Join clauses are stored in a canonical orientation (lexicographically
    smallest side first) so that structurally identical joins compare equal
    regardless of how they were written.
    """

    __slots__ = ()

    def __new__(
        cls, left_alias: str, left_column: str, right_alias: str, right_column: str
    ) -> "JoinClause":
        if not (left_alias and left_column and right_alias and right_column):
            raise ValueError("join clause components must be non-empty")
        if (left_alias, left_column) > (right_alias, right_column):
            return tuple.__new__(cls, (right_alias, right_column, left_alias, left_column))
        return tuple.__new__(cls, (left_alias, left_column, right_alias, right_column))

    @property
    def left(self) -> str:
        """Qualified left column, e.g. ``t.id``."""
        return f"{self.left_alias}.{self.left_column}"

    @property
    def right(self) -> str:
        """Qualified right column, e.g. ``mc.movie_id``."""
        return f"{self.right_alias}.{self.right_column}"

    def __str__(self) -> str:
        return f"{self.left} = {self.right}"


class Predicate(NamedTuple("Predicate", [("alias", str), ("column", str),
                                         ("operator", ComparisonOperator), ("value", float)])):
    """A column predicate ``alias.column <op> value``.

    Values are stored as floats; integer columns simply use integral floats.
    NaN is rejected (no row satisfies a comparison with it); ``±inf`` is a
    valid open bound.  String-valued predicates are supported through the
    extension in :mod:`repro.extensions.strings`, which hashes strings into
    the integer domain before constructing the predicate.
    """

    __slots__ = ()

    def __new__(
        cls, alias: str, column: str, operator: ComparisonOperator, value: float
    ) -> "Predicate":
        if not alias or not column:
            raise ValueError("predicate alias and column must be non-empty")
        if type(value) is not float:
            value = float(value)
        if value != value:
            raise ValueError(f"predicate value of {alias}.{column} must not be NaN")
        return tuple.__new__(cls, (alias, column, operator, value))

    @property
    def qualified_column(self) -> str:
        """Qualified column name, e.g. ``t.production_year``."""
        return f"{self.alias}.{self.column}"

    def __str__(self) -> str:
        value = self.value
        rendered = str(int(value)) if float(value).is_integer() else f"{value!r}"
        return f"{self.qualified_column} {self.operator.value} {rendered}"


@dataclass(frozen=True)
class Query:
    """A conjunctive ``SELECT * FROM ... WHERE ...`` query.

    The FROM clause (``tables``), join clauses (``joins``) and column
    predicates (``predicates``) are stored as sorted tuples so two queries
    with the same clauses in different orders are equal and hash identically.
    """

    tables: tuple[TableRef, ...]
    joins: tuple[JoinClause, ...] = ()
    predicates: tuple[Predicate, ...] = ()

    def __post_init__(self) -> None:
        tables = _canonical(self.tables)
        joins = _canonical(self.joins)
        predicates = _canonical(self.predicates)
        if not tables:
            raise ValueError("a query must reference at least one table")
        aliases = [table.alias for table in tables]
        known_aliases = set(aliases)
        if len(aliases) != len(known_aliases):
            raise ValueError(f"duplicate table aliases in FROM clause: {aliases}")
        if tables is not self.tables:
            object.__setattr__(self, "tables", tables)
        if joins is not self.joins:
            object.__setattr__(self, "joins", joins)
        if predicates is not self.predicates:
            object.__setattr__(self, "predicates", predicates)
        # Queries are used as dictionary keys on hot paths (featurization /
        # encoding caches, batch planning), where recomputing the recursive
        # clause-tuple hash on every lookup dominates; hash once at
        # construction -- all fields are immutable.
        object.__setattr__(self, "_hash", hash((tables, joins, predicates)))
        for join in joins:
            if join.left_alias not in known_aliases or join.right_alias not in known_aliases:
                raise ValueError(f"join {join} references an alias outside the FROM clause")
        for predicate in predicates:
            if predicate.alias not in known_aliases:
                raise ValueError(
                    f"predicate {predicate} references an alias outside the FROM clause"
                )

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def create(
        cls,
        tables: Iterable[TableRef],
        joins: Iterable[JoinClause] = (),
        predicates: Iterable[Predicate] = (),
    ) -> "Query":
        """Build a query from arbitrary iterables of clause objects."""
        return cls(tuple(tables), tuple(joins), tuple(predicates))

    @property
    def aliases(self) -> tuple[str, ...]:
        """Aliases of all referenced tables, in canonical (sorted) order."""
        return tuple(table.alias for table in self.tables)

    @property
    def table_names(self) -> tuple[str, ...]:
        """Names of all referenced tables, in canonical (sorted) order."""
        return tuple(table.name for table in self.tables)

    @property
    def num_joins(self) -> int:
        """Number of join clauses (the paper's "number of joins")."""
        return len(self.joins)

    @property
    def num_predicates(self) -> int:
        """Number of column predicates."""
        return len(self.predicates)

    def from_signature(self) -> tuple[tuple[str, str], ...]:
        """A hashable signature of the FROM clause: sorted (name, alias) pairs.

        Two queries can only be compared for containment (and used together
        in Cnt2Crd) when their FROM signatures are identical (Section 2).
        """
        return tuple((table.name, table.alias) for table in self.tables)

    def alias_to_table(self) -> dict[str, str]:
        """Mapping from alias to table name."""
        return {table.alias: table.name for table in self.tables}

    def predicates_for(self, alias: str) -> tuple[Predicate, ...]:
        """All column predicates on the table bound to ``alias``."""
        return tuple(pred for pred in self.predicates if pred.alias == alias)

    def without_predicates(self) -> "Query":
        """Return this query's "frame": same FROM and joins, empty WHERE predicates.

        This matches the paper's suggestion (Section 5.2) of seeding the
        queries pool with ``SELECT * FROM <tables> WHERE TRUE`` queries.
        """
        return Query(self.tables, self.joins, ())

    def __str__(self) -> str:
        from repro.sql.parser import format_query

        return format_query(self)


def _canonical(clauses: Iterable) -> tuple:
    """``clauses`` as a sorted, duplicate-free tuple.

    A strictly ascending tuple -- every tuple of fewer than two clauses, and
    the fields of a query that is already canonical -- is returned as it is.
    """
    if type(clauses) is not tuple:
        clauses = tuple(clauses)
    if len(clauses) < 2 or all(map(lt, clauses, clauses[1:])):
        return clauses
    return tuple(sorted(set(clauses)))
