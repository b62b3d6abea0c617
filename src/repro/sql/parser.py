"""Parsing and formatting for the paper's conjunctive SQL subset.

The grammar covered (case-insensitive keywords)::

    SELECT * FROM table [alias] (, table [alias])*
    [WHERE condition (AND condition)*]

    condition := alias.column (= | < | >) alias.column     -- equi-join
               | alias.column (= | < | >) numeric-literal  -- column predicate

``format_query`` is the inverse: it renders a :class:`Query` back into SQL in
a canonical order, so ``parse_query(format_query(q)) == q`` for every query in
the supported class.
"""

from __future__ import annotations

import re

from repro.sql.query import ComparisonOperator, JoinClause, Predicate, Query, TableRef

_STATEMENT_RE = re.compile(
    r"^select\s+\*\s+from\s+(?P<from>.+?)(?:\s+where\s+(?P<where>.+))?$",
    re.IGNORECASE | re.DOTALL,
)

_AND_RE = re.compile(r"\s+and\s+", re.IGNORECASE)

_NAME = r"[A-Za-z_]\w*"

#: One WHERE condition -- or a literal ``TRUE`` -- together with the ``AND``
#: (or the end of the clause) that follows it, so the clause is scanned left
#: to right without being split first.  No condition of the grammar contains
#: whitespace-delimited ``and``, so the scan stops at exactly the separators
#: ``_AND_RE.split`` would find.  Groups: left alias, left column, operator,
#: then either right alias and right column (a join) or the literal.
_CONDITION_RE = re.compile(
    rf"(?:({_NAME})\.({_NAME})\s*(<|=|>)\s*"
    rf"(?:({_NAME})\.({_NAME})|([-+]?\d+(?:\.\d+)?))|(?i:true))"
    r"(?:(?i:\s+and\s+)|\Z)"
)


class SQLParseError(ValueError):
    """Raised when a SQL string is outside the supported conjunctive subset."""


def parse_query(sql: str) -> Query:
    """Parse a conjunctive ``SELECT * FROM ... WHERE ...`` statement.

    Args:
        sql: the SQL text.  Keywords are case-insensitive and a trailing
            semicolon is allowed.

    Returns:
        The parsed, canonicalized :class:`Query`.

    Raises:
        SQLParseError: if the statement is not in the supported subset.
    """
    match = _STATEMENT_RE.match(sql.strip().rstrip(";").strip())
    if match is None:
        raise SQLParseError(f"not a supported SELECT * query: {sql!r}")
    from_clause, where = match.groups()
    tables = _parse_from_clause(from_clause)
    joins, predicates = _parse_where_clause(where.strip()) if where is not None else ((), ())
    try:
        return Query(tables, joins, predicates)
    except ValueError as exc:
        raise SQLParseError(str(exc)) from exc


def _parse_from_clause(from_clause: str) -> tuple[TableRef, ...]:
    tables: list[TableRef] = []
    for item in from_clause.split(","):
        parts = item.split()
        if len(parts) == 1:
            tables.append(TableRef(parts[0]))
        elif len(parts) == 2:
            tables.append(TableRef(parts[0], parts[1]))
        elif len(parts) == 3 and parts[1].lower() == "as":
            tables.append(TableRef(parts[0], parts[2]))
        else:
            raise SQLParseError(f"unsupported FROM item: {item.strip()!r}")
    return tuple(tables)


def _parse_where_clause(where: str) -> tuple[tuple[JoinClause, ...], tuple[Predicate, ...]]:
    joins: list[JoinClause] = []
    predicates: list[Predicate] = []
    position = 0
    while position < len(where):
        match = _CONDITION_RE.match(where, position)
        if match is None:
            raise SQLParseError(
                f"unsupported WHERE condition: {_condition_at(where, position)!r}"
            )
        left_alias, left_column, symbol, right_alias, right_column, literal = match.groups()
        if right_alias is not None:
            if symbol != "=":
                raise SQLParseError(
                    f"only equi-joins are supported, got: {_condition_at(where, position)!r}"
                )
            joins.append(JoinClause(left_alias, left_column, right_alias, right_column))
        elif literal is not None:
            operator = ComparisonOperator.from_symbol(symbol)
            predicates.append(Predicate(left_alias, left_column, operator, float(literal)))
        # else: a literal TRUE, which constrains nothing
        position = match.end()
    return tuple(joins), tuple(predicates)


def _condition_at(where: str, position: int) -> str:
    """The ``AND``-delimited condition starting at ``position``, for error messages."""
    return _AND_RE.split(where[position:], maxsplit=1)[0].strip()


def format_query(query: Query) -> str:
    """Render ``query`` back into canonical SQL text."""
    from_clause = ", ".join(str(table) for table in query.tables)
    conditions = [str(join) for join in query.joins] + [str(pred) for pred in query.predicates]
    if not conditions:
        return f"SELECT * FROM {from_clause}"
    return f"SELECT * FROM {from_clause} WHERE {' AND '.join(conditions)}"
