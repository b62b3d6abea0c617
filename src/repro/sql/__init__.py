"""Conjunctive query model for the containment-rate reproduction.

This package models the query class the paper works with: ``SELECT * FROM
<tables> WHERE <equi-joins> AND <column predicates>`` conjunctive queries.
It provides:

* :mod:`repro.sql.query` -- immutable value types (:class:`Query`, and the
  named-tuple clauses :class:`TableRef`, :class:`JoinClause`, :class:`Predicate`).
* :mod:`repro.sql.builder` -- a fluent :class:`QueryBuilder`.
* :mod:`repro.sql.parser` -- a small SQL parser/serializer for the subset.
* :mod:`repro.sql.intersection` -- the ``Q1 ∩ Q2`` intersection query used by
  the Crd2Cnt transformation.
* :mod:`repro.sql.containment` -- analytic (database-independent) containment
  checks on conjunctive queries.
* :mod:`repro.sql.validation` -- schema-aware query validation.
"""

from repro.sql.builder import QueryBuilder
from repro.sql.containment import analytically_contained, analytically_equivalent
from repro.sql.intersection import intersect_queries, same_from_clause
from repro.sql.parser import format_query, parse_query
from repro.sql.query import (
    ComparisonOperator,
    JoinClause,
    Predicate,
    Query,
    TableRef,
)
from repro.sql.validation import QueryValidationError, validate_query

__all__ = [
    "ComparisonOperator",
    "JoinClause",
    "Predicate",
    "Query",
    "QueryBuilder",
    "QueryValidationError",
    "TableRef",
    "analytically_contained",
    "analytically_equivalent",
    "format_query",
    "intersect_queries",
    "parse_query",
    "same_from_clause",
    "validate_query",
]
