"""Unit tests for the EXCEPT / UNION / OR extension (Section 9 identities).

The identities are verified against exact set computation on the toy database:
compound estimates built from the *oracle* cardinality estimator must match
the true cardinality of the corresponding row sets.
"""

import pytest

from repro.core.oracle import OracleCardinalityEstimator
from repro.db.executor import QueryExecutor
from repro.extensions.set_queries import (
    CompoundCardinalityEstimator,
    CompoundContainmentEstimator,
    ExceptQuery,
    OrQuery,
    UnionQuery,
    leading_query,
)
from repro.sql.builder import QueryBuilder
from tests.conftest import row_tuples


def _movies(*conditions):
    builder = QueryBuilder().table("movies", "m")
    for column, operator, value in conditions:
        builder = builder.where(column, operator, value)
    return builder.build()


@pytest.fixture(scope="module")
def compound_estimator(request):
    toy_database = request.getfixturevalue("toy_database")
    return CompoundCardinalityEstimator(OracleCardinalityEstimator(toy_database))


@pytest.fixture(scope="module")
def row_sets(request):
    """Exact row-id sets for the operand queries, for set-semantics checks."""
    toy_database = request.getfixturevalue("toy_database")
    executor = QueryExecutor(toy_database)

    def rows(query):
        return row_tuples(executor.execute(query))

    return rows


OLD = _movies(("m.year", "<", 2001))       # movies 0, 1, 2
NEW = _movies(("m.year", ">", 1994))       # movies 1, 2, 3, 4
KIND1 = _movies(("m.kind", "=", 1))        # movies 0, 1


class TestConstruction:
    def test_operands_must_share_from_clause(self):
        join = (
            QueryBuilder().table("movies", "m").table("ratings", "r").join("m.id", "r.movie_id").build()
        )
        with pytest.raises(ValueError):
            UnionQuery(OLD, join)
        with pytest.raises(ValueError):
            ExceptQuery(join, OLD)
        with pytest.raises(ValueError):
            OrQuery(join, OLD)

    def test_leading_query_unwraps_nesting(self):
        compound = UnionQuery(ExceptQuery(OLD, NEW), KIND1)
        assert leading_query(compound) == OLD


class TestCardinalityIdentities:
    def test_plain_query_passthrough(self, compound_estimator, toy_executor):
        assert compound_estimator.estimate_cardinality(OLD) == toy_executor.cardinality(OLD)

    def test_union_is_bag_union(self, compound_estimator, row_sets):
        estimate = compound_estimator.estimate_cardinality(UnionQuery(OLD, NEW))
        assert estimate == len(row_sets(OLD)) + len(row_sets(NEW))

    def test_except_matches_set_difference(self, compound_estimator, row_sets):
        estimate = compound_estimator.estimate_cardinality(ExceptQuery(OLD, NEW))
        assert estimate == len(row_sets(OLD) - row_sets(NEW))

    def test_or_matches_set_union(self, compound_estimator, row_sets):
        estimate = compound_estimator.estimate_cardinality(OrQuery(OLD, NEW))
        assert estimate == len(row_sets(OLD) | row_sets(NEW))

    def test_or_with_disjoint_operands(self, compound_estimator, row_sets):
        old_strict = _movies(("m.year", "<", 1994))
        new_strict = _movies(("m.year", ">", 2006))
        estimate = compound_estimator.estimate_cardinality(OrQuery(old_strict, new_strict))
        assert estimate == len(row_sets(old_strict) | row_sets(new_strict))

    def test_nested_compound(self, compound_estimator, row_sets):
        compound = ExceptQuery(OrQuery(OLD, NEW), KIND1)
        estimate = compound_estimator.estimate_cardinality(compound)
        expected = len((row_sets(OLD) | row_sets(NEW)) - row_sets(KIND1))
        assert estimate == expected

    def test_never_negative(self, compound_estimator):
        estimate = compound_estimator.estimate_cardinality(ExceptQuery(KIND1, _movies()))
        assert estimate == 0.0

    def test_unsupported_type_rejected(self, compound_estimator):
        with pytest.raises(TypeError):
            compound_estimator.estimate_cardinality(42)  # type: ignore[arg-type]


class TestContainmentIdentities:
    def test_compound_containment_matches_set_semantics(self, toy_database, row_sets):
        estimator = CompoundContainmentEstimator(OracleCardinalityEstimator(toy_database))
        compound = OrQuery(OLD, KIND1)
        rate = estimator.estimate_containment(compound, NEW)
        expected = len((row_sets(OLD) | row_sets(KIND1)) & row_sets(NEW)) / len(
            row_sets(OLD) | row_sets(KIND1)
        )
        assert rate == pytest.approx(expected)

    def test_empty_compound_has_zero_rate(self, toy_database):
        estimator = CompoundContainmentEstimator(OracleCardinalityEstimator(toy_database))
        empty = _movies(("m.year", ">", 2050))
        assert estimator.estimate_containment(ExceptQuery(empty, OLD), NEW) == 0.0

    def test_rate_stays_in_unit_interval(self, toy_database):
        estimator = CompoundContainmentEstimator(OracleCardinalityEstimator(toy_database))
        rate = estimator.estimate_containment(UnionQuery(OLD, NEW), KIND1)
        assert 0.0 <= rate <= 1.0
