"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.core import (
    Cnt2CrdEstimator,
    Crd2CntEstimator,
    OracleContainmentEstimator,
    QueriesPool,
)
from repro.core.featurization import QueryFeaturizer
from repro.core.metrics import q_error, q_errors
from repro.datasets.generator import GeneratorConfig, QueryGenerator
from repro.db.executor import QueryExecutor
from repro.db.intersection import TrueCardinalityOracle
from repro.sql.containment import analytically_contained, analytically_equivalent
from repro.sql.intersection import intersect_queries
from repro.sql.parser import format_query, parse_query
from repro.sql.query import OPERATORS, ComparisonOperator, JoinClause, Predicate, Query, TableRef
from tests.autodiff import Tensor
from tests.conftest import build_toy_database, row_tuples

# --------------------------------------------------------------------------- #
# strategies

TOY_DATABASE = build_toy_database()
TOY_EXECUTOR = QueryExecutor(TOY_DATABASE)
TOY_ORACLE = TrueCardinalityOracle(TOY_DATABASE, executor=TOY_EXECUTOR)

_OPERATORS = st.sampled_from(list(ComparisonOperator))

_MOVIE_PREDICATES = st.builds(
    Predicate,
    alias=st.just("m"),
    column=st.sampled_from(["year", "kind"]),
    operator=_OPERATORS,
    value=st.one_of(
        st.integers(min_value=1985, max_value=2015),
        st.integers(min_value=1, max_value=3),
    ).map(float),
)

_RATING_PREDICATES = st.builds(
    Predicate,
    alias=st.just("r"),
    column=st.just("score"),
    operator=_OPERATORS,
    value=st.integers(min_value=40, max_value=100).map(float),
)


@st.composite
def toy_queries(draw) -> Query:
    """Random single-table or join queries over the toy database."""
    use_join = draw(st.booleans())
    if use_join:
        tables = [TableRef("movies", "m"), TableRef("ratings", "r")]
        joins = [JoinClause("m", "id", "r", "movie_id")]
        predicates = draw(st.lists(st.one_of(_MOVIE_PREDICATES, _RATING_PREDICATES), max_size=3))
    else:
        tables = [TableRef("movies", "m")]
        joins = []
        predicates = draw(st.lists(_MOVIE_PREDICATES, max_size=3))
    return Query.create(tables, joins, predicates)


def _predicates_over(query: Query, min_size: int = 0, max_size: int = 2):
    """Lists of predicates valid over ``query``'s FROM clause."""
    if query.num_joins:
        predicates = st.one_of(_MOVIE_PREDICATES, _RATING_PREDICATES)
    else:
        predicates = _MOVIE_PREDICATES
    return st.lists(predicates, min_size=min_size, max_size=max_size)


@st.composite
def toy_query_pairs(draw) -> tuple[Query, Query]:
    """Pairs of queries over the same FROM clause."""
    first = draw(toy_queries())
    extra = draw(_predicates_over(first))
    second = Query(first.tables, first.joins, tuple(extra))
    return first, second


@st.composite
def toy_query_triples(draw) -> tuple[Query, Query, Query]:
    """Triples over one FROM clause, often a chain of narrowings.

    Each query either adds predicates to the next one (so it is contained
    in it) or takes fresh ones, so containment chains are common without
    being the only case.
    """
    third = draw(toy_queries())
    chain = [third]
    for _ in range(2):
        wider = chain[0]
        extra = tuple(draw(_predicates_over(wider)))
        base = wider.predicates if draw(st.booleans()) else ()
        chain.insert(0, Query(wider.tables, wider.joins, base + extra))
    return chain[0], chain[1], chain[2]


_COMMON_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# --------------------------------------------------------------------------- #
# query model properties


class TestQueryModelProperties:
    @_COMMON_SETTINGS
    @given(query=toy_queries())
    def test_parser_round_trip(self, query: Query):
        assert parse_query(format_query(query)) == query

    @_COMMON_SETTINGS
    @given(query=toy_queries())
    def test_canonicalization_is_idempotent(self, query: Query):
        rebuilt = Query(query.tables, query.joins, query.predicates)
        assert rebuilt == query
        assert hash(rebuilt) == hash(query)

    @_COMMON_SETTINGS
    @given(pair=toy_query_pairs())
    def test_intersection_is_commutative_and_idempotent(self, pair):
        first, second = pair
        assert intersect_queries(first, second) == intersect_queries(second, first)
        assert intersect_queries(first, first) == first


# --------------------------------------------------------------------------- #
# executor and containment properties


class TestExecutionProperties:
    @_COMMON_SETTINGS
    @given(query=toy_queries())
    def test_count_fast_path_matches_materialized_execution(self, query: Query):
        assert TOY_EXECUTOR._count_tree_join(query) == TOY_EXECUTOR.execute(query).cardinality

    @_COMMON_SETTINGS
    @given(pair=toy_query_pairs())
    def test_intersection_cardinality_never_exceeds_operands(self, pair):
        first, second = pair
        intersection = intersect_queries(first, second)
        card = TOY_EXECUTOR.cardinality(intersection, use_cache=False)
        assert card <= TOY_EXECUTOR.cardinality(first, use_cache=False)
        assert card <= TOY_EXECUTOR.cardinality(second, use_cache=False)

    @_COMMON_SETTINGS
    @given(pair=toy_query_pairs())
    def test_intersection_executes_to_the_operands_common_rows(self, pair):
        # Differential: Q1 ∩ Q2 as one query selects exactly the row-id
        # tuples that executing Q1 and Q2 separately have in common.
        first, second = pair
        both = TOY_EXECUTOR.execute(intersect_queries(first, second))
        left, right = TOY_EXECUTOR.execute(first), TOY_EXECUTOR.execute(second)
        assert both.aliases == left.aliases == right.aliases
        assert row_tuples(both) == row_tuples(left) & row_tuples(right)
        assert both.cardinality == len(row_tuples(both))

    @_COMMON_SETTINGS
    @given(pair=toy_query_pairs())
    def test_containment_rate_is_a_probability(self, pair):
        first, second = pair
        rate = TOY_ORACLE.containment_rate(first, second)
        assert 0.0 <= rate <= 1.0

    @_COMMON_SETTINGS
    @given(pair=toy_query_pairs())
    def test_analytic_containment_implies_rate_one(self, pair):
        first, second = pair
        if analytically_contained(first, second) and TOY_ORACLE.cardinality(first) > 0:
            assert TOY_ORACLE.containment_rate(first, second) == 1.0

    @_COMMON_SETTINGS
    @given(query=toy_queries())
    def test_adding_predicates_never_increases_cardinality(self, query: Query):
        extra = Predicate("m", "year", ComparisonOperator.GT, 2000.0)
        restricted = Query(query.tables, query.joins, (*query.predicates, extra))
        assert TOY_EXECUTOR.cardinality(restricted, use_cache=False) <= TOY_EXECUTOR.cardinality(
            query, use_cache=False
        )


class TestContainmentProperties:
    @_COMMON_SETTINGS
    @given(pair=st.one_of(toy_query_pairs(), st.tuples(toy_queries(), toy_queries())))
    def test_equivalence_is_containment_both_ways(self, pair):
        first, second = pair
        assert analytically_equivalent(first, second) == (
            analytically_contained(first, second) and analytically_contained(second, first)
        )

    @_COMMON_SETTINGS
    @given(query=toy_queries())
    def test_containment_is_reflexive(self, query: Query):
        assert analytically_contained(query, query)

    @_COMMON_SETTINGS
    @given(triple=toy_query_triples())
    def test_containment_is_transitive(self, triple):
        first, second, third = triple
        assume(analytically_contained(first, second))
        assume(analytically_contained(second, third))
        assert analytically_contained(first, third)

    @_COMMON_SETTINGS
    @given(query=toy_queries(), data=st.data())
    def test_adding_a_predicate_gives_a_contained_query(self, query: Query, data):
        (extra,) = data.draw(_predicates_over(query, min_size=1, max_size=1))
        if query.predicates and data.draw(st.booleans()):
            # Re-bound a column the query already bounds, the case where the
            # interval fold has to keep the tighter of two bounds.
            bounded = data.draw(st.sampled_from(query.predicates))
            shift = data.draw(st.integers(min_value=-5, max_value=5))
            extra = Predicate(bounded.alias, bounded.column, bounded.operator, bounded.value + shift)
        restricted = Query(query.tables, query.joins, (*query.predicates, extra))
        assert analytically_contained(restricted, query)


# --------------------------------------------------------------------------- #
# bulk featurization

TOY_FEATURIZERS = {
    "toy": QueryFeaturizer(TOY_DATABASE),
    # Every movie of one kind: m.kind is a constant column, normalized to 0.5.
    "constant kind": QueryFeaturizer(build_toy_database(kinds=(2, 2, 2, 2, 2))),
}

#: Movie predicates at any value: inside and outside the column range
#: (clamped to 0 or 1), ``-0.0``, ``±inf``.
_ANY_VALUE_PREDICATES = st.builds(
    Predicate,
    alias=st.just("m"),
    column=st.sampled_from(["year", "kind"]),
    operator=_OPERATORS,
    value=st.one_of(st.floats(allow_nan=False), st.sampled_from([-0.0, 0.0, 2.0, 1e9])),
)

#: A query naming an alias, and one naming a column, the schema lacks.
_UNKNOWN_ALIAS = Query.create([TableRef("movies", "x")])
_UNKNOWN_COLUMN = Query.create(
    [TableRef("movies", "m")], [], [Predicate("m", "rating", ComparisonOperator.EQ, 1.0)]
)


@st.composite
def bulk_queries(draw) -> Query:
    """A toy query with up to two more movie predicates at any value."""
    query = draw(toy_queries())
    extra = tuple(draw(st.lists(_ANY_VALUE_PREDICATES, max_size=2)))
    return Query(query.tables, query.joins, query.predicates + extra)


def written_out(featurizer: QueryFeaturizer, query: Query) -> np.ndarray:
    """The Table 1 vectors of ``query``, one row and one scalar write at a time."""
    layout = featurizer.layout
    rows = []
    for table in query.tables:
        rows.append(np.zeros(layout.vector_size))
        rows[-1][layout.table_offset + featurizer._table_of(table.alias)] = 1.0
    for join in query.joins:
        rows.append(np.zeros(layout.vector_size))
        rows[-1][layout.join_left_offset + featurizer._column_of(join.left)] = 1.0
        rows[-1][layout.join_right_offset + featurizer._column_of(join.right)] = 1.0
    for predicate in query.predicates:
        rows.append(np.zeros(layout.vector_size))
        column = predicate.qualified_column
        rows[-1][layout.predicate_column_offset + featurizer._column_of(column)] = 1.0
        rows[-1][layout.operator_offset + OPERATORS.index(predicate.operator)] = 1.0
        rows[-1][layout.value_offset] = featurizer.normalize_value(column, predicate.value)
    return np.stack(rows)


def assert_bulk_is_featurize(featurizer: QueryFeaturizer, queries: list[Query]) -> None:
    """``featurize_many`` is ``featurize`` concatenated, bit for bit, and both
    are the written-out vectors."""
    rows, counts = featurizer.featurize_many(queries)
    sets = [featurizer.featurize(query) for query in queries]
    sizes = [len(query.tables) + len(query.joins) + len(query.predicates) for query in queries]
    assert counts.tolist() == sizes
    assert counts.tolist() == [len(vectors) for vectors in sets]
    assert rows.shape == (sum(counts), featurizer.vector_size)
    assert rows.tobytes() == b"".join(vectors.tobytes() for vectors in sets)
    assert rows.tobytes() == b"".join(written_out(featurizer, query).tobytes() for query in queries)


class TestBulkFeaturizationProperties:
    @_COMMON_SETTINGS
    @given(
        queries=st.lists(bulk_queries(), max_size=8),
        name=st.sampled_from(sorted(TOY_FEATURIZERS)),
    )
    def test_featurize_many_is_featurize_concatenated(self, queries, name):
        assert_bulk_is_featurize(TOY_FEATURIZERS[name], queries)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16), data=st.data())
    def test_five_join_and_single_table_queries(self, imdb_small, imdb_featurizer, seed, data):
        drawn = [
            query
            for joins in (5, 0)
            for query in QueryGenerator(
                imdb_small, GeneratorConfig(min_joins=joins, max_joins=joins, seed=seed)
            ).generate_queries(6)
        ]
        assert {query.num_joins for query in drawn} == {0, 5}
        queries = data.draw(st.permutations(drawn))
        assert_bulk_is_featurize(imdb_featurizer, queries)

    @_COMMON_SETTINGS
    @example(queries=[], bad=[_UNKNOWN_COLUMN, _UNKNOWN_ALIAS], position=0)
    @given(
        queries=st.lists(bulk_queries(), max_size=4),
        bad=st.lists(st.sampled_from([_UNKNOWN_ALIAS, _UNKNOWN_COLUMN]), min_size=1, max_size=2),
        position=st.integers(min_value=0, max_value=4),
    )
    def test_unknown_alias_or_column_raises_featurizes_error(self, queries, bad, position):
        # The bulk pass resolves every header before any predicate; the error
        # must still be the first failing query's own (the pinned example: a
        # bad column before a bad alias).
        featurizer = TOY_FEATURIZERS["toy"]
        mixed = queries[:position] + bad[:1] + queries[position:] + bad[1:]
        with pytest.raises(KeyError) as alone:
            featurizer.featurize(bad[0])
        with pytest.raises(KeyError) as bulk:
            featurizer.featurize_many(mixed)
        assert str(bulk.value) == str(alone.value)
        assert "is not part of the database schema" in str(alone.value)


# --------------------------------------------------------------------------- #
# the paper's transformations over exact rates


def oracle_cnt2crd(query: Query, others: list[Query]) -> Cnt2CrdEstimator:
    """Cnt2Crd over exact containment rates, pooling ``query``'s frame and ``others``.

    Every pool member is labelled by the oracle; with the frame present, a
    non-empty query always has an entry whose ``Qnew ⊂% Qold`` rate is 1.
    """
    pool = QueriesPool()
    for member in (query.without_predicates(), *others):
        pool.add(member, TOY_ORACLE.cardinality(member))
    return Cnt2CrdEstimator(OracleContainmentEstimator(TOY_DATABASE, oracle=TOY_ORACLE), pool)


@st.composite
def queries_with_pool_members(draw) -> tuple[Query, list[Query]]:
    """A toy query and up to three further pool queries over its FROM clause."""
    query = draw(toy_queries())
    others = [
        Query(query.tables, query.joins, tuple(draw(_predicates_over(query))))
        for _ in range(draw(st.integers(min_value=0, max_value=3)))
    ]
    return query, others


class TestTransformationProperties:
    @_COMMON_SETTINGS
    @given(drawn=queries_with_pool_members())
    def test_cnt2crd_over_exact_rates_is_the_true_cardinality(self, drawn):
        # Each surviving entry estimates (Qold ⊂% Qnew) / (Qnew ⊂% Qold) ·
        # |Qold| = |Qnew| exactly; an empty Qnew has rate 0 against every
        # entry, so all are filtered and the estimate collapses to 0.
        query, others = drawn
        truth = TOY_EXECUTOR.cardinality(query, use_cache=False)
        estimate = oracle_cnt2crd(query, others).estimate_cardinality(query)
        if truth == 0:
            assert estimate == 0.0
        else:
            assert estimate == pytest.approx(truth, rel=1e-9)

    @_COMMON_SETTINGS
    @given(pair=toy_query_pairs(), data=st.data())
    def test_crd2cnt_over_exact_cnt2crd_is_the_true_containment_rate(self, pair, data):
        # Crd2Cnt(M) rates Q1 ⊂% Q2 as M(Q1 ∩ Q2) / M(Q1); Q1 ∩ Q2 shares
        # Q1's FROM clause, so one frame serves both estimates.
        first, second = pair
        others = [
            Query(first.tables, first.joins, tuple(data.draw(_predicates_over(first))))
            for _ in range(data.draw(st.integers(min_value=0, max_value=2)))
        ]
        estimator = Crd2CntEstimator(oracle_cnt2crd(first, others))
        expected = TOY_ORACLE.containment_rate(first, second)
        assert estimator.estimate_containment(first, second) == pytest.approx(
            expected, rel=1e-9, abs=0.0
        )


# --------------------------------------------------------------------------- #
# metric properties


class TestMetricProperties:
    @_COMMON_SETTINGS
    @given(
        estimate=st.floats(min_value=1e-3, max_value=1e9),
        truth=st.floats(min_value=1e-3, max_value=1e9),
    )
    def test_q_error_at_least_one_and_symmetric(self, estimate, truth):
        error = q_error(estimate, truth)
        assert error >= 1.0
        assert error == pytest.approx(q_error(truth, estimate), rel=1e-9)

    @_COMMON_SETTINGS
    @given(
        values=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=30),
        scale=st.floats(min_value=1.001, max_value=1000.0),
    )
    def test_scaling_estimates_by_c_gives_q_error_at_most_c(self, values, scale):
        estimates = [value * scale for value in values]
        errors = q_errors(estimates, values, epsilon=1.0)
        assert np.all(errors <= scale + 1e-9)


# --------------------------------------------------------------------------- #
# serving identity properties


@functools.lru_cache(maxsize=1)
def serving_identity_stack():
    """One shared deployment over the toy database, plus its reference.

    Returns ``(client, naive estimator)``: the
    :class:`repro.serving.ServingClient` path and the naive per-pair core
    :class:`repro.core.Cnt2CrdEstimator` (no caches, no index, one request at
    a time), wired from the same model, featurizer, pool, and fallback.  The
    pool carries the frame queries of both toy FROM shapes, so every
    generated query has a match.
    """
    from repro.baselines import PostgresCardinalityEstimator
    from repro.core import Cnt2CrdEstimator, CRNConfig, CRNEstimator, CRNModel, QueriesPool
    from repro.core.featurization import QueryFeaturizer
    from repro.serving import ServingClient, ServingConfig

    featurizer = QueryFeaturizer(TOY_DATABASE)
    model = CRNModel(featurizer.vector_size, CRNConfig(hidden_size=8, seed=7))
    single = [TableRef("movies", "m")]
    joined = [TableRef("movies", "m"), TableRef("ratings", "r")]
    join = [JoinClause("m", "id", "r", "movie_id")]
    pool_queries = [
        Query.create(single, [], []),  # the frame queries guarantee a match
        Query.create(joined, join, []),
        Query.create(single, [], [Predicate("m", "year", ComparisonOperator.GT, 1995.0)]),
        Query.create(single, [], [Predicate("m", "kind", ComparisonOperator.EQ, 1.0)]),
        Query.create(
            joined, join, [Predicate("r", "score", ComparisonOperator.GT, 70.0)]
        ),
        Query.create(
            joined, join, [Predicate("m", "year", ComparisonOperator.LT, 2005.0)]
        ),
    ]
    pool = QueriesPool()
    for query in pool_queries:
        pool.add(query, int(TOY_ORACLE.cardinality(query)))
    fallback = PostgresCardinalityEstimator(TOY_DATABASE)
    client = ServingClient.start(
        ServingConfig(
            model=model, featurizer=featurizer, pool=pool, fallback_estimator=fallback
        )
    )
    naive = Cnt2CrdEstimator(CRNEstimator(model, featurizer), pool, fallback=fallback)
    return client, naive


class TestServingIdentityProperties:
    """The ServingClient path is bit-for-bit the naive per-pair estimator."""

    @_COMMON_SETTINGS
    @given(queries=st.lists(toy_queries(), min_size=1, max_size=6))
    def test_client_paths_identical_to_naive_estimator(self, queries):
        client, naive = serving_identity_stack()
        legacy_batched = [naive.estimate_cardinality(query) for query in queries]
        # The client: estimate_many (planned batch), estimate (coalesced),
        # and estimate_future (explicit dispatcher-backed futures).
        batched = [item.estimate for item in client.estimate_many(queries)]
        singles = [client.estimate(query).estimate for query in queries]
        futures = [client.estimate_future(query) for query in queries]
        dispatched = [f.result(timeout=30).estimate for f in futures]
        assert batched == legacy_batched
        assert singles == legacy_batched
        assert dispatched == legacy_batched

    @_COMMON_SETTINGS
    @given(queries=st.lists(toy_queries(), min_size=1, max_size=4))
    def test_provenance_is_stamped_on_every_result(self, queries):
        client, _ = serving_identity_stack()
        for item in client.estimate_many(queries):
            assert item.resolution in {
                "indexed_slab",
                "pair_batch",
                "estimator_fallback",
                "registry_fallback",
                "direct",
            }
            # Both registry entries are first-generation; whichever answered
            # must say so.
            assert item.model_generation == 1
            assert item.estimator_name in {"crn", "fallback"}
            assert item.used_fallback == (item.estimator_name == "fallback")


# --------------------------------------------------------------------------- #
# autodiff properties


class TestAutodiffProperties:
    @_COMMON_SETTINGS
    @given(
        data=st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=2, max_size=20
        )
    )
    def test_sum_gradient_is_all_ones(self, data):
        tensor = Tensor(np.asarray(data), requires_grad=True)
        tensor.sum().backward()
        np.testing.assert_allclose(tensor.grad, np.ones(len(data)))

    @_COMMON_SETTINGS
    @given(
        data=st.lists(
            st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=2, max_size=16
        )
    )
    def test_sigmoid_output_bounded(self, data):
        values = Tensor(np.asarray(data)).sigmoid().numpy()
        assert np.all((values > 0.0) & (values < 1.0))

    @_COMMON_SETTINGS
    @given(
        data=st.lists(
            st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=2, max_size=16
        ),
        factor=st.floats(min_value=-3, max_value=3, allow_nan=False),
    )
    def test_linear_gradient_matches_factor(self, data, factor):
        tensor = Tensor(np.asarray(data), requires_grad=True)
        (tensor * factor).sum().backward()
        np.testing.assert_allclose(tensor.grad, np.full(len(data), factor), atol=1e-12)
