"""Unit tests for the conjunctive query executor (toy database, hand-checked)."""

import numpy as np
import pytest

from repro.datasets.generator import GeneratorConfig, QueryGenerator
from repro.datasets.imdb import SyntheticIMDbConfig, build_synthetic_imdb
from repro.db.database import Database
from repro.db.executor import DisconnectedJoinGraphError, QueryExecutor
from repro.db.schema import Column, ColumnRole, ColumnType, DatabaseSchema, ForeignKey, TableSchema
from repro.sql.builder import QueryBuilder
from tests.conftest import TOY_SCHEMA, row_tuples


def _movies(*conditions):
    builder = QueryBuilder().table("movies", "m")
    for column, operator, value in conditions:
        builder = builder.where(column, operator, value)
    return builder.build()


def _join(*conditions):
    builder = (
        QueryBuilder().table("movies", "m").table("ratings", "r").join("m.id", "r.movie_id")
    )
    for column, operator, value in conditions:
        builder = builder.where(column, operator, value)
    return builder.build()


class TestSingleTable:
    def test_no_predicates_returns_all_rows(self, toy_executor):
        assert toy_executor.cardinality(_movies()) == 5

    def test_equality_predicate(self, toy_executor):
        assert toy_executor.cardinality(_movies(("m.kind", "=", 2))) == 2

    def test_range_predicates(self, toy_executor):
        assert toy_executor.cardinality(_movies(("m.year", ">", 1995))) == 3
        assert toy_executor.cardinality(_movies(("m.year", "<", 1995))) == 1

    def test_empty_result(self, toy_executor):
        assert toy_executor.cardinality(_movies(("m.year", ">", 2050))) == 0


class TestJoins:
    def test_plain_foreign_key_join(self, toy_executor):
        # Every rating joins exactly one movie: 7 result tuples.
        assert toy_executor.cardinality(_join()) == 7

    def test_join_with_predicate_on_dimension(self, toy_executor):
        # Movies with kind=2 are ids 2 and 3, contributing 1 + 3 ratings.
        assert toy_executor.cardinality(_join(("m.kind", "=", 2))) == 4

    def test_join_with_predicates_on_both_sides(self, toy_executor):
        # Movie 3 (year 2005) has scores 85, 90, 95; only two exceed 85.
        query = _join(("m.year", "=", 2005), ("r.score", ">", 85))
        assert toy_executor.cardinality(query) == 2

    def test_join_with_empty_side(self, toy_executor):
        assert toy_executor.cardinality(_join(("m.year", ">", 2050))) == 0

    def test_execute_returns_aligned_row_ids(self, toy_executor):
        result = toy_executor.execute(_join(("m.kind", "=", 1)))
        assert result.cardinality == 3
        assert set(result.aliases) == {"m", "r"}
        movie_index = result.aliases.index("m")
        assert set(result.row_ids[:, movie_index].tolist()) == {0, 1}

    def test_result_rows_are_distinct_tuples(self, toy_executor):
        result = toy_executor.execute(_join())
        assert len(row_tuples(result)) == result.cardinality

    def test_movie_without_ratings_is_dropped(self, toy_executor):
        # Movie 4 has no ratings; restricting to it gives an empty join.
        assert toy_executor.cardinality(_join(("m.id", "=", 4))) == 0


class TestCountFastPath:
    def test_fast_path_matches_execution(self, toy_executor):
        queries = [
            _movies(),
            _movies(("m.kind", "=", 1)),
            _join(),
            _join(("m.year", ">", 1994), ("r.score", "<", 90)),
        ]
        for query in queries:
            assert toy_executor._count_tree_join(query) == toy_executor.execute(query).cardinality

    def test_cardinality_is_memoized(self, toy_database):
        executor = QueryExecutor(toy_database)
        query = _join(("r.score", ">", 60))
        first = executor.cardinality(query)
        assert executor._cardinality_cache == {query: first}
        assert executor.cardinality(query) == first
        assert executor.cardinality(query, use_cache=False) == first


class TestJoinEdgeIndex:
    """The count-only path against full execution (ROADMAP item 1d, first slice)."""

    def test_generated_queries_match_execution_at_every_join_count(self):
        database = build_synthetic_imdb(SyntheticIMDbConfig(num_titles=40, seed=5))
        executor = QueryExecutor(database)
        generator = QueryGenerator(database, GeneratorConfig(max_joins=5, seed=7))
        widest_unfiltered = 0
        for num_joins in range(6):
            for query in generator.generate_queries(8, num_joins=num_joins):
                counted = executor.cardinality(query, use_cache=False)
                assert counted == executor.execute(query).cardinality, str(query)
                unfiltered = query.without_predicates()
                counted = executor.cardinality(unfiltered, use_cache=False)
                if counted <= 300_000:  # keep the materialised join small
                    assert counted == executor.execute(unfiltered).cardinality, str(unfiltered)
                    widest_unfiltered = max(widest_unfiltered, num_joins)
        assert widest_unfiltered >= 3  # a predicate-free many-way join was compared

    def test_child_whose_predicates_select_nothing(self, toy_executor):
        query = _join(("r.score", ">", 1000))
        assert toy_executor.cardinality(query, use_cache=False) == 0
        assert toy_executor.execute(query).cardinality == 0

    def test_parent_key_absent_from_child_and_dangling_child_key(self):
        # Movie 1 has no rating; rating 2 points at a movie that does not exist.
        database = Database.from_arrays(
            TOY_SCHEMA,
            {
                "movies": {"id": [0, 1, 2], "year": [1990, 1995, 2000], "kind": [1, 1, 2]},
                "ratings": {
                    "id": [0, 1, 2, 3],
                    "movie_id": [0, 0, 5, 2],
                    "score": [50, 60, 70, 80],
                },
            },
        )
        executor = QueryExecutor(database)
        for query in (_join(), _join(("m.year", "<", 1999)), _join(("r.score", ">", 55))):
            counted = executor.cardinality(query, use_cache=False)
            assert counted == executor.execute(query).cardinality
        assert executor.cardinality(_join(), use_cache=False) == 3

    def test_edge_index_belongs_to_one_executor_and_serves_every_query(self, toy_database):
        first = QueryExecutor(toy_database)
        assert first.cardinality(_join()) == 7
        edges = dict(first._join_edges)
        assert edges  # built on first use
        # Another query over the same edge reuses it, memo or no memo.
        filtered = _join(("r.score", ">", 60))
        assert first.cardinality(filtered, use_cache=False) == first.execute(filtered).cardinality
        assert all(first._join_edges[edge] is built for edge, built in edges.items())
        assert first.cardinality(_join()) == 7

        updated = Database.from_arrays(
            TOY_SCHEMA,
            {
                "movies": {"id": [0, 1], "year": [1990, 1995], "kind": [1, 1]},
                "ratings": {"id": [0, 1, 2], "movie_id": [1, 1, 1], "score": [50, 60, 70]},
            },
        )
        second = QueryExecutor(updated)
        assert second.cardinality(_join()) == 3
        assert second._join_edges is not first._join_edges
        for edge, (_, child_codes, parent_codes, leaf_counts) in second._join_edges.items():
            assert not np.shares_memory(child_codes, edges[edge][1])
            assert not np.shares_memory(parent_codes, edges[edge][2])
            assert not np.shares_memory(leaf_counts, edges[edge][3])
        assert first.cardinality(_join(), use_cache=False) == 7  # untouched by the update


#: ``movies`` with a second fact table, so one root carries two leaves.
STAR_SCHEMA = DatabaseSchema(
    tables=(
        *TOY_SCHEMA.tables,
        TableSchema(
            name="tags",
            alias="tg",
            columns=(
                Column("id", ColumnType.INTEGER, ColumnRole.PRIMARY_KEY),
                Column("movie_id", ColumnType.INTEGER, ColumnRole.FOREIGN_KEY),
                Column("weight", ColumnType.INTEGER),
            ),
        ),
    ),
    foreign_keys=(*TOY_SCHEMA.foreign_keys, ForeignKey("tags", "movie_id", "movies", "id")),
)


def _star(*conditions):
    builder = (
        QueryBuilder()
        .table("movies", "m")
        .table("ratings", "r")
        .table("tags", "tg")
        .join("m.id", "r.movie_id")
        .join("m.id", "tg.movie_id")
    )
    for column, operator, value in conditions:
        builder = builder.where(column, operator, value)
    return builder.build()


class TestMaskWeights:
    """Counting over whole-column weights, where a rejected row weighs 0."""

    @pytest.fixture(scope="class")
    def star_executor(self):
        # Rating 3 and tag 3 point at movies that do not exist; movie 1 has
        # neither ratings nor tags.
        database = Database.from_arrays(
            STAR_SCHEMA,
            {
                "movies": {"id": [0, 1, 2, 3], "year": [1990, 1995, 2000, 2005], "kind": [1] * 4},
                "ratings": {"id": [0, 1, 2, 3], "movie_id": [0, 0, 2, 7], "score": [50, 60, 70, 80]},
                "tags": {"id": [0, 1, 2, 3, 4], "movie_id": [0, 2, 2, 9, 3], "weight": [1, 2, 3, 4, 5]},
            },
        )
        return QueryExecutor(database)

    @pytest.mark.parametrize(
        "conditions, expected",
        [
            ((), 4),  # movie 0: 2 ratings x 1 tag, movie 2: 1 x 2
            ((("m.year", ">", 1990),), 2),  # root with predicates over predicate-free leaves
            ((("r.score", ">", 1000),), 0),  # a leaf selecting nothing
            ((("r.score", ">", 1000), ("m.year", "<", 2001)), 0),
            ((("tg.weight", ">", 1),), 2),  # one leaf filtered, the other read from leaf_counts
            ((("tg.weight", ">", 3), ("r.score", "<", 75)), 0),
            ((("m.kind", "=", 1), ("r.score", "<", 55), ("tg.weight", "<", 2)), 1),
        ],
    )
    def test_count_matches_execution(self, star_executor, conditions, expected):
        query = _star(*conditions)
        assert star_executor.cardinality(query, use_cache=False) == expected
        assert star_executor.execute(query).cardinality == expected

    def test_leaf_counts_count_dangling_keys_once_per_child_row(self, star_executor):
        star_executor.cardinality(_star(), use_cache=False)
        edge = ("movies", "id", "tags", "movie_id")
        slots, child_codes, parent_codes, leaf_counts = star_executor._join_edges[edge]
        # Keys 0, 2, 3, 9 plus the trailing no-match slot.
        assert slots == 5 and leaf_counts.dtype == np.float64
        assert leaf_counts.tolist() == [1.0, 2.0, 1.0, 1.0, 0.0]
        assert parent_codes.tolist() == [0, 4, 1, 2]  # movie 1 has no tag


class TestErrorHandling:
    def test_disconnected_join_graph_rejected(self, toy_executor):
        query = QueryBuilder().table("movies", "m").table("ratings", "r").build()
        with pytest.raises(DisconnectedJoinGraphError):
            toy_executor.execute(query)


class TestAgainstBruteForce:
    def test_random_queries_match_numpy_brute_force(self, toy_database):
        """Exhaustively verify joins + predicates against a nested-loop reference."""
        executor = QueryExecutor(toy_database)
        movies = toy_database.table("movies")
        ratings = toy_database.table("ratings")
        rng = np.random.default_rng(11)
        for _ in range(30):
            year_cut = int(rng.integers(1988, 2012))
            score_cut = int(rng.integers(45, 100))
            query = _join(("m.year", ">", year_cut), ("r.score", "<", score_cut))
            expected = 0
            for movie_id, year in zip(movies.column("id"), movies.column("year")):
                if year <= year_cut:
                    continue
                for rating_movie, score in zip(ratings.column("movie_id"), ratings.column("score")):
                    if rating_movie == movie_id and score < score_cut:
                        expected += 1
            assert executor.cardinality(query, use_cache=False) == expected
