"""Unit tests for the CRN featurizer (Table 1 vector layout)."""

import numpy as np
import pytest

from repro.core.featurization import QueryFeaturizer
from repro.sql.builder import QueryBuilder
from repro.sql.query import OPERATORS


@pytest.fixture()
def featurizer(imdb_small):
    return QueryFeaturizer(imdb_small)


def _example_query():
    return (
        QueryBuilder()
        .table("title", "t")
        .table("movie_companies", "mc")
        .join("t.id", "mc.movie_id")
        .where("t.production_year", ">", 2000)
        .where("mc.company_type_id", "=", 1)
        .build()
    )


class TestLayout:
    def test_vector_size_formula(self, featurizer, imdb_small):
        num_tables = len(imdb_small.schema.tables)
        num_columns = len(imdb_small.schema.qualified_columns())
        expected = num_tables + 3 * num_columns + len(OPERATORS) + 1
        assert featurizer.vector_size == expected
        assert featurizer.layout.vector_size == expected

    def test_segment_offsets_are_disjoint_and_ordered(self, featurizer):
        layout = featurizer.layout
        offsets = [
            layout.table_offset,
            layout.join_left_offset,
            layout.join_right_offset,
            layout.predicate_column_offset,
            layout.operator_offset,
            layout.value_offset,
        ]
        assert offsets == sorted(offsets)
        assert layout.value_offset == layout.vector_size - 1


class TestFeaturize:
    def test_one_vector_per_set_element(self, featurizer):
        query = _example_query()
        matrix = featurizer.featurize(query)
        expected_rows = len(query.tables) + len(query.joins) + len(query.predicates)
        assert matrix.shape == (expected_rows, featurizer.vector_size)

    def test_table_vectors_are_one_hot(self, featurizer):
        query = QueryBuilder().table("title", "t").build()
        matrix = featurizer.featurize(query)
        assert matrix.shape[0] == 1
        assert matrix.sum() == 1.0
        table_segment = matrix[0, : featurizer.layout.num_tables]
        assert table_segment.sum() == 1.0

    def test_join_vector_sets_both_column_segments(self, featurizer):
        query = (
            QueryBuilder()
            .table("title", "t")
            .table("movie_keyword", "mk")
            .join("t.id", "mk.movie_id")
            .build()
        )
        matrix = featurizer.featurize(query)
        join_rows = matrix[2:]  # two table vectors come first (sorted clauses)
        layout = featurizer.layout
        join_row = join_rows[0]
        left_segment = join_row[layout.join_left_offset : layout.join_right_offset]
        right_segment = join_row[layout.join_right_offset : layout.predicate_column_offset]
        assert left_segment.sum() == 1.0
        assert right_segment.sum() == 1.0

    def test_predicate_vector_contains_normalized_value(self, featurizer, imdb_small):
        low, high = imdb_small.column_range("t", "production_year")
        midpoint = (low + high) / 2
        query = QueryBuilder().table("title", "t").where("t.production_year", "<", midpoint).build()
        matrix = featurizer.featurize(query)
        predicate_row = matrix[1]
        value = predicate_row[featurizer.layout.value_offset]
        assert value == pytest.approx(0.5, abs=0.01)

    def test_normalization_clips_out_of_range_values(self, featurizer):
        assert featurizer.normalize_value("t.production_year", 1e9) == 1.0
        assert featurizer.normalize_value("t.production_year", -1e9) == 0.0

    def test_normalization_equals_the_numpy_clip_it_replaced(self, featurizer, imdb_small):
        low, high = imdb_small.column_range("t", "production_year")
        values = [low, high, (low + high) / 2, low - 1, high + 1, low + 1e-9, -0.0, 0.0,
                  float("inf"), float("-inf"), 1e300, -1e300, 1999.5]
        for value in values:
            want = float(np.clip((value - low) / (high - low), 0.0, 1.0))
            got = featurizer.normalize_value("t.production_year", value)
            assert got == want and np.signbit(got) == np.signbit(want), value
        assert np.isnan(featurizer.normalize_value("t.production_year", float("nan")))

    def test_featurize_equals_row_by_row_construction(self, featurizer, imdb_small):
        from repro.datasets.generator import GeneratorConfig, QueryGenerator

        layout = featurizer.layout
        generator = QueryGenerator(imdb_small, GeneratorConfig(max_joins=4, seed=13))
        for query in generator.generate_queries(120):
            rows = []
            for table in query.tables:
                vector = np.zeros(layout.vector_size)
                vector[layout.table_offset + featurizer._table_of(table.alias)] = 1.0
                rows.append(vector)
            for join in query.joins:
                vector = np.zeros(layout.vector_size)
                vector[layout.join_left_offset + featurizer._column_of(join.left)] = 1.0
                vector[layout.join_right_offset + featurizer._column_of(join.right)] = 1.0
                rows.append(vector)
            for predicate in query.predicates:
                vector = np.zeros(layout.vector_size)
                column = featurizer._column_of(predicate.qualified_column)
                vector[layout.predicate_column_offset + column] = 1.0
                vector[layout.operator_offset + OPERATORS.index(predicate.operator)] = 1.0
                low, high = imdb_small.column_range(predicate.alias, predicate.column)
                vector[layout.value_offset] = (
                    0.5 if high == low
                    else float(np.clip((predicate.value - low) / (high - low), 0.0, 1.0))
                )
                rows.append(vector)
            want = np.stack(rows, axis=0)
            got = featurizer.featurize(query)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.flags.c_contiguous and got.flags.writeable
            np.testing.assert_array_equal(got, want)

    def test_unknown_alias_raises(self, featurizer):
        query = QueryBuilder().table("title", "zz").build()
        with pytest.raises(KeyError):
            featurizer.featurize(query)


class TestFeaturizeMany:
    def test_stacks_each_querys_featurize_bit_for_bit(self, featurizer, imdb_small):
        from repro.datasets.generator import GeneratorConfig, QueryGenerator

        generator = QueryGenerator(imdb_small, GeneratorConfig(max_joins=4, seed=7))
        queries = generator.generate_queries(150)
        rows, counts = featurizer.featurize_many(queries)
        sets = [featurizer.featurize(query) for query in queries]
        assert counts.tolist() == [len(vectors) for vectors in sets]
        assert rows.dtype == np.float64 and rows.flags.c_contiguous
        assert rows.tobytes() == np.concatenate(sets).tobytes()

    def test_empty_input_gives_no_rows(self, featurizer):
        rows, counts = featurizer.featurize_many([])
        assert rows.shape == (0, featurizer.vector_size) and counts.shape == (0,)
