"""Unit tests for materialized samples and bitmaps."""

import numpy as np
import pytest

from repro.db.sampling import SampleCatalog
from repro.sql.builder import QueryBuilder
from repro.sql.query import ComparisonOperator, Predicate


class TestSampleCatalog:
    def test_sample_covers_small_tables_entirely(self, toy_database):
        catalog = SampleCatalog.build(toy_database, sample_size=100, seed=0)
        assert catalog.sample("movies").actual_size == 5
        assert catalog.sample("ratings").actual_size == 7

    def test_sample_respects_sample_size(self, imdb_small):
        catalog = SampleCatalog.build(imdb_small, sample_size=50, seed=0)
        for table_name in imdb_small.table_names:
            assert catalog.sample(table_name).actual_size <= 50

    def test_bitmap_length_and_padding(self, toy_database):
        catalog = SampleCatalog.build(toy_database, sample_size=10, seed=0)
        bitmap = catalog.bitmap("movies", ())
        assert len(bitmap) == 10
        assert bitmap[:5].sum() == 5
        assert bitmap[5:].sum() == 0

    def test_bitmap_reflects_predicates(self, toy_database):
        catalog = SampleCatalog.build(toy_database, sample_size=10, seed=0)
        predicate = Predicate("m", "kind", ComparisonOperator.EQ, 1)
        bitmap = catalog.bitmap("movies", (predicate,))
        assert bitmap.sum() == 2  # movies 0 and 1 have kind=1

    def test_selectivity_exact_when_sample_is_full_table(self, toy_database):
        catalog = SampleCatalog.build(toy_database, sample_size=100, seed=0)
        predicate = Predicate("r", "score", ComparisonOperator.GT, 80)
        assert catalog.selectivity("ratings", (predicate,)) == pytest.approx(3 / 7)

    def test_bitmap_per_table_of_a_query(self, toy_database):
        # What the MSCN featurizer asks for: one bitmap per FROM table, from
        # that alias's predicates.
        catalog = SampleCatalog.build(toy_database, sample_size=10, seed=0)
        query = (
            QueryBuilder()
            .table("movies", "m")
            .table("ratings", "r")
            .join("m.id", "r.movie_id")
            .where("m.kind", "=", 2)
            .build()
        )
        bitmaps = {
            table.alias: catalog.bitmap(table.name, query.predicates_for(table.alias))
            for table in query.tables
        }
        assert bitmaps["m"].sum() == 2
        assert bitmaps["r"].sum() == 7  # no predicate on ratings

    def test_unknown_table_raises(self, toy_database):
        catalog = SampleCatalog.build(toy_database, sample_size=10, seed=0)
        with pytest.raises(KeyError):
            catalog.sample("unknown")

    def test_samples_are_deterministic_for_a_seed(self, imdb_small):
        first = SampleCatalog.build(imdb_small, sample_size=20, seed=5)
        second = SampleCatalog.build(imdb_small, sample_size=20, seed=5)
        for table_name in imdb_small.table_names:
            assert np.array_equal(first.sample(table_name).row_ids, second.sample(table_name).row_ids)
