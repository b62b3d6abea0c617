"""Unit tests for schema objects."""

import pytest

from repro.datasets.imdb import IMDB_SCHEMA
from repro.db.schema import Column, ColumnRole, ColumnType, DatabaseSchema, ForeignKey, TableSchema


class TestTableSchema:
    def test_column_lookup(self):
        table = IMDB_SCHEMA.table("title")
        assert table.column("production_year").type is ColumnType.INTEGER
        with pytest.raises(KeyError):
            table.column("budget")

    def test_key_vs_non_key_partition(self):
        table = IMDB_SCHEMA.table("movie_companies")
        key_names = {column.name for column in table.columns if column.is_key}
        non_key_names = {column.name for column in table.non_key_columns}
        assert key_names == {"id", "movie_id"}
        assert non_key_names == {"company_id", "company_type_id"}
        assert key_names | non_key_names == set(table.column_names)

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError):
            TableSchema("broken", "b", (Column("x"), Column("x")))


class TestDatabaseSchema:
    def test_table_lookup_by_name_and_alias(self):
        assert IMDB_SCHEMA.table("cast_info").alias == "ci"
        assert IMDB_SCHEMA.table_by_alias("ci").name == "cast_info"
        with pytest.raises(KeyError):
            IMDB_SCHEMA.table("actors")
        with pytest.raises(KeyError):
            IMDB_SCHEMA.table_by_alias("a")

    def test_qualified_columns_cover_every_column(self):
        qualified = IMDB_SCHEMA.qualified_columns()
        assert len(qualified) == sum(len(table.columns) for table in IMDB_SCHEMA.tables)
        assert "t.production_year" in qualified
        assert "mi_idx.rating" in qualified

    def test_join_edges_follow_foreign_keys(self):
        edges = IMDB_SCHEMA.join_edges()
        assert len(edges) == len(IMDB_SCHEMA.foreign_keys)
        assert ("mc", "movie_id", "t", "id") in edges

    def test_iter_columns_order(self):
        pairs = list(IMDB_SCHEMA.iter_columns())
        assert pairs[0][0].name == "title"
        assert pairs[0][1].name == "id"

    def test_duplicate_table_names_rejected(self):
        table = TableSchema("t1", "a", (Column("id"),))
        clone = TableSchema("t1", "b", (Column("id"),))
        with pytest.raises(ValueError):
            DatabaseSchema(tables=(table, clone))

    def test_duplicate_aliases_rejected(self):
        first = TableSchema("t1", "a", (Column("id"),))
        second = TableSchema("t2", "a", (Column("id"),))
        with pytest.raises(ValueError):
            DatabaseSchema(tables=(first, second))

    def test_foreign_key_columns_must_exist(self):
        first = TableSchema("t1", "a", (Column("id"),))
        second = TableSchema("t2", "b", (Column("id"),))
        with pytest.raises(ValueError):
            DatabaseSchema(
                tables=(first, second),
                foreign_keys=(ForeignKey("t2", "missing", "t1", "id"),),
            )

    def test_column_roles(self):
        assert Column("id", role=ColumnRole.PRIMARY_KEY).is_key
        assert Column("movie_id", role=ColumnRole.FOREIGN_KEY).is_key
        assert not Column("year").is_key
