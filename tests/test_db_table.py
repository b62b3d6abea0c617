"""Unit tests for columnar table storage."""

import numpy as np
import pytest

from repro.db.schema import Column, ColumnRole, ColumnType, TableSchema
from repro.db.table import Table
from repro.sql.query import ComparisonOperator, Predicate

SCHEMA = TableSchema(
    name="movies",
    alias="m",
    columns=(
        Column("id", ColumnType.INTEGER, ColumnRole.PRIMARY_KEY),
        Column("year", ColumnType.INTEGER),
        Column("score", ColumnType.FLOAT),
    ),
)


def make_table() -> Table:
    return Table(
        SCHEMA,
        {
            "id": [0, 1, 2, 3],
            "year": [1990, 1995, 2000, 2005],
            "score": [1.5, 2.5, 3.5, 4.5],
        },
    )


class TestConstruction:
    def test_column_dtypes(self):
        table = make_table()
        assert table.column("year").dtype == np.int64
        assert table.column("score").dtype == np.float64

    def test_missing_column_rejected(self):
        with pytest.raises(ValueError, match="missing data"):
            Table(SCHEMA, {"id": [0], "year": [1990]})

    def test_extra_column_rejected(self):
        with pytest.raises(ValueError, match="unknown columns"):
            Table(SCHEMA, {"id": [0], "year": [1990], "score": [1.0], "extra": [1]})

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            Table(SCHEMA, {"id": [0, 1], "year": [1990], "score": [1.0, 2.0]})

    def test_num_rows(self):
        assert make_table().num_rows == 4
        assert len(make_table()) == 4


class TestPredicates:
    def test_equality(self):
        table = make_table()
        mask = table.evaluate_predicate(Predicate("m", "year", ComparisonOperator.EQ, 1995))
        assert mask.tolist() == [False, True, False, False]

    def test_less_than_and_greater_than(self):
        table = make_table()
        lt = table.evaluate_predicate(Predicate("m", "year", ComparisonOperator.LT, 2000))
        gt = table.evaluate_predicate(Predicate("m", "year", ComparisonOperator.GT, 2000))
        assert lt.tolist() == [True, True, False, False]
        assert gt.tolist() == [False, False, False, True]

    def test_evaluate_on_row_subset(self):
        table = make_table()
        mask = table.evaluate_predicate(
            Predicate("m", "year", ComparisonOperator.GT, 1992), row_ids=np.array([0, 3])
        )
        assert mask.tolist() == [False, True]

    def test_filter_rows_conjunction(self):
        table = make_table()
        rows = table.filter_rows(
            [
                Predicate("m", "year", ComparisonOperator.GT, 1990),
                Predicate("m", "year", ComparisonOperator.LT, 2005),
            ]
        )
        assert rows.tolist() == [1, 2]

    def test_filter_rows_empty_predicates_returns_all(self):
        assert make_table().filter_rows([]).tolist() == [0, 1, 2, 3]

    def test_predicate_mask_is_none_without_predicates(self):
        assert make_table().predicate_mask([]) is None
        assert make_table().predicate_mask(iter(())) is None

    def test_predicate_mask_matches_a_per_row_reference(self):
        table = make_table()
        compare = {
            ComparisonOperator.LT: lambda left, right: left < right,
            ComparisonOperator.GT: lambda left, right: left > right,
            ComparisonOperator.EQ: lambda left, right: left == right,
        }
        rng = np.random.default_rng(3)
        for _ in range(200):
            predicates = [
                Predicate(
                    "m",
                    str(rng.choice(["year", "score"])),
                    list(compare)[int(rng.integers(3))],
                    float(rng.choice([1989, 1995, 2000, 2006, 1.5, 3.0, 3.5, 5.0])),
                )
                for _ in range(int(rng.integers(1, 4)))
            ]
            expected = [
                all(compare[p.operator](table.column(p.column)[row], p.value) for p in predicates)
                for row in range(table.num_rows)
            ]
            mask = table.predicate_mask(predicates)
            assert mask.dtype == bool and mask.tolist() == expected
            assert table.filter_rows(predicates).tolist() == np.flatnonzero(expected).tolist()

    def test_unknown_column_raises(self):
        with pytest.raises(KeyError):
            make_table().column("budget")


class TestStatisticsHelpers:
    def test_value_range(self):
        assert make_table().value_range("year") == (1990.0, 2005.0)

    def test_value_range_empty_table(self):
        empty = Table(SCHEMA, {"id": [], "year": [], "score": []})
        assert empty.value_range("year") == (0.0, 0.0)

    def test_sample_row_ids_small_table_returns_all(self):
        table = make_table()
        rng = np.random.default_rng(0)
        assert sorted(table.sample_row_ids(10, rng).tolist()) == [0, 1, 2, 3]

    def test_sample_row_ids_subset_is_unique(self):
        table = make_table()
        rng = np.random.default_rng(0)
        sample = table.sample_row_ids(2, rng)
        assert len(sample) == 2
        assert len(set(sample.tolist())) == 2
