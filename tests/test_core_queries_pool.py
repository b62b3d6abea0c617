"""Unit tests for the queries pool."""

import pytest

from repro.core.queries_pool import PoolEntry, QueriesPool
from repro.sql.builder import QueryBuilder


def _title_query(year: int):
    return QueryBuilder().table("title", "t").where("t.production_year", ">", year).build()


def _join_query():
    return (
        QueryBuilder()
        .table("title", "t")
        .table("movie_companies", "mc")
        .join("t.id", "mc.movie_id")
        .build()
    )


class TestPoolBasics:
    def test_add_and_match_by_from_clause(self):
        pool = QueriesPool()
        pool.add(_title_query(1990), 100)
        pool.add(_join_query(), 500)
        assert len(pool) == 2
        matches = pool.matching_entries(_title_query(2005))
        assert len(matches) == 1
        assert matches[0].cardinality == 100
        assert pool.has_match(_join_query())

    def test_no_match_for_unknown_from_clause(self):
        pool = QueriesPool()
        pool.add(_title_query(1990), 100)
        unknown = QueryBuilder().table("movie_keyword", "mk").build()
        assert pool.matching_entries(unknown) == []
        assert not pool.has_match(unknown)

    def test_re_adding_updates_cardinality(self):
        pool = QueriesPool()
        query = _title_query(1990)
        pool.add(query, 100)
        pool.add(query, 250)
        assert len(pool) == 1
        assert pool.matching_entries(query)[0].cardinality == 250

    def test_negative_cardinality_rejected(self):
        with pytest.raises(ValueError):
            PoolEntry(_title_query(1990), -1)

    @pytest.mark.parametrize("cardinality", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_cardinality_rejected(self, cardinality):
        # A bucket holding an infinite cardinality used to serve inf.
        with pytest.raises(ValueError, match="finite"):
            PoolEntry(_title_query(1990), cardinality)
        pool = QueriesPool()
        with pytest.raises(ValueError, match="finite"):
            pool.add(_title_query(1990), cardinality)
        assert len(pool) == 0

    def test_iteration_and_signatures(self):
        pool = QueriesPool([PoolEntry(_title_query(1990), 10), PoolEntry(_join_query(), 20)])
        assert {entry.cardinality for entry in pool} == {10, 20}
        assert len(pool.from_signatures()) == 2

    def test_from_labeled_queries(self, imdb_small, imdb_oracle):
        from repro.datasets.workloads import build_queries_pool_queries

        labelled = build_queries_pool_queries(imdb_small, count=30, oracle=imdb_oracle)
        pool = QueriesPool.from_labeled_queries(labelled)
        assert len(pool) == len({item.query for item in labelled})


class TestAddScaling:
    def test_add_does_not_linearly_scan_the_bucket(self):
        # Regression: add() used to dedup with a linear scan of the FROM
        # signature's bucket, making pool construction O(n^2) per signature.
        # Buckets are now keyed by query, so adding N entries to one bucket
        # must trigger at most a handful of Query equality checks (hash
        # collisions only), not ~N^2/2 of them.
        from repro.sql.query import Query

        queries = [_title_query(year) for year in range(1000, 1400)]
        comparisons = 0
        original_eq = Query.__eq__

        def counting_eq(self, other):
            nonlocal comparisons
            comparisons += 1
            return original_eq(self, other)

        Query.__eq__ = counting_eq
        try:
            pool = QueriesPool()
            for index, query in enumerate(queries):
                pool.add(query, index)
        finally:
            Query.__eq__ = original_eq
        assert len(pool) == len(queries)
        assert comparisons < len(queries)

    def test_concurrent_adds_lose_no_entries(self):
        import threading

        pool = QueriesPool()
        shards = [
            [_title_query(year) for year in range(1000 + shard * 500, 1500 + shard * 500)]
            for shard in range(4)
        ]

        def add_shard(shard):
            for index, query in enumerate(shard):
                pool.add(query, index)

        threads = [threading.Thread(target=add_shard, args=(shard,)) for shard in shards]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(pool) == sum(len(shard) for shard in shards)
        assert sum(1 for _ in pool) == len(pool)


class TestSubset:
    def _pool_with_two_signatures(self) -> QueriesPool:
        pool = QueriesPool()
        for year in range(1950, 1970):
            pool.add(_title_query(year), year)
        for company in range(10):
            join_query = (
                QueryBuilder()
                .table("title", "t")
                .table("movie_companies", "mc")
                .join("t.id", "mc.movie_id")
                .where("mc.company_id", "=", company)
                .build()
            )
            pool.add(join_query, company)
        return pool

    def test_subset_size_and_balance(self):
        pool = self._pool_with_two_signatures()
        subset = pool.subset(10)
        assert len(subset) == 10
        # Round-robin selection keeps both FROM clauses represented.
        assert len(subset.from_signatures()) == 2

    def test_subset_larger_than_pool_returns_copy(self):
        pool = self._pool_with_two_signatures()
        subset = pool.subset(1000)
        assert len(subset) == len(pool)

    def test_invalid_subset_size(self):
        with pytest.raises(ValueError):
            QueriesPool().subset(0)
