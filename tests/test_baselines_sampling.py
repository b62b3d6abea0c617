"""Unit tests for the sampling-based baselines."""

import pytest

from repro.baselines.sampling import IndexBasedJoinSamplingEstimator, RandomSamplingEstimator
from repro.sql.builder import QueryBuilder


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


class TestRandomSampling:
    def test_full_sample_single_table_is_exact(self, toy_database, toy_executor):
        estimator = RandomSamplingEstimator(toy_database, sample_size=100)
        query = _movies(("m.kind", "=", 2))
        assert estimator.estimate_cardinality(query) == pytest.approx(
            toy_executor.cardinality(query)
        )

    def test_zero_sample_selectivity_still_positive(self, toy_database):
        estimator = RandomSamplingEstimator(toy_database, sample_size=100)
        assert estimator.estimate_cardinality(_movies(("m.year", ">", 2050))) >= 1.0

    def test_join_estimate_reasonable_on_toy_data(self, toy_database, toy_executor):
        estimator = RandomSamplingEstimator(toy_database, sample_size=100)
        estimate = estimator.estimate_cardinality(_join())
        assert estimate == pytest.approx(toy_executor.cardinality(_join()), rel=1.0)


class TestIndexBasedJoinSampling:
    def test_full_sample_is_exact_on_toy_join(self, toy_database, toy_executor):
        estimator = IndexBasedJoinSamplingEstimator(toy_database, sample_size=100)
        for query in (_join(), _join(("m.kind", "=", 2)), _movies(("m.year", ">", 1995))):
            assert estimator.estimate_cardinality(query) == pytest.approx(
                toy_executor.cardinality(query), abs=1.0
            )

    def test_subsampled_estimate_is_unbiased_in_scale(self, imdb_small, imdb_oracle):
        from repro.sql.parser import parse_query

        estimator = IndexBasedJoinSamplingEstimator(imdb_small, sample_size=150, seed=1)
        query = parse_query(
            "SELECT * FROM title t, cast_info ci WHERE t.id = ci.movie_id AND t.production_year > 1990"
        )
        truth = imdb_oracle.cardinality(query)
        estimate = estimator.estimate_cardinality(query)
        assert estimate == pytest.approx(truth, rel=1.0)

    def test_one_executor_per_driver_table_is_kept_and_memoizes_nothing(self, toy_database):
        estimator = IndexBasedJoinSamplingEstimator(toy_database, sample_size=100)
        queries = (_join(), _join(("m.kind", "=", 2)))
        first = [estimator.estimate_cardinality(query) for query in queries]
        (executor,) = estimator._restricted_cache.values()
        assert [estimator.estimate_cardinality(query) for query in queries] == first
        assert list(estimator._restricted_cache.values()) == [executor]
        assert len(executor._join_edges) == 1 and not executor._cardinality_cache

    def test_estimates_are_at_least_one(self, imdb_small):
        estimator = IndexBasedJoinSamplingEstimator(imdb_small, sample_size=50, seed=2)
        query = _example_empty(imdb_small)
        assert estimator.estimate_cardinality(query) >= 1.0


def _example_empty(imdb_small):
    return (
        QueryBuilder()
        .table("title", "t")
        .where("t.production_year", ">", 3000)
        .build()
    )
