"""Unit tests for Crd2Cnt, Cnt2Crd, the final functions and the improved models.

These are the paper's two central transformations; the key invariant is that
feeding either of them *exact* information reproduces exact answers, which is
verified against the toy and synthetic databases.
"""

import importlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import PostgresCardinalityEstimator
from repro.core.cnt2crd import Cnt2CrdEstimator, NoMatchingPoolQueryError, cnt2crd
from repro.core.crn import CRNConfig, CRNEstimator, CRNModel
from repro.core.crd2cnt import Crd2CntEstimator, crd2cnt
from repro.core.final_functions import (
    get_final_function,
    mean_final,
    median_final,
    trimmed_mean_final,
)
from repro.core.improved import ImprovedEstimator, improve
from repro.core.oracle import OracleCardinalityEstimator, OracleContainmentEstimator
from repro.core.queries_pool import QueriesPool
from repro.datasets.workloads import build_crd_test1, build_queries_pool_queries
from repro.serving import PoolEncodingIndex
from repro.sql.builder import QueryBuilder
from tests.conftest import ZeroRatesContainment

# The module, not the `cnt2crd` function that `repro.core` re-exports under its name.
cnt2crd_module = importlib.import_module("repro.core.cnt2crd")


def _movies(*conditions):
    builder = QueryBuilder().table("movies", "m")
    for column, operator, value in conditions:
        builder = builder.where(column, operator, value)
    return builder.build()


class TestFinalFunctions:
    def test_median(self):
        assert median_final([1.0, 100.0, 3.0]) == 3.0

    def test_mean(self):
        assert mean_final([1.0, 2.0, 3.0]) == pytest.approx(2.0)

    def test_trimmed_mean_drops_outliers(self):
        values = [1.0] * 8 + [1000.0, -1000.0]
        assert trimmed_mean_final(values, trim_fraction=0.25) == pytest.approx(1.0)

    def test_trimmed_mean_invalid_fraction(self):
        with pytest.raises(ValueError):
            trimmed_mean_final([1.0], trim_fraction=0.6)

    def test_empty_input_rejected(self):
        for function in (median_final, mean_final, trimmed_mean_final):
            with pytest.raises(ValueError):
                function([])

    @staticmethod
    def _same_float(got: float, want: float) -> bool:
        if np.isnan(want):
            return bool(np.isnan(got))
        return got == want and np.signbit(got) == np.signbit(want)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, 1.0, 2.5, -3.0, np.inf, -np.inf, np.nan, 1e308]),
                st.floats(allow_nan=True, allow_infinity=True),
            ),
            min_size=1,
            max_size=300,
        ),
        st.booleans(),
    )
    def test_median_equals_numpy_median(self, values, as_array):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # inf - inf in np.median's mean
            want = float(np.median(np.asarray(values, dtype=np.float64)))
        got = median_final(np.asarray(values, dtype=np.float64) if as_array else values)
        assert isinstance(got, float)
        assert self._same_float(got, want), (values, got, want)

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 15, 16, 4095, 4096])
    def test_median_equals_numpy_median_at_bucket_sizes(self, size):
        rng = np.random.default_rng(size)
        values = np.round(rng.lognormal(3.0, 2.0, size), 1)  # rounding makes duplicates
        before = values.copy()
        assert median_final(values) == float(np.median(values))
        assert median_final(values.tolist()) == float(np.median(values))
        np.testing.assert_array_equal(values, before)  # the caller's array is not partitioned
        values[size // 3] = np.nan
        assert np.isnan(median_final(values))

    @pytest.mark.parametrize(
        "values",
        [[-0.0], [-0.0, -0.0], [-0.0, 0.0, -0.0], [-1.0, -0.0, -0.0, 5.0], np.arange(12.0).reshape(3, 4)],
        ids=["one_negative_zero", "two", "three", "middle_pair", "two_dimensional"],
    )
    def test_median_keeps_numpy_sign_of_zero_and_flattens(self, values):
        assert self._same_float(median_final(values), float(np.median(values)))

    def test_mean_and_trimmed_mean_are_numpy_reductions(self):
        values = np.random.default_rng(4).lognormal(2.0, 1.5, 37)
        assert mean_final(values) == float(np.mean(values))
        trimmed = np.sort(values)[9:-9]
        assert trimmed_mean_final(values) == float(trimmed.mean())

    def test_registry_lookup(self):
        assert get_final_function("median") is median_final
        with pytest.raises(KeyError):
            get_final_function("mode")


class TestCrd2Cnt:
    def test_oracle_cardinalities_reproduce_true_rates(self, toy_database, imdb_oracle):
        estimator = Crd2CntEstimator(OracleCardinalityEstimator(toy_database))
        first = _movies(("m.year", ">", 1995))
        second = _movies(("m.year", "<", 2008))
        from repro.db.intersection import true_containment_rate

        expected = true_containment_rate(toy_database, first, second)
        assert estimator.estimate_containment(first, second) == pytest.approx(expected)

    def test_empty_first_query_gives_zero(self, toy_database):
        estimator = crd2cnt(OracleCardinalityEstimator(toy_database))
        assert estimator.estimate_containment(_movies(("m.year", ">", 2050)), _movies()) == 0.0

    def test_rate_clipped_to_unit_interval(self, toy_database):
        class InconsistentEstimator(OracleCardinalityEstimator):
            def estimate_cardinality(self, query):
                # Pretend the intersection is larger than the original query.
                return 10.0 if query.num_predicates > 1 else 2.0

        estimator = Crd2CntEstimator(InconsistentEstimator(toy_database))
        rate = estimator.estimate_containment(
            _movies(("m.year", ">", 1995)), _movies(("m.year", "<", 2008))
        )
        assert rate == 1.0

    def test_requires_same_from_clause(self, toy_database):
        estimator = crd2cnt(OracleCardinalityEstimator(toy_database))
        join = (
            QueryBuilder().table("movies", "m").table("ratings", "r").join("m.id", "r.movie_id").build()
        )
        with pytest.raises(ValueError):
            estimator.estimate_containment(_movies(), join)

    def test_name_mentions_base_model(self, toy_database):
        estimator = crd2cnt(OracleCardinalityEstimator(toy_database))
        assert "Oracle" in estimator.name


class TestCnt2Crd:
    @pytest.fixture(scope="class")
    def oracle_pool(self, request):
        imdb_small = request.getfixturevalue("imdb_small")
        imdb_oracle = request.getfixturevalue("imdb_oracle")
        labelled = build_queries_pool_queries(imdb_small, count=60, oracle=imdb_oracle)
        return QueriesPool.from_labeled_queries(labelled)

    def test_oracle_containment_reproduces_exact_cardinalities(
        self, imdb_small, imdb_oracle, oracle_pool
    ):
        estimator = Cnt2CrdEstimator(OracleContainmentEstimator(imdb_small), oracle_pool)
        workload = build_crd_test1(imdb_small, scale=0.03, oracle=imdb_oracle)
        for labelled in workload.queries:
            estimate = estimator.estimate_cardinality(labelled.query)
            assert estimate == pytest.approx(labelled.cardinality, rel=1e-6, abs=1.0)

    def test_missing_from_clause_raises_without_fallback(self, imdb_small):
        estimator = Cnt2CrdEstimator(OracleContainmentEstimator(imdb_small), QueriesPool())
        query = QueryBuilder().table("title", "t").build()
        with pytest.raises(NoMatchingPoolQueryError):
            estimator.estimate_cardinality(query)

    def test_fallback_used_when_no_match(self, imdb_small, imdb_oracle):
        fallback = OracleCardinalityEstimator(imdb_small, oracle=imdb_oracle)
        estimator = Cnt2CrdEstimator(
            OracleContainmentEstimator(imdb_small), QueriesPool(), fallback=fallback
        )
        query = QueryBuilder().table("title", "t").where("t.kind_id", "=", 1).build()
        assert estimator.estimate_cardinality(query) == imdb_oracle.cardinality(query)

    def test_empty_query_estimated_as_zero(self, imdb_small, oracle_pool):
        estimator = Cnt2CrdEstimator(OracleContainmentEstimator(imdb_small), oracle_pool)
        empty = (
            QueryBuilder()
            .table("title", "t")
            .where("t.production_year", ">", 3000)
            .build()
        )
        assert estimator.estimate_cardinality(empty) == 0.0

    def test_pool_estimates_expose_rates(self, imdb_small, imdb_oracle, oracle_pool):
        estimator = cnt2crd(OracleContainmentEstimator(imdb_small), oracle_pool)
        query = QueryBuilder().table("title", "t").where("t.kind_id", "=", 1).build()
        estimates = estimator.pool_estimates(query)
        assert estimates
        for pool_estimate in estimates:
            assert 0.0 <= pool_estimate.x_rate <= 1.0
            assert 0.0 < pool_estimate.y_rate <= 1.0
            assert pool_estimate.estimate >= 0.0

    def test_all_filtered_routes_to_configured_fallback(self, imdb_small, imdb_oracle, oracle_pool):
        # Regression: a matched query whose every y_rate fell under the
        # epsilon guard used to collapse to 0.0, silently bypassing the
        # configured fallback — a spurious zero with unbounded q-error when
        # the pool has no frame queries.  A rate model estimating ~0
        # containment everywhere (a badly drifted CRN) must route to the
        # fallback, exactly like a FROM miss.

        fallback = OracleCardinalityEstimator(imdb_small, oracle=imdb_oracle)
        estimator = Cnt2CrdEstimator(ZeroRatesContainment(), oracle_pool, fallback=fallback)
        query = QueryBuilder().table("title", "t").where("t.kind_id", "=", 1).build()
        assert oracle_pool.has_match(query)
        assert estimator.pool_estimates(query) == []  # everything filtered
        assert estimator.estimate_cardinality(query) == imdb_oracle.cardinality(query)

    def test_all_filtered_without_fallback_keeps_the_zero_collapse(self, oracle_pool):
        # Without any fallback there is no better answer, and with exact
        # rates the empty estimate list genuinely means "empty result" — the
        # legacy collapse-to-0 must survive (it must NOT start raising).

        estimator = Cnt2CrdEstimator(ZeroRatesContainment(), oracle_pool)
        query = QueryBuilder().table("title", "t").where("t.kind_id", "=", 1).build()
        assert estimator.estimate_cardinality(query) == 0.0

    def test_all_matches_empty_result_routes_to_fallback_too(
        self, imdb_small, imdb_oracle
    ):
        # The sibling degenerate case: every matching entry has cardinality
        # 0, so no entry is even eligible — same spurious-zero hazard, same
        # route to the configured fallback.
        pool = QueriesPool()
        empty_pool_query = (
            QueryBuilder().table("title", "t").where("t.production_year", ">", 3000).build()
        )
        pool.add(empty_pool_query, 0)
        fallback = OracleCardinalityEstimator(imdb_small, oracle=imdb_oracle)
        estimator = Cnt2CrdEstimator(
            OracleContainmentEstimator(imdb_small), pool, fallback=fallback
        )
        query = QueryBuilder().table("title", "t").where("t.kind_id", "=", 1).build()
        assert pool.has_match(query)
        assert estimator.eligible_entries(query) == []
        assert estimator.estimate_cardinality(query) == imdb_oracle.cardinality(query)

    def test_final_function_changes_estimate(self, imdb_small, oracle_pool):
        crn_like = OracleContainmentEstimator(imdb_small)
        query = QueryBuilder().table("title", "t").where("t.kind_id", "=", 1).build()
        median_estimate = Cnt2CrdEstimator(crn_like, oracle_pool, final_function="median")
        mean_estimate = Cnt2CrdEstimator(crn_like, oracle_pool, final_function="mean")
        # With exact rates every pool query gives the same estimate, so the two
        # final functions agree; this just exercises both code paths.
        assert median_estimate.estimate_cardinality(query) == pytest.approx(
            mean_estimate.estimate_cardinality(query)
        )

    @pytest.mark.parametrize(
        "final_function",
        ["median", "mean", "trimmed_mean", lambda values: sorted(values)[len(values) // 2]],
        ids=["median", "mean", "trimmed_mean", "plain_callable"],
    )
    def test_collapse_values_equals_collapse_bit_for_bit(
        self, imdb_small, oracle_pool, final_function
    ):
        # The serving path hands the final function the float64 array, the
        # observability path a list of the same floats: one answer, and a
        # plain-Python callable works on both.
        estimator = Cnt2CrdEstimator(
            OracleContainmentEstimator(imdb_small), oracle_pool, final_function=final_function
        )
        signature = max(
            oracle_pool.from_signatures(),
            key=lambda signature: len(oracle_pool.bucket_slab(signature).entries),
        )
        entries = oracle_pool.bucket_slab(signature).entries
        assert len(entries) >= 4
        rates = np.random.default_rng(5).uniform(0.01, 1.0, size=2 * len(entries))
        rates[1] = 0.0  # the epsilon guard drops entry 0 on both routes
        values = estimator.estimate_values_from_rates(entries, rates)
        assert isinstance(values, np.ndarray) and values.shape == (len(entries) - 1,)
        by_values = estimator.collapse_values(values)
        by_estimates = estimator.collapse(
            estimator.estimates_from_rates(entries[0].query, entries, rates.tolist())
        )
        assert isinstance(by_values, float) and isinstance(by_estimates, float)
        assert np.float64(by_values).tobytes() == np.float64(by_estimates).tobytes()


class TestImprovedModels:
    def test_improved_oracle_stays_exact(self, imdb_small, imdb_oracle):
        labelled = build_queries_pool_queries(imdb_small, count=40, oracle=imdb_oracle)
        pool = QueriesPool.from_labeled_queries(labelled)
        improved = ImprovedEstimator(OracleCardinalityEstimator(imdb_small, oracle=imdb_oracle), pool)
        query = QueryBuilder().table("title", "t").where("t.kind_id", "=", 1).build()
        assert improved.estimate_cardinality(query) == pytest.approx(
            imdb_oracle.cardinality(query), rel=1e-6, abs=1.0
        )

    def test_improved_name_and_base(self, imdb_small):
        base = OracleCardinalityEstimator(imdb_small)
        improved = improve(base, QueriesPool())
        assert improved.name == "Improved Oracle"
        assert improved.base_estimator is base

    def test_improved_falls_back_to_base_when_pool_misses(self, imdb_small, imdb_oracle):
        base = OracleCardinalityEstimator(imdb_small, oracle=imdb_oracle)
        improved = ImprovedEstimator(base, QueriesPool())
        query = QueryBuilder().table("title", "t").where("t.kind_id", "=", 2).build()
        assert improved.estimate_cardinality(query) == imdb_oracle.cardinality(query)


class TestBatchedCnt2Crd:
    """``estimate_cardinalities`` scores a batch in pair-budget chunks and
    keeps the bits of ``estimate_cardinality`` query by query."""

    #: The monkeypatched pair budget: one-entry slabs (2 pairs) pack two to
    #: a chunk, and a slab of three or more entries exceeds it alone.
    BUDGET = 4

    @pytest.fixture(scope="class")
    def pool(self, request):
        imdb_small = request.getfixturevalue("imdb_small")
        imdb_oracle = request.getfixturevalue("imdb_oracle")
        labeled = build_queries_pool_queries(imdb_small, count=60, seed=17, oracle=imdb_oracle)
        return QueriesPool.from_labeled_queries(labeled)

    @pytest.fixture(scope="class")
    def batch(self, request, pool):
        imdb_small = request.getfixturevalue("imdb_small")
        imdb_oracle = request.getfixturevalue("imdb_oracle")
        labeled = build_queries_pool_queries(imdb_small, count=24, seed=23, oracle=imdb_oracle)

        def size(query):
            return len(pool.bucket_slab(query.from_signature()).entries)

        matched = [item.query for item in labeled if pool.has_match(item.query)]
        small = [query for query in matched if size(query) == 1][:4]
        big = next(query for query in matched if 2 * size(query) > self.BUDGET)
        # Two fact tables without `title`: no pool query shares the FROM clause.
        unmatched = (
            QueryBuilder()
            .table("movie_companies", "mc")
            .table("movie_keyword", "mk")
            .join("mc.movie_id", "mk.movie_id")
            .build()
        )
        assert len(small) == 4 and not pool.has_match(unmatched)
        filtered = small[3]
        queries = [small[0], big, small[1], small[0], unmatched, filtered, small[2], big]
        return queries, filtered

    @pytest.fixture(
        params=["crn", "crn_indexed", "improved_postgres"], ids=lambda name: name
    )
    def estimator(self, request, pool):
        imdb_small = request.getfixturevalue("imdb_small")
        imdb_featurizer = request.getfixturevalue("imdb_featurizer")
        fallback = PostgresCardinalityEstimator(imdb_small)
        if request.param == "improved_postgres":
            return ImprovedEstimator(fallback, pool)
        model = CRNModel(imdb_featurizer.vector_size, CRNConfig(hidden_size=16, seed=5))
        index = PoolEncodingIndex(pool) if request.param == "crn_indexed" else None
        return Cnt2CrdEstimator(
            CRNEstimator(model, imdb_featurizer), pool, fallback=fallback, pool_index=index
        )

    def test_chunked_batch_matches_per_query_estimates_bit_for_bit(
        self, monkeypatch, pool, batch, estimator
    ):
        queries, filtered = batch
        monkeypatch.setattr(cnt2crd_module, "PAIR_BUDGET", self.BUDGET)
        containment = estimator.containment_estimator
        score = containment.rates_against_pools
        calls = []

        def scoring(items):
            # Records every call and zeroes one query's rates, so the epsilon
            # guard filters all of its entries.
            items = list(items)
            calls.append(items)
            blocks = score(items)
            return [
                np.zeros_like(block) if query == filtered else block
                for (query, _), block in zip(items, blocks)
            ]

        monkeypatch.setattr(containment, "rates_against_pools", scoring)
        naive = [estimator.estimate_cardinality(query) for query in queries]
        assert naive[5] == estimator.fallback.estimate_cardinality(filtered)
        calls.clear()
        batched = estimator.estimate_cardinalities(queries)
        assert np.array(batched).tobytes() == np.array(naive).tobytes()

        indexed = estimator.pool_index is not None
        distinct = list(dict.fromkeys(query for query in queries if pool.has_match(query)))
        scored = [query for call in calls for query, _ in call]
        # Each distinct matched query is scored once, in batch order, with
        # its whole slab in one call.
        assert scored == distinct
        for call in calls:
            for query, slab in call:
                assert slab.entries == pool.bucket_slab(query.from_signature()).entries
                assert (slab.first is not None) == indexed
        # One call per chunk: a call holds one item or at most the budget,
        # and the next call's first item would not have fit.
        pairs = [sum(2 * len(slab.entries) for _, slab in call) for call in calls]
        for call, count in zip(calls, pairs):
            assert len(call) == 1 or count <= self.BUDGET
        for count, following in zip(pairs, calls[1:]):
            assert count + 2 * len(following[0][1].entries) > self.BUDGET
        assert len(calls) == 4
        assert max(pairs) > self.BUDGET and max(len(call) for call in calls) == 2
