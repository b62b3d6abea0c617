"""Tests for the pool-resident encoding index (whole-pool Cnt2Crd scoring).

The load-bearing guarantee is bit-for-bit identity: the indexed path must
produce exactly the rates and per-entry values an index-less estimator
produces — across random pools, incremental ``add``s mid-serving, cardinality
updates, and a model hot swap.  The hypothesis property test at the bottom
covers all three axes in one run.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import PostgresCardinalityEstimator
from repro.core import (
    Cnt2CrdEstimator,
    CRNConfig,
    CRNEstimator,
    CRNModel,
    QueriesPool,
)
from repro.core.estimators import ContainmentEstimator
from repro.core.queries_pool import PoolEntry, PoolSlab
from repro.datasets import build_queries_pool_queries
from repro.serving import (
    EncodingCache,
    EstimationService,
    InferenceConfig,
    PoolEncodingIndex,
    ServingConfig,
    build_service_stack,
    compile_plan,
)
from repro.sql.builder import QueryBuilder
from tests.conftest import build_service, resolved_slabs, scored_bits, slab_bytes


@pytest.fixture(scope="module")
def labeled(imdb_small, imdb_oracle):
    return build_queries_pool_queries(imdb_small, count=80, seed=17, oracle=imdb_oracle)


@pytest.fixture(scope="module")
def pool(labeled):
    return QueriesPool.from_labeled_queries(labeled)


@pytest.fixture(scope="module")
def workload(imdb_small, imdb_oracle):
    items = build_queries_pool_queries(imdb_small, count=30, seed=23, oracle=imdb_oracle)
    return [item.query for item in items]


@pytest.fixture(scope="module")
def model(imdb_featurizer):
    return CRNModel(imdb_featurizer.vector_size, CRNConfig(hidden_size=16, seed=5))


@pytest.fixture(scope="module")
def other_model(imdb_featurizer):
    return CRNModel(imdb_featurizer.vector_size, CRNConfig(hidden_size=16, seed=99))


class TestResidentSlabScoring:
    def test_matches_interleaved_per_pair_path_bit_for_bit(
        self, model, imdb_featurizer, pool, workload
    ):
        estimator = CRNEstimator(model, imdb_featurizer)
        query = workload[0]
        entries = [entry for entry in pool if entry.cardinality > 0][:7]
        pairs = []
        for entry in entries:
            pairs.append((entry.query, query))
            pairs.append((query, entry.query))
        legacy = estimator.estimate_containments(pairs)
        first = np.stack(
            [model.encode_set(imdb_featurizer.featurize(e.query), 1) for e in entries]
        )
        second = np.stack(
            [model.encode_set(imdb_featurizer.featurize(e.query), 2) for e in entries]
        )
        slab = PoolSlab(
            entries=tuple(entries),
            cardinalities=np.array([float(e.cardinality) for e in entries]),
            token=("test",),
            first=first.T,  # feature-major, as the index stores it
            second=second.T,
        )
        (indexed,) = estimator.rates_against_pools([(query, slab)])
        assert indexed.tolist() == legacy
        # A row-less slab of the same entries takes the per-pair route; mixed
        # batches keep their item order.
        rowless = PoolSlab(slab.entries, slab.cardinalities, token=("rowless",))
        mixed = estimator.rates_against_pools([(query, rowless), (query, slab)])
        assert [block.tolist() for block in mixed] == [legacy, legacy]
        # The ContainmentEstimator default (what a non-CRN rate model runs)
        # accepts a one-shot iterable too, not just a sequence.
        lazy = ContainmentEstimator.rates_against_pools(
            estimator, iter([(query, rowless), (query, rowless)])
        )
        assert [block.tolist() for block in lazy] == [legacy, legacy]

    def test_empty_pool_matrix_yields_empty_rates(self, model):
        hidden = model.hidden_size
        empty = np.empty((0, hidden))
        first, second = model.assemble_pool_pairs(
            np.zeros(hidden), np.zeros(hidden), empty, empty
        )
        assert model.rates_from_encodings(first, second).shape == (0,)

    def test_mismatched_pool_matrices_raise(self, model):
        hidden = model.hidden_size
        with pytest.raises(ValueError, match="same shape"):
            model.assemble_pool_pairs(
                np.zeros(hidden),
                np.zeros(hidden),
                np.zeros((3, hidden)),
                np.zeros((4, hidden)),
            )


def indexed_estimator(model, featurizer, pool, **crn_options) -> Cnt2CrdEstimator:
    """A Cnt2Crd estimator over ``pool`` with a pool index of its own."""
    crn = CRNEstimator(model, featurizer, **crn_options)
    return Cnt2CrdEstimator(crn, pool, pool_index=PoolEncodingIndex(pool, crn))


class TestPoolEncodingIndex:
    def test_slab_rows_are_the_per_query_encodings(
        self, model, imdb_featurizer, pool, workload
    ):
        estimator = indexed_estimator(model, imdb_featurizer, pool)
        query = next(q for q in workload if pool.has_match(q))
        slab = estimator.pool_index.resolve(query)
        assert slab.first is not None
        assert slab.entries == estimator.pool.bucket_slab(query.from_signature()).entries
        for offset, entry in enumerate(slab.entries):
            vectors = imdb_featurizer.featurize(entry.query)
            np.testing.assert_array_equal(slab.first[:, offset], model.encode_set(vectors, 1))
            np.testing.assert_array_equal(slab.second[:, offset], model.encode_set(vectors, 2))

    def test_incremental_add_appends_rows(self, model, imdb_featurizer, labeled):
        pool = QueriesPool.from_labeled_queries(labeled[:40])
        estimator = indexed_estimator(model, imdb_featurizer, pool)
        index = estimator.pool_index
        for item in labeled[:40]:
            index.resolve(item.query)
        rows_before = len(index)
        builds_before = index.stats.builds
        for item in labeled[40:]:
            pool.add(item.query, item.cardinality)
        for item in labeled:
            slab = index.resolve(item.query)
            assert slab.first is not None
            assert slab.entries == estimator.pool.bucket_slab(item.query.from_signature()).entries
        assert len(index) > rows_before
        assert index.stats.appended_rows > 0
        # Growth into existing signatures appends; only never-seen
        # signatures may build fresh slabs.
        assert index.stats.rebuilds == 0
        assert index.stats.builds >= builds_before

    def test_cardinality_update_rebuilds_the_bucket(
        self, model, imdb_featurizer, labeled
    ):
        pool = QueriesPool.from_labeled_queries(labeled[:40])
        index = indexed_estimator(model, imdb_featurizer, pool).pool_index
        target = labeled[0]
        assert index.resolve(target.query).first is not None
        pool.add(target.query, target.cardinality + 1)  # in-place update
        slab = index.resolve(target.query)
        assert slab.first is not None
        assert index.stats.rebuilds >= 1
        updated = {e.query: e for e in slab.entries}[target.query]
        assert updated.cardinality == target.cardinality + 1

    def test_zero_cardinality_entries_are_excluded(self, model, imdb_featurizer, labeled):
        pool = QueriesPool()
        pool.add(labeled[0].query, 0)
        pool.add(labeled[1].query, max(labeled[1].cardinality, 1))
        index = indexed_estimator(model, imdb_featurizer, pool).pool_index
        # Every resolved slab holds only eligible entries (cardinality > 0).
        for item in labeled[:2]:
            if not pool.has_match(item.query):
                continue
            slab = index.resolve(item.query)
            assert slab.first is not None
            assert all(entry.cardinality > 0 for entry in slab.entries)

    def test_an_estimator_refuses_an_index_built_for_another(
        self, model, other_model, imdb_featurizer, pool, labeled
    ):
        crn = CRNEstimator(model, imdb_featurizer)
        index = PoolEncodingIndex(pool, crn)
        Cnt2CrdEstimator(crn, pool, pool_index=index)  # its own: accepted
        other_crn = CRNEstimator(other_model, imdb_featurizer)
        other_pool = QueriesPool.from_labeled_queries(labeled[:10])
        # Another CRN (even over the same weights) or another pool would be
        # scored against slabs that are not its own: refused at construction.
        for containment, served in (
            (other_crn, pool),
            (CRNEstimator(model, imdb_featurizer), pool),
            (crn, other_pool),
        ):
            with pytest.raises(ValueError, match="another pool or containment"):
                Cnt2CrdEstimator(containment, served, pool_index=index)

    def test_unindexed_estimators_score_row_less_slabs_of_their_own_pool(
        self, model, imdb_small, imdb_featurizer, labeled, workload
    ):
        from repro.core.oracle import OracleContainmentEstimator

        own_pool = QueriesPool.from_labeled_queries(labeled[:10])
        query = next(q for q in workload if own_pool.has_match(q))
        for containment in (
            CRNEstimator(model, imdb_featurizer),
            OracleContainmentEstimator(imdb_small),
        ):
            estimator = Cnt2CrdEstimator(containment, own_pool)
            slab = estimator.resolve(query)
            assert slab.first is None and slab.second is None
            assert slab.entries == own_pool.bucket_slab(query.from_signature()).entries

    def test_warm_builds_every_signature(self, model, imdb_featurizer, pool):
        index = indexed_estimator(model, imdb_featurizer, pool).pool_index
        index.warm()
        snapshot = index.stats_snapshot()
        assert snapshot["pool_index_signatures"] == len(pool.from_signatures())
        assert len(index) == sum(1 for entry in pool if entry.cardinality > 0)

    def test_the_index_refuses_a_non_crn_estimator(self, imdb_small, pool):
        from repro.core.oracle import OracleContainmentEstimator

        with pytest.raises(TypeError, match="CRN"):
            PoolEncodingIndex(pool, OracleContainmentEstimator(imdb_small))


class TestServiceIntegration:
    def test_served_estimates_match_index_less_service_bit_for_bit(
        self, model, imdb_small, imdb_featurizer, pool, workload
    ):
        fallback = PostgresCardinalityEstimator(imdb_small)
        legacy = EstimationService(
            Cnt2CrdEstimator(CRNEstimator(model, imdb_featurizer), pool), fallback
        )
        indexed = build_service(
            model, imdb_featurizer, pool, fallback_estimator=fallback,
        )
        legacy_served = legacy.submit_batch(workload)
        assert {item.resolution for item in legacy_served} <= {
            "pair_batch", "registry_fallback"
        }
        legacy_estimates = [item.estimate for item in legacy_served]
        indexed_estimates = [item.estimate for item in indexed.submit_batch(workload)]
        assert indexed_estimates == legacy_estimates
        # The index actually served (no silent wholesale fallback).
        snapshot = indexed.stats_snapshot()
        assert snapshot["pool_index_served"] > 0
        assert snapshot["pool_index_rows"] > 0

    def test_duplicate_requests_share_one_slab_scoring_call(
        self, model, imdb_small, imdb_featurizer, pool, workload
    ):
        service = build_service(
            model,
            imdb_featurizer,
            pool,
            fallback_estimator=PostgresCardinalityEstimator(imdb_small),
        )
        query = next(q for q in workload if pool.has_match(q))
        served = service.submit_batch([query, query, query])
        assert len({item.estimate for item in served}) == 1
        stats = service.stats_snapshot()
        # Three requests planned the same 2·E slots; only one slab call ran.
        assert stats["planned_pairs"] == 3 * served[0].pairs_scored
        assert stats["scored_pairs"] == served[0].pairs_scored
        assert stats["deduplicated_pairs"] == 2 * served[0].pairs_scored

    def test_pool_add_mid_serving_is_picked_up_and_identical(
        self, model, imdb_small, imdb_featurizer, labeled, workload
    ):
        fallback = PostgresCardinalityEstimator(imdb_small)
        serving_pool = QueriesPool.from_labeled_queries(labeled[:50])
        reference_pool = QueriesPool.from_labeled_queries(labeled[:50])
        service = build_service(
            model, imdb_featurizer, serving_pool, fallback_estimator=fallback
        )
        reference = Cnt2CrdEstimator(
            CRNEstimator(model, imdb_featurizer), reference_pool, fallback=fallback
        )
        service.submit_batch(workload)
        for item in labeled[50:]:
            serving_pool.add(item.query, item.cardinality)
            reference_pool.add(item.query, item.cardinality)
        served = [item.estimate for item in service.submit_batch(workload)]
        expected = [reference.estimate_cardinality(query) for query in workload]
        assert served == expected


# --------------------------------------------------------------------------- #
# warmed slab rows: the bulk warm writes exactly the per-query encodings


def bucket_pool(size: int) -> QueriesPool:
    """``size`` range queries over two FROM signatures (the Table 14 regime)."""
    pool = QueriesPool()
    for index in range(size):
        low, high = 1900 + index % 90, 1901 + index % 90 + index // 90
        builder = QueryBuilder().table("title", "t")
        if index % 2:
            builder = builder.table("movie_companies", "mc").join("t.id", "mc.movie_id")
        builder = builder.where("t.production_year", ">", low - 0.5)
        pool.add(builder.where("t.production_year", "<", high + 0.5).build(), index % 997 + 1)
    return pool


def formula_encoding(model, featurizer, query, position) -> np.ndarray:
    """The per-query set-encoder arithmetic, written out."""
    encoder = model.set_encoder1 if position == 1 else model.set_encoder2
    vectors = featurizer.featurize(query)
    transformed = np.maximum(vectors @ encoder.weight.data + encoder.bias.data, 0.0)
    return transformed.sum(axis=0) / vectors.shape[0]


FLOAT32 = InferenceConfig(mode="compiled", slab_dtype="float32")


@pytest.fixture(scope="module")
def buckets():
    return bucket_pool(600)  # 300 entries a bucket: both sides of a chunk boundary


class TestWarmedSlabRows:
    @pytest.mark.parametrize("inference", [InferenceConfig(), FLOAT32], ids=["f64", "f32"])
    @pytest.mark.parametrize("kind", ["generated", "bucket"])
    def test_every_column_is_its_entrys_encoding_in_the_slab_dtype(
        self, model, imdb_featurizer, pool, buckets, kind, inference
    ):
        served = pool if kind == "generated" else buckets
        stack = build_service_stack(
            ServingConfig(model=model, featurizer=imdb_featurizer, pool=served, inference=inference)
        )
        slabs = resolved_slabs(stack)
        assert sum(len(slab.entries) for slab in slabs) == sum(1 for e in served if e.cardinality > 0)
        dtype = np.dtype(inference.slab_dtype)
        for slab in slabs:
            assert slab.first.dtype == slab.second.dtype == dtype
            for offset, entry in enumerate(slab.entries):
                vectors = imdb_featurizer.featurize(entry.query)
                for position, columns in ((1, slab.first), (2, slab.second)):
                    expected = model.encode_set(vectors, position)
                    assert columns[:, offset].tobytes() == expected.astype(dtype).tobytes()
                    formula = formula_encoding(model, imdb_featurizer, entry.query, position)
                    assert expected.tobytes() == formula.tobytes()

    @pytest.mark.parametrize("inference", [InferenceConfig(), FLOAT32], ids=["f64", "f32"])
    def test_append_and_rebuild_rows_equal_a_fresh_warm(
        self, model, imdb_featurizer, labeled, inference
    ):
        def stack_over(pool):
            return build_service_stack(
                ServingConfig(model=model, featurizer=imdb_featurizer, pool=pool, inference=inference)
            )

        growing = QueriesPool.from_labeled_queries(labeled[:40])
        stack = stack_over(growing)
        for item in labeled[40:]:
            growing.add(item.query, item.cardinality)
        appended = slab_bytes(stack)
        assert stack.estimator.pool_index.stats.appended_rows > 0 and stack.estimator.pool_index.stats.rebuilds == 0
        assert appended == slab_bytes(stack_over(QueriesPool.from_labeled_queries(labeled)))

        bumped = next(item for item in labeled if item.cardinality > 0)
        growing.add(bumped.query, bumped.cardinality + 1)
        rebuilt = slab_bytes(stack)
        assert stack.estimator.pool_index.stats.rebuilds == 1
        # Slab maintenance never goes through the request caches.
        assert stack.estimator.containment_estimator.encoding_cache.stats.snapshot() == {"hits": 0, "misses": 0, "evictions": 0}
        fresh = QueriesPool.from_labeled_queries(labeled)
        fresh.add(bumped.query, bumped.cardinality + 1)
        assert rebuilt == slab_bytes(stack_over(fresh))
        assert rebuilt != appended  # the bumped cardinality is in it


@pytest.fixture()
def encoded_sets(model, monkeypatch):
    """``(position, set count)`` of every ``encode_sets`` call on ``model``."""
    calls = []
    original = model.encode_sets

    def spy(rows, counts, position):
        calls.append((position, len(counts)))
        return original(rows, counts, position)

    monkeypatch.setattr(model, "encode_sets", spy)
    return calls


class TestSlabMaintenance:
    """A slab is the only home of a pool entry's encodings, and it encodes
    only the entries it lacks."""

    def stack_over(self, model, featurizer, pool, inference=InferenceConfig()):
        return build_service_stack(
            ServingConfig(model=model, featurizer=featurizer, pool=pool, inference=inference)
        )

    def test_warm_leaves_both_request_caches_empty(self, model, imdb_featurizer, labeled):
        stack = self.stack_over(model, imdb_featurizer, QueriesPool.from_labeled_queries(labeled))
        assert len(stack.estimator.pool_index) == sum(1 for item in labeled if item.cardinality > 0)
        for cache in (stack.estimator.containment_estimator.featurizer, stack.estimator.containment_estimator.encoding_cache):
            assert len(cache) == 0
            assert cache.stats.snapshot() == {"hits": 0, "misses": 0, "evictions": 0}

    @pytest.mark.parametrize("inference", [InferenceConfig(), FLOAT32], ids=["f64", "f32"])
    def test_rebuild_encodes_nothing_and_matches_a_fresh_build(
        self, model, imdb_featurizer, labeled, encoded_sets, inference
    ):
        pool = QueriesPool.from_labeled_queries(labeled)
        stack = self.stack_over(model, imdb_featurizer, pool, inference)
        bumped, dropped = [item for item in labeled if item.cardinality > 0][:2]
        # An in-place cardinality update, then an entry dropping to 0.
        for query, cardinality in ((bumped.query, bumped.cardinality + 1), (dropped.query, 0)):
            pool.add(query, cardinality)
            encoded_sets.clear()
            rebuilt = slab_bytes(stack)
            assert sum(sets for _, sets in encoded_sets) == 0
            fresh = QueriesPool.from_labeled_queries(labeled)
            fresh.add(bumped.query, bumped.cardinality + 1)
            if cardinality == 0:
                fresh.add(dropped.query, 0)
            assert rebuilt == slab_bytes(self.stack_over(model, imdb_featurizer, fresh, inference))
        assert stack.estimator.pool_index.stats.rebuilds == 2

    def test_a_plan_attached_after_warm_builds_slabs_of_its_own_dtype(
        self, model, imdb_featurizer, labeled
    ):
        pool = QueriesPool.from_labeled_queries(labeled)
        stack = self.stack_over(model, imdb_featurizer, pool)
        index = stack.estimator.pool_index
        rows, builds = len(index), index.stats.builds
        assert all(slab.first.dtype == np.float64 for slab in resolved_slabs(stack))
        stack.estimator.containment_estimator.attach_plan(compile_plan(model))
        # Slabs key by (signature, dtype): the plan's scorer gets float32
        # slabs equal to a stack compiled from the start, beside the float64.
        assert all(slab.first.dtype == np.float32 for slab in resolved_slabs(stack))
        assert slab_bytes(stack) == slab_bytes(
            self.stack_over(model, imdb_featurizer, pool, FLOAT32)
        )
        assert index.stats.builds == 2 * builds and len(index) == 2 * rows
        assert index.stats_snapshot()["pool_index_f32_mirrors"] == 1.0

    def test_add_encodes_one_row_per_slot(self, model, imdb_featurizer, labeled, encoded_sets):
        pool = QueriesPool.from_labeled_queries(labeled[:40])
        stack = self.stack_over(model, imdb_featurizer, pool)
        added = next(
            item for item in labeled[40:]
            if item.cardinality > 0 and pool.has_match(item.query)
            and item.query not in {entry.query for entry in pool}
        )
        pool.add(added.query, added.cardinality)
        encoded_sets.clear()
        slab = stack.estimator.pool_index.resolve(added.query)
        assert encoded_sets == [(1, 1), (2, 1)]
        assert slab.entries[-1].query == added.query
        assert stack.estimator.pool_index.stats.appended_rows == 1


#: sha256 over the bytes of every warmed slab row -- slot 1 then slot 2 per
#: signature, signatures in ``repr`` order -- of a 150-query generated pool
#: at each seed, hidden size 16, reference mode.  Computed at commit 5350123,
#: whose warm encoded the pool one query at a time.
PINNED_SLAB_DIGESTS = {
    5: "ca32284777779b8311e881245203db6020a0311784b2ee0396525218ab14ba72",
    41: "6d9b46c05df06da5a5eb1e6236c46032feb1963c4fc86d400d7df8b3749ea6f2",
}


@pytest.mark.parametrize("seed", sorted(PINNED_SLAB_DIGESTS))
def test_warmed_slab_rows_match_the_pinned_digest(seed, model, imdb_small, imdb_oracle, imdb_featurizer):
    labeled = build_queries_pool_queries(imdb_small, count=150, seed=seed, oracle=imdb_oracle)
    stack = build_service_stack(
        ServingConfig(
            model=model, featurizer=imdb_featurizer, pool=QueriesPool.from_labeled_queries(labeled)
        )
    )
    slabs = resolved_slabs(stack)
    formula = hashlib.sha256()
    for slab in slabs:
        for position in (1, 2):
            for entry in slab.entries:
                formula.update(formula_encoding(model, imdb_featurizer, entry.query, position).tobytes())
    if formula.hexdigest() != PINNED_SLAB_DIGESTS[seed]:
        pytest.skip("this BLAS rounds the set encoders differently from where the digest was pinned")
    warmed = hashlib.sha256()
    for slab in slabs:  # entry-major bytes, as the digest was pinned
        warmed.update(slab.first.T.tobytes() + slab.second.T.tobytes())
    assert warmed.hexdigest() == PINNED_SLAB_DIGESTS[seed]


# --------------------------------------------------------------------------- #
# the property test: random pools, incremental adds, a model hot swap


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_indexed_path_bit_identical_across_pools_adds_and_swaps(
    data, model, other_model, imdb_featurizer, labeled, workload
):
    """The indexed pool path scores the rates and values of a plain one, bit for bit.

    Covers random initial pools, incremental ``add``s mid-serving (appends
    and cardinality updates), and a model hot swap, which serves the
    retrained model from a fresh index of its own — the three ways slab
    state evolves in production.
    """
    order = data.draw(st.permutations(range(len(labeled))), label="pool order")
    initial_size = data.draw(
        st.integers(min_value=5, max_value=len(labeled) - 5), label="initial size"
    )
    added_count = data.draw(
        st.integers(min_value=0, max_value=len(labeled) - initial_size), label="added"
    )
    queries = data.draw(
        st.lists(st.sampled_from(workload), min_size=1, max_size=6, unique=True),
        label="requests",
    )

    pool = QueriesPool(
        PoolEntry(labeled[i].query, labeled[i].cardinality)
        for i in order[:initial_size]
    )
    indexed = indexed_estimator(model, imdb_featurizer, pool, encoding_cache=EncodingCache())
    plain = Cnt2CrdEstimator(CRNEstimator(model, imdb_featurizer), pool)

    for query in queries:
        assert scored_bits(indexed, query) == scored_bits(plain, query)

    # Incremental adds mid-serving: appends plus one cardinality update.
    for i in order[initial_size : initial_size + added_count]:
        pool.add(labeled[i].query, labeled[i].cardinality)
    bumped = labeled[order[0]]
    pool.add(bumped.query, bumped.cardinality + 1)
    for query in queries:
        assert scored_bits(indexed, query) == scored_bits(plain, query)

    # Hot swap: the retrained model is served from a fresh index, and the
    # outgoing estimator keeps scoring its own slabs.
    swapped = indexed_estimator(
        other_model, imdb_featurizer, pool, encoding_cache=EncodingCache()
    )
    plain_swapped = Cnt2CrdEstimator(CRNEstimator(other_model, imdb_featurizer), pool)
    for query in queries:
        assert scored_bits(swapped, query) == scored_bits(plain_swapped, query)
        assert scored_bits(indexed, query) == scored_bits(plain, query)

    # Both indexes genuinely served (identity would be vacuous if every
    # resolve handed back row-less slabs).
    assert indexed.pool_index.stats.served > 0 and swapped.pool_index.stats.served > 0
