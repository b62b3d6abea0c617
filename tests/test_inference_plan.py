"""Tests for the frozen-model inference engine (plans, serving).

Covers the whole compiled-inference stack: plan compilation, its head
freeze and its self-check against the float64 pair head, tile invariance of
the one pair-head kernel on the live weights (the per-tile autodiff head of
``tests/autodiff.py`` and the 256-row golden included), the float32 fused slab kernel and its bound, the
live-model identity of everything else a plan-attached estimator computes,
the pool index's per-dtype slabs, the ``InferenceConfig`` section, the
client end-to-end paths (including mid-serving pool adds), the lifecycle's
pre-swap recompile, and the ``plan_compile`` / ``plan_swap`` observability
trail.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Cnt2CrdEstimator, CRNConfig, CRNEstimator, CRNModel, QueriesPool
from repro.core.crn import PASS_ROWS
from repro.core.estimators import containment_pairs
from repro.artifacts import ArtifactStore
from repro.core.training import TrainingConfig, train_crn
from repro.datasets import build_queries_pool_queries, build_training_pairs
from repro.extensions.updates import incremental_update
from repro.serving import (
    InferenceConfig,
    InferencePlan,
    ServingClient,
    ServingConfig,
    compile_plan,
)
from repro.serving.client import _RETIRED_CONFIG_KEYS
from repro.serving.config import ObservabilityConfig
import repro.serving.pool_index as pool_index_module
from repro.serving.pool_index import PoolEncodingIndex
from tests.autodiff import Tensor, crn_head, no_grad, track


@pytest.fixture(scope="module")
def pool(imdb_small, imdb_oracle):
    labeled = build_queries_pool_queries(imdb_small, count=60, seed=17, oracle=imdb_oracle)
    return QueriesPool.from_labeled_queries(labeled)


@pytest.fixture(scope="module")
def workload(imdb_small, imdb_oracle):
    labeled = build_queries_pool_queries(imdb_small, count=24, seed=23, oracle=imdb_oracle)
    return [item.query for item in labeled]


@pytest.fixture(scope="module")
def model(imdb_featurizer):
    return CRNModel(imdb_featurizer.vector_size, CRNConfig(hidden_size=16, seed=5))


#: Relative bound on a float32 rate (and estimate) against the float64
#: reference: float32 rounding through two GEMMs is ~1e-5..1e-4.
F32_RTOL = 1e-3


def make_model(hidden: int = 16, seed: int = 5, **kwargs) -> CRNModel:
    return CRNModel(8, CRNConfig(hidden_size=hidden, seed=seed, **kwargs))


def encode_queries(estimator: CRNEstimator, queries, position: int) -> np.ndarray:
    """``(n, H)`` encodings of ``queries`` in pair slot ``position``, in order,
    through the estimator's bulk path (what ``warm`` and a batch's cache
    misses run)."""
    encoded = estimator._encode_keys((query, position) for query in queries)
    return np.stack([encoded[(query, position)] for query in queries])


def scratch_stats(plan: InferencePlan) -> dict[str, int]:
    """This thread's fused-kernel scratch: capacity entries and realloc count."""
    state = plan._local
    return {
        "capacity_rows": getattr(state, "fused_capacity", 0),
        "allocations": getattr(state, "allocations", 0),
    }


def encodings(hidden: int, rows: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal((rows, hidden)),
        rng.standard_normal((rows, hidden)),
    )


def tensor_head_by_passes(crn: CRNModel, first, second, rows: int) -> np.ndarray:
    """The algorithm serving ran before the array kernel, written out: the
    autodiff head under ``no_grad`` on freshly zero-padded ``rows``-row
    passes, one pass at a time."""
    track(crn)
    total = first.shape[0]
    rates = np.empty(total)
    for start in range(0, total, rows):
        count = min(rows, total - start)
        padded = np.zeros((2, rows, crn.hidden_size))
        padded[0, :count] = first[start : start + count]
        padded[1, :count] = second[start : start + count]
        with no_grad():
            out = crn_head(crn, Tensor(padded[0]), Tensor(padded[1])).numpy()
        rates[start : start + count] = out[:count]
    return rates


# --------------------------------------------------------------------------- #
# compilation


class TestCompilePlan:
    def test_rejects_bad_arguments(self):
        with pytest.raises(TypeError, match="CRNModel"):
            compile_plan(object())

    def test_compile_rejects_a_model_whose_head_is_not_the_kernel(self):
        class HalvedHead(CRNModel):
            def rates_from_encodings(self, first_reprs, second_reprs, slab_size=PASS_ROWS):
                return super().rates_from_encodings(first_reprs, second_reprs, slab_size) * 0.5

        crn = HalvedHead(8, CRNConfig(hidden_size=16, seed=5))
        with pytest.raises(RuntimeError, match="diverged"):
            compile_plan(crn)

    def test_weights_are_frozen_at_compile_time(self):
        crn = make_model()
        plan = compile_plan(crn)
        q_first, q_second, pool_first, pool_second = slab_inputs(crn.hidden_size, 9)
        slab = (q_first, q_second, feature_major(pool_first), feature_major(pool_second))
        pairs = crn.assemble_pool_pairs(q_first, q_second, pool_first, pool_second)
        before = plan.rates_against_slab(*slab)
        live_before = crn.rates_from_encodings(*pairs)
        # A post-compilation "optimizer step" must not leak into the plan's
        # head: only a recompile picks it up.
        for parameter in crn.parameters():
            parameter.data = parameter.data + 0.5
        np.testing.assert_array_equal(plan.rates_against_slab(*slab), before)
        # The live model, by contrast, moved.
        assert not np.array_equal(crn.rates_from_encodings(*pairs), live_before)

    def test_float32_compile_probes_the_fused_slab_kernel(self, monkeypatch):
        # The generic pass is not what float32 serving runs: a fused kernel
        # that disagrees with the model's pair head must fail compilation too.
        real = InferencePlan.rates_against_slab
        probed: list[int] = []

        def skewed(plan, *args):
            rates = real(plan, *args)
            probed.append(rates.shape[0])
            return rates * 0.5

        monkeypatch.setattr(InferencePlan, "rates_against_slab", skewed)
        for use_expand in (True, False):
            with pytest.raises(RuntimeError, match="diverged"):
                compile_plan(make_model(use_expand=use_expand))
        assert probed == [26, 26]  # 13 probe rows, both directions

    def test_one_constant_sets_every_default_pass_height(self, imdb_featurizer):
        crn = CRNModel(imdb_featurizer.vector_size, CRNConfig(hidden_size=16, seed=5))
        assert _RETIRED_CONFIG_KEYS["estimator", "batch_size"] == PASS_ROWS
        first, second = encodings(16, 3 * PASS_ROWS + 1)
        np.testing.assert_array_equal(
            crn.rates_from_encodings(first, second),
            crn.rates_from_encodings(first, second, slab_size=PASS_ROWS),
        )


# --------------------------------------------------------------------------- #
# execution: the fused kernel's scratch and the live kernel's


class TestPlanExecution:
    def test_scratch_grows_geometrically_and_is_reused(self):
        crn = make_model()
        plan = compile_plan(crn)
        hidden = crn.hidden_size
        # The compile-time self-check already allocated this thread's fused
        # scratch (13 probe entries); growth counts start from there.
        base = scratch_stats(plan)
        assert base["capacity_rows"] == PASS_ROWS - 3
        for entries in (20, 21, 39, 40):
            q_first, q_second, pool_first, pool_second = slab_inputs(hidden, entries)
            plan.rates_against_slab(q_first, q_second, pool_first.T, pool_second.T)
        stats = scratch_stats(plan)
        # 20 doubles 13-entry capacity to 26; 39 doubles it again to 52;
        # 21 and 40 ride the existing high-water mark.
        assert stats["capacity_rows"] == 52
        assert stats["allocations"] == base["allocations"] + 2
        # Shrinking and re-growing within capacity allocates nothing new.
        for entries in (2, 40):
            q_first, q_second, pool_first, pool_second = slab_inputs(hidden, entries)
            plan.rates_against_slab(q_first, q_second, pool_first.T, pool_second.T)
        assert scratch_stats(plan)["allocations"] == stats["allocations"]

    def test_live_scratch_grows_by_whole_tiles_up_to_one_stack(self):
        crn = make_model()
        hidden = crn.hidden_size

        def scratch() -> tuple[int, int]:
            state = crn._scratch
            return getattr(state, "capacity", 0), getattr(state, "allocations", 0)

        crn.rates_from_encodings(*encodings(hidden, 3 * PASS_ROWS))
        base = scratch()
        assert base[0] == 3 * PASS_ROWS
        crn.rates_from_encodings(*encodings(hidden, 3 * PASS_ROWS + 2))
        grown = scratch()
        # 4 tiles needed: the capacity doubles, and stays a whole number of tiles.
        assert grown == (6 * PASS_ROWS, base[1] + 1)
        crn.rates_from_encodings(*encodings(hidden, 6 * PASS_ROWS))
        assert scratch() == grown
        # However many rows a batch brings, a pass stacks at most 256 of
        # them: scratch stops growing with the batch.
        crn.rates_from_encodings(*encodings(hidden, 1000))
        capped = scratch()
        assert capped[0] == 256
        crn.rates_from_encodings(*encodings(hidden, 5000))
        assert scratch() == capped


# --------------------------------------------------------------------------- #
# tile invariance: a rate's bits depend on the pass height alone


class TestTileInvariance:
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        rows=st.sampled_from(
            [1, PASS_ROWS - 1, PASS_ROWS, PASS_ROWS + 1, 2 * PASS_ROWS + 3, 1000]
        ),
        hidden=st.sampled_from([8, 16, 64]),
        use_expand=st.booleans(),
        data=st.data(),
    )
    def test_property_any_subset_in_any_order_keeps_each_rows_bits(
        self, rows, hidden, use_expand, data
    ):
        """Scored alone, in a random subset, or permuted across tile
        boundaries, a pair gets the same bits from the live weights."""
        seed = data.draw(st.integers(min_value=0, max_value=2**16))
        crn = CRNModel(8, CRNConfig(hidden_size=hidden, seed=seed, use_expand=use_expand))
        first, second = encodings(hidden, rows, seed=seed)
        scored = crn.rates_from_encodings(first, second)
        rng = np.random.default_rng(seed)
        for _ in range(3):
            size = int(rng.integers(1, rows + 1))
            chosen = rng.permutation(rows)[:size]
            subset = crn.rates_from_encodings(first[chosen], second[chosen])
            assert subset.tobytes() == scored[chosen].tobytes()

    @pytest.mark.parametrize("use_expand", [True, False])
    @pytest.mark.parametrize("rows", [0, 1, PASS_ROWS, 2 * PASS_ROWS + 3, 700])
    def test_live_weights_equal_the_per_tile_tensor_head(self, rows, use_expand):
        crn = make_model(hidden=64, use_expand=use_expand)
        first, second = encodings(64, rows, seed=rows)
        live = crn.rates_from_encodings(first, second)
        assert live.dtype == np.float64 and live.shape == (rows,)
        assert tensor_head_by_passes(crn, first, second, PASS_ROWS).tobytes() == live.tobytes()

    @pytest.mark.parametrize("rows", [0, 1, 255, 256, 300, 700])
    def test_golden_batch_size_256_serves_the_bits_of_the_old_slab_path(
        self, rows, imdb_featurizer
    ):
        crn = CRNModel(imdb_featurizer.vector_size, CRNConfig(hidden_size=64, seed=5))
        first, second = encodings(64, rows, seed=rows)
        golden = tensor_head_by_passes(crn, first, second, 256)
        served = crn.rates_from_encodings(first, second, slab_size=256)
        assert served.tobytes() == golden.tobytes()

    def test_threads_score_through_their_own_scratch(self):
        # The live model's kernel buffers are per thread, as the plan's are.
        crn = make_model(hidden=64)
        first, second = encodings(64, 500, seed=3)
        expected = crn.rates_from_encodings(first, second).tobytes()
        results: list[bool] = []

        def worker(offset: int) -> None:
            for size in range(offset + 1, 500, 37):
                got = crn.rates_from_encodings(first[:size], second[:size])
                results.append(got.tobytes() == expected[: 8 * size])

        threads = [threading.Thread(target=worker, args=(index,)) for index in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results and all(results)


# --------------------------------------------------------------------------- #
# bulk encoding: a set's bits do not depend on the sets encoded with it


def random_sets(width: int, count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` random sets of 1-20 dense rows, stacked, and their sizes."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, 21, size=count)
    return rng.standard_normal((int(counts.sum()), width)), counts


def one_by_one(encoder, rows, counts, position) -> np.ndarray:
    ends = np.cumsum(counts)
    return np.stack(
        [encoder.encode_set(rows[end - size : end], position) for size, end in zip(counts, ends)]
    )


class TestBulkEncoding:
    # 600 sets: three 256-set chunks, so sets on both sides of two chunk
    # boundaries, and sets straddling 16-row GEMM tiles; 1-row sets among them.
    @pytest.mark.parametrize("pooling", ["average", "sum"])
    def test_encode_sets_is_encode_set_per_set(self, pooling):
        crn = CRNModel(24, CRNConfig(hidden_size=32, seed=9, pooling=pooling))
        rows, counts = random_sets(24, 600, seed=4)
        assert (counts == 1).any()
        for position in (1, 2):
            live = crn.encode_sets(rows, counts, position)
            assert live.shape == (600, 32) and live.dtype == np.float64
            assert live.tobytes() == one_by_one(crn, rows, counts, position).tobytes()

    def test_multi_row_sets_keep_the_per_set_formula_bits(self):
        # The arithmetic encode_set had before bulk encoding existed; a one-row
        # set matches it too when its row is one-hot, as a featurized one is.
        crn = CRNModel(24, CRNConfig(hidden_size=32, seed=9))
        rows, counts = random_sets(24, 300, seed=6)
        rows[np.cumsum(counts)[counts == 1] - 1] = np.eye(24)[3]
        weight, bias = crn.set_encoder1.weight.data, crn.set_encoder1.bias.data
        ends = np.cumsum(counts)
        expected = np.stack(
            [
                np.maximum(rows[end - size : end] @ weight + bias, 0.0).sum(axis=0) / size
                for size, end in zip(counts, ends)
            ]
        )
        assert crn.encode_sets(rows, counts, 1).tobytes() == expected.tobytes()

    def test_empty_input_and_zero_row_sets(self):
        crn = CRNModel(8, CRNConfig(hidden_size=16, seed=5))
        assert crn.encode_sets(np.empty((0, 8)), [], 1).shape == (0, 16)
        rows, counts = random_sets(8, 5, seed=2)
        with_empty = crn.encode_sets(rows, [*counts, 0], 2)
        assert not with_empty[-1].any()
        assert with_empty[:-1].tobytes() == crn.encode_sets(rows, counts, 2).tobytes()
        assert not crn.encode_sets(np.empty((0, 8)), [0, 0], 1).any()

    def test_any_order_and_any_neighbours_keep_each_sets_bits(self):
        # Shuffled, a set lands at another offset in another tile and chunk.
        crn = CRNModel(24, CRNConfig(hidden_size=32, seed=9))
        rows, counts = random_sets(24, 400, seed=8)
        scored = crn.encode_sets(rows, counts, 1)
        ends = np.cumsum(counts)
        order = np.random.default_rng(8).permutation(400)
        shuffled = np.concatenate([rows[ends[i] - counts[i] : ends[i]] for i in order])
        assert crn.encode_sets(shuffled, counts[order], 1).tobytes() == scored[order].tobytes()

    def test_the_estimators_bulk_encode_is_its_encode_query(self, model, imdb_featurizer, pool):
        queries = [entry.query for entry in pool]
        for plan in (None, compile_plan(model)):
            estimator = CRNEstimator(model, imdb_featurizer)
            if plan is not None:
                estimator.attach_plan(plan)
            for position in (1, 2):
                bulk = encode_queries(estimator, queries, position)
                alone = np.stack([estimator.encode_query(query, position) for query in queries])
                assert bulk.tobytes() == alone.tobytes()


# --------------------------------------------------------------------------- #
# the float32 fused slab kernel


def slab_inputs(hidden: int, entries: int, seed: int = 0):
    """A query's two encodings and an ``entries``-row pool side, float64."""
    rng = np.random.default_rng(seed)
    query_first, query_second = rng.standard_normal((2, hidden))
    pool_first, pool_second = rng.standard_normal((2, entries, hidden))
    return query_first, query_second, pool_first, pool_second


def feature_major(rows: np.ndarray) -> np.ndarray:
    """``(E, H)`` float64 rows as a contiguous ``(H, E)`` float32 slab."""
    return np.ascontiguousarray(rows.T, dtype=np.float32)


class TestFusedSlabKernel:
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        hidden=st.sampled_from([8, 64]),
        entries=st.sampled_from([0, 1, 17, 300]),
        use_expand=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_property_matches_the_pair_head_on_assembled_pairs(
        self, hidden, entries, use_expand, seed
    ):
        crn = make_model(hidden=hidden, seed=seed, use_expand=use_expand)
        plan = compile_plan(crn)
        q_first, q_second, pool_first, pool_second = slab_inputs(hidden, entries, seed)
        fused = plan.rates_against_slab(
            q_first, q_second, feature_major(pool_first), feature_major(pool_second)
        )
        assert fused.dtype == np.float64 and fused.shape == (2 * entries,)
        pairs = crn.assemble_pool_pairs(q_first, q_second, pool_first, pool_second)
        # Against the float64 reference: float32 rounding only.
        np.testing.assert_allclose(
            fused, crn.rates_from_encodings(*pairs), rtol=F32_RTOL, atol=1e-6
        )

    @pytest.mark.parametrize("use_expand", [True, False])
    def test_slab_views_and_float64_input_score_like_contiguous_float32(self, use_expand):
        crn = make_model(hidden=16, use_expand=use_expand)
        plan = compile_plan(crn)
        q_first, q_second, pool_first, pool_second = slab_inputs(16, 37, seed=9)
        expected = plan.rates_against_slab(
            q_first, q_second, feature_major(pool_first), feature_major(pool_second)
        ).tobytes()
        # What the index hands out: the first `count` columns of a slab
        # with spare capacity (rows strided by the capacity, not by E).
        slabs = np.full((2, 16, 64), np.nan, dtype=np.float32)
        slabs[0, :, :37], slabs[1, :, :37] = pool_first.T, pool_second.T
        views = plan.rates_against_slab(q_first, q_second, slabs[0, :, :37], slabs[1, :, :37])
        assert views.tobytes() == expected
        # Any (H, E) array is cast on load: float64 rows, transposed.
        cast = plan.rates_against_slab(q_first, q_second, pool_first.T, pool_second.T)
        assert cast.tobytes() == expected

    def test_rejects_row_major_input(self):
        crn = make_model(hidden=16)
        q_first, q_second, pool_first, pool_second = slab_inputs(16, 5)
        plan = compile_plan(crn)
        with pytest.raises(ValueError, match="feature-major"):
            plan.rates_against_slab(q_first, q_second, pool_first, pool_second)
        with pytest.raises(ValueError, match="feature-major"):
            plan.rates_against_slab(q_first, q_second, pool_first.T, pool_second.T[:, :4])

    def test_a_resolved_slab_scores_identically_after_appends_and_growth(
        self, model, imdb_featurizer, pool, workload, imdb_small, imdb_oracle, monkeypatch
    ):
        # The snapshot contract for column appends: what a request resolved
        # keeps its bytes and stays what it scores, whether a later add
        # writes the next column of the same slab or outgrows it
        # (ensure_capacity reallocates).
        own_pool = QueriesPool(pool)
        containment = CRNEstimator(model, imdb_featurizer)
        containment.attach_plan(compile_plan(model))
        # A fresh slab is exactly full, so the first append must grow it.
        monkeypatch.setattr(pool_index_module, "INITIAL_CAPACITY", 1)
        estimator = Cnt2CrdEstimator(
            containment, own_pool, pool_index=PoolEncodingIndex(own_pool, containment)
        )
        # Unseen queries over one FROM signature the pool knows: one to
        # score, two to add.
        known = {entry.query for entry in own_pool}
        by_signature: dict[tuple, list] = {}
        for item in build_queries_pool_queries(
            imdb_small, count=60, seed=41, oracle=imdb_oracle
        ):
            if item.cardinality > 0 and item.query not in known:
                by_signature.setdefault(item.query.from_signature(), []).append(item)
        scored_item, *extra = next(
            items
            for items in by_signature.values()
            if len(items) >= 3 and own_pool.has_match(items[0].query)
        )
        query = scored_item.query

        def resolve():
            slab = estimator.resolve(query)
            rates = containment.rates_against_pools([(query, slab)])[0].tobytes()
            return slab, slab.first.tobytes() + slab.second.tobytes(), rates

        resolved = [resolve()]
        for item in extra[:2]:
            own_pool.add(item.query, item.cardinality)
            resolved.append(resolve())
        slabs = [slab for slab, _, _ in resolved]
        count = len(slabs[0].entries)
        assert [slab.first.shape for slab in slabs] == [
            (model.hidden_size, count + grown) for grown in range(3)
        ]
        assert {slab.first.dtype for slab in slabs} == {np.dtype(np.float32)}
        assert {slab.second.dtype for slab in slabs} == {np.dtype(np.float32)}
        # A full slab (capacity == count) grew into fresh storage; the next
        # append fit the doubled capacity and wrote a column in place.
        assert slabs[1].first.base is not slabs[0].first.base
        assert slabs[2].first.base is slabs[1].first.base
        for slab, stored, rates in resolved:
            assert slab.first.tobytes() + slab.second.tobytes() == stored
            for offset, entry in enumerate(slab.entries):
                for position, columns in ((1, slab.first), (2, slab.second)):
                    encoding = containment.encode_query(entry.query, position)
                    assert columns[:, offset].tobytes() == encoding.astype(np.float32).tobytes()
            assert containment.rates_against_pools([(query, slab)])[0].tobytes() == rates

    def test_threads_score_different_slabs_through_one_plan(self):
        crn = make_model(hidden=64)
        plan = compile_plan(crn)
        cases = []
        for index, entries in enumerate((300, 17, 1, 90)):
            q_first, q_second, pool_first, pool_second = slab_inputs(64, entries, seed=index)
            cases.append(
                (q_first, q_second, feature_major(pool_first), feature_major(pool_second))
            )
        expected = [plan.rates_against_slab(*case).tobytes() for case in cases]
        results: list[bool] = []

        def worker(offset: int) -> None:
            for step in range(40):
                which = (offset + step) % len(cases)
                got = plan.rates_against_slab(*cases[which])
                results.append(got.tobytes() == expected[which])

        threads = [threading.Thread(target=worker, args=(index,)) for index in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 160 and all(results)

    def test_a_read_straight_after_an_add_equals_a_fresh_clients(
        self, model, imdb_featurizer, pool, workload, imdb_small, imdb_oracle
    ):
        # The kernel keeps nothing per slab, so there is no stale state an
        # add could leave behind: the serving client that saw the add and a
        # client built afterwards answer with the same bits.
        own_pool = QueriesPool(pool)

        def start():
            return ServingClient.start(
                ServingConfig(
                    model=model,
                    featurizer=imdb_featurizer,
                    pool=own_pool,
                    inference=InferenceConfig(mode="compiled", slab_dtype="float32"),
                )
            )

        queries = [q for q in workload if own_pool.has_match(q)]
        serving = start()
        try:
            serving.estimate_many(queries)
            for item in build_queries_pool_queries(
                imdb_small, count=8, seed=41, oracle=imdb_oracle
            ):
                own_pool.add(item.query, item.cardinality)
                after_add = [result.estimate for result in serving.estimate_many(queries)]
                fresh = start()
                try:
                    assert after_add == [r.estimate for r in fresh.estimate_many(queries)]
                finally:
                    fresh.shutdown()
        finally:
            serving.shutdown()


# --------------------------------------------------------------------------- #
# estimator integration


class TestEstimatorPlanAttachment:
    def test_attach_validates_model(self, model, imdb_featurizer):
        estimator = CRNEstimator(model, imdb_featurizer)
        other = CRNModel(imdb_featurizer.vector_size, CRNConfig(hidden_size=16, seed=99))
        with pytest.raises(ValueError, match="different model"):
            estimator.attach_plan(compile_plan(other))
        plan = compile_plan(model)
        estimator.attach_plan(plan)
        assert estimator.inference_plan is plan
        # Attaching is per estimator: a second one over the same model stays
        # on the reference path.
        assert CRNEstimator(model, imdb_featurizer).inference_plan is None


# --------------------------------------------------------------------------- #
# a plan scores resident slabs only: everything else is the live model's bits


@pytest.fixture(scope="module")
def sourced_models(imdb_small, imdb_featurizer, imdb_oracle, pool, tmp_path_factory):
    """Trained models the way the stack gets them: ``train_crn``, an
    artifact boot, and ``incremental_update``."""
    pairs = build_training_pairs(imdb_small, count=60, seed=12, oracle=imdb_oracle)
    training = TrainingConfig(epochs=2, batch_size=32)
    trained = train_crn(
        imdb_featurizer, pairs, crn_config=CRNConfig(hidden_size=16, seed=2),
        training_config=training,
    )
    store = ArtifactStore(tmp_path_factory.mktemp("plan_store"))
    config = ServingConfig(model=trained.model, featurizer=imdb_featurizer, pool=pool)
    store.save(
        model=trained.model, pool=pool, config_mapping=config.to_mapping(),
        generation=1, source="build",
    )
    new_pairs = build_training_pairs(imdb_small, count=20, seed=13, oracle=imdb_oracle)
    updated = incremental_update(trained, imdb_small, new_pairs, training, epochs=1)
    return {
        "train_crn": trained.model,
        "from_artifact": store.load(1).model,
        "incremental_update": updated.model,
    }


def plain_and_compiled(model, featurizer) -> tuple[CRNEstimator, CRNEstimator]:
    compiled = CRNEstimator(model, featurizer)
    compiled.attach_plan(compile_plan(model))
    return CRNEstimator(model, featurizer), compiled


class TestLiveModelIdentity:
    @pytest.mark.parametrize("source", ["train_crn", "from_artifact", "incremental_update"])
    def test_encodings_are_the_plan_less_bits(
        self, source, sourced_models, imdb_featurizer, pool, workload
    ):
        plain, compiled = plain_and_compiled(sourced_models[source], imdb_featurizer)
        queries = workload + [entry.query for entry in pool]
        for position in (1, 2):
            bulk = encode_queries(compiled, queries, position)
            assert bulk.tobytes() == encode_queries(plain, queries, position).tobytes()
            for query in queries[:8]:
                single = compiled.encode_query(query, position)
                assert single.tobytes() == plain.encode_query(query, position).tobytes()

    def test_estimate_containments_are_the_reference_bits(
        self, sourced_models, imdb_featurizer, pool, workload
    ):
        plain, compiled = plain_and_compiled(sourced_models["train_crn"], imdb_featurizer)
        pool_queries = [entry.query for entry in pool]
        pairs = list(zip(workload, pool_queries)) + list(zip(pool_queries, workload))
        assert compiled.estimate_containments(pairs) == plain.estimate_containments(pairs)

    def test_index_less_cnt2crd_serves_the_reference_estimate(
        self, sourced_models, imdb_featurizer, pool, workload
    ):
        # Without an index every slab is row-less, so a compiled estimator
        # scores pair by pair on the live model: the reference bits.
        plain, compiled = plain_and_compiled(sourced_models["train_crn"], imdb_featurizer)
        queries = [query for query in workload if pool.has_match(query)]
        assert queries
        reference = Cnt2CrdEstimator(plain, pool)
        served = Cnt2CrdEstimator(compiled, pool)
        assert [served.estimate_cardinality(q) for q in queries] == [
            reference.estimate_cardinality(q) for q in queries
        ]


# --------------------------------------------------------------------------- #
# the pool index's per-dtype slabs


class TestIndexSlabDtype:
    def test_plan_less_and_compiled_estimators_resolve_their_own_slabs(
        self, model, imdb_featurizer, pool, workload
    ):
        live = CRNEstimator(model, imdb_featurizer)
        compiled = CRNEstimator(model, imdb_featurizer)
        compiled.attach_plan(compile_plan(model))
        query = next(q for q in workload if pool.has_match(q))
        wide = PoolEncodingIndex(pool, live).resolve(query)
        narrow = PoolEncodingIndex(pool, compiled).resolve(query)
        shape = (model.hidden_size, len(wide.entries))
        assert wide.first.shape == wide.second.shape == narrow.first.shape == shape
        assert wide.first.dtype == wide.second.dtype == np.float64
        assert narrow.first.dtype == narrow.second.dtype == np.float32
        assert wide.token != narrow.token
        np.testing.assert_array_equal(narrow.first, wide.first.astype(np.float32))
        np.testing.assert_array_equal(narrow.second, wide.second.astype(np.float32))
        pairs = containment_pairs(query, wide.entries)
        exact = live.rates_against_pools([(query, wide)])[0]
        assert exact.tolist() == live.estimate_containments(pairs)
        close = compiled.rates_against_pools([(query, narrow)])[0]
        np.testing.assert_allclose(close, compiled.estimate_containments(pairs), rtol=1e-3)

    def test_a_recompiled_candidate_warms_float32_slabs_of_its_own(
        self, model, imdb_featurizer, pool, workload
    ):
        # The lifecycle's promote order: wire the candidate a fresh index,
        # then warm it through the candidate's freshly compiled plan.
        incumbent_crn = CRNEstimator(model, imdb_featurizer)
        incumbent_crn.attach_plan(compile_plan(model))
        incumbent = PoolEncodingIndex(pool, incumbent_crn)
        incumbent.warm()
        query = next(q for q in workload if pool.has_match(q))
        before = incumbent.resolve(query)
        replacement = CRNModel(imdb_featurizer.vector_size, CRNConfig(hidden_size=16, seed=77))
        candidate_crn = CRNEstimator(replacement, imdb_featurizer)
        candidate_crn.attach_plan(compile_plan(replacement))
        candidate = PoolEncodingIndex(pool, candidate_crn)
        candidate.warm()
        assert candidate.stats_snapshot()["pool_index_f32_mirrors"] == 1.0
        assert len(candidate) == len(incumbent)
        slab = candidate.resolve(query)
        assert slab.first.dtype == slab.second.dtype == np.float32
        assert slab.first.tobytes() != before.first.tobytes()  # the candidate's rows
        # The incumbent's slabs are untouched by the candidate's warm.
        after = incumbent.resolve(query)
        assert after.first.tobytes() + after.second.tobytes() == (
            before.first.tobytes() + before.second.tobytes()
        )


# --------------------------------------------------------------------------- #
# configuration


class TestInferenceConfig:
    def test_defaults_are_reference_float64(self):
        section = InferenceConfig()
        assert section.mode == "reference"
        assert section.slab_dtype == "float64"

    def test_validation(self):
        with pytest.raises(ValueError, match="mode"):
            InferenceConfig(mode="jit")
        with pytest.raises(ValueError, match="slab_dtype"):
            InferenceConfig(mode="compiled", slab_dtype="float16")
        with pytest.raises(ValueError, match="reference"):
            InferenceConfig(mode="reference", slab_dtype="float32")
        # The retired compiled-float64 plan: the message names its
        # bit-identical replacement.
        with pytest.raises(ValueError, match="mode='reference'"):
            InferenceConfig(mode="compiled", slab_dtype="float64")
        with pytest.raises(ValueError, match="mode='reference'"):
            InferenceConfig(mode="compiled")

    def test_mapping_round_trip(self, model, imdb_featurizer, pool):
        config = ServingConfig(
            model=model,
            featurizer=imdb_featurizer,
            pool=pool,
            inference=InferenceConfig(mode="compiled", slab_dtype="float32"),
        )
        mapping = json.loads(json.dumps(config.to_mapping()))
        assert mapping["inference"] == {"mode": "compiled", "slab_dtype": "float32"}
        rebuilt = ServingConfig.from_mapping(
            mapping, model=model, featurizer=imdb_featurizer, pool=pool
        )
        assert rebuilt.inference == config.inference


# --------------------------------------------------------------------------- #
# client end to end


class TestCompiledServing:
    def start_client(self, model, imdb_featurizer, pool, mode, **overrides):
        dtype = "float32" if mode == "compiled" else "float64"
        config = ServingConfig(
            model=model,
            featurizer=imdb_featurizer,
            pool=pool,
            inference=InferenceConfig(mode=mode, slab_dtype=dtype),
            **overrides,
        )
        return ServingClient.start(config)

    def test_compiled_float32_stays_within_tolerance_across_pool_adds(
        self, model, imdb_featurizer, pool, workload, imdb_small, imdb_oracle
    ):
        reference = self.start_client(model, imdb_featurizer, pool, "reference")
        compiled = self.start_client(model, imdb_featurizer, pool, "compiled")
        try:
            plan = compiled.stack.estimator.containment_estimator.inference_plan
            assert plan is not None and plan.dtype == np.float32
            extra = build_queries_pool_queries(imdb_small, count=8, seed=41, oracle=imdb_oracle)

            def check(queries):
                for ref, fast in zip(
                    reference.estimate_many(queries), compiled.estimate_many(queries)
                ):
                    if ref.used_fallback or fast.used_fallback:
                        continue
                    scale = max(abs(ref.estimate), 1.0)
                    assert abs(fast.estimate - ref.estimate) <= F32_RTOL * scale

            check(workload)
            # Mid-serving pool adds: the index appends float32 columns and the
            # compiled path keeps tracking the reference estimates.
            for labeled in extra:
                pool.add(labeled.query, labeled.cardinality)
            check(workload)
        finally:
            reference.shutdown()
            compiled.shutdown()

    def test_plan_compile_event_and_history_view(self, model, imdb_featurizer, pool):
        client = self.start_client(
            model,
            imdb_featurizer,
            pool,
            "compiled",
            observability=ObservabilityConfig(enabled=True),
        )
        try:
            client.recorder.flush()
            history = client.event_store.plan_history()
            assert len(history) == 1
            row = history[0]
            assert row["kind"] == "plan_compile"
            assert row["dtype"] == "float32"
        finally:
            client.shutdown()
