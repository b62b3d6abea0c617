"""Unit tests for workload builders, pair labelling and the queries-pool contents."""

import hashlib

import pytest

from repro.datasets.pairs import label_pairs, label_queries, mscn_training_set
from repro.datasets.workloads import (
    CRD_TEST2_DISTRIBUTION,
    WorkloadSpec,
    build_cnt_test1,
    build_crd_test1,
    build_crd_test2,
    build_queries_pool_queries,
    build_scale_workload,
    build_training_pairs,
    join_distribution,
)
from repro.sql.intersection import intersect_queries
from repro.sql.parser import format_query


class TestWorkloadSpec:
    def test_scaling_preserves_join_counts(self):
        spec = WorkloadSpec("crd_test2", CRD_TEST2_DISTRIBUTION).scaled(0.1)
        assert set(spec.distribution) == set(CRD_TEST2_DISTRIBUTION)
        assert all(count >= 1 for count in spec.distribution.values())
        assert spec.total < sum(CRD_TEST2_DISTRIBUTION.values())

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec("x", {0: 10}).scaled(0)


class TestLabelling:
    def test_label_queries_matches_oracle(self, imdb_small, imdb_oracle):
        from repro.datasets.generator import GeneratorConfig, QueryGenerator

        queries = QueryGenerator(imdb_small, GeneratorConfig(seed=2)).generate_queries(10)
        labelled = label_queries(imdb_small, queries, oracle=imdb_oracle)
        for item in labelled:
            assert item.cardinality == imdb_oracle.cardinality(item.query)

    def test_label_pairs_rates_in_unit_interval(self, imdb_small, imdb_oracle):
        from repro.datasets.generator import GeneratorConfig, QueryGenerator

        pairs = QueryGenerator(imdb_small, GeneratorConfig(seed=2)).generate_pairs(15)
        for pair in label_pairs(imdb_small, pairs, oracle=imdb_oracle):
            assert 0.0 <= pair.containment_rate <= 1.0

    def test_mscn_training_set_contains_intersections(self, imdb_small, imdb_oracle):
        pairs = build_training_pairs(imdb_small, count=20, oracle=imdb_oracle)
        labelled = mscn_training_set(imdb_small, pairs, oracle=imdb_oracle)
        labelled_queries = {item.query for item in labelled}
        for pair in pairs[:5]:
            assert pair.first in labelled_queries
            assert intersect_queries(pair.first, pair.second) in labelled_queries
        # No duplicates.
        assert len(labelled_queries) == len(labelled)


class TestWorkloadBuilders:
    def test_cnt_test1_join_distribution(self, imdb_small, imdb_oracle):
        workload = build_cnt_test1(imdb_small, scale=0.02, oracle=imdb_oracle)
        distribution = join_distribution(workload)
        assert set(distribution) <= {0, 1, 2}
        assert len(workload) == sum(distribution.values())

    def test_crd_test2_covers_zero_to_five_joins(self, imdb_small, imdb_oracle):
        workload = build_crd_test2(imdb_small, scale=0.02, oracle=imdb_oracle)
        assert set(join_distribution(workload)) == {0, 1, 2, 3, 4, 5}

    def test_crd_test1_labels_are_exact(self, imdb_small, imdb_oracle):
        workload = build_crd_test1(imdb_small, scale=0.02, oracle=imdb_oracle)
        for labelled in workload.queries:
            assert labelled.cardinality == imdb_oracle.cardinality(labelled.query)

    def test_restrict_joins(self, imdb_small, imdb_oracle):
        workload = build_crd_test2(imdb_small, scale=0.02, oracle=imdb_oracle)
        restricted = workload.restrict_joins(3, 5)
        assert all(3 <= labelled.num_joins <= 5 for labelled in restricted.queries)

    def test_scale_workload_uses_other_generator(self, imdb_small, imdb_oracle):
        workload = build_scale_workload(imdb_small, scale=0.02, oracle=imdb_oracle)
        assert set(join_distribution(workload)) <= {0, 1, 2, 3, 4}
        assert len(workload) > 0

    def test_workloads_limit_empty_queries(self, imdb_small, imdb_oracle):
        workload = build_crd_test2(imdb_small, scale=0.05, oracle=imdb_oracle)
        empty_fraction = sum(1 for item in workload.queries if item.cardinality == 0) / len(workload)
        assert empty_fraction <= 0.45  # per-join cap of 20% plus rounding slack on tiny workloads


class TestQueriesPoolContents:
    def test_pool_covers_every_from_clause(self, imdb_small, imdb_oracle):
        pool_queries = build_queries_pool_queries(imdb_small, count=60, oracle=imdb_oracle)
        signatures = {labelled.query.from_signature() for labelled in pool_queries}
        workload = build_crd_test2(imdb_small, scale=0.02, oracle=imdb_oracle)
        workload_signatures = {labelled.query.from_signature() for labelled in workload.queries}
        assert workload_signatures <= signatures

    def test_pool_includes_frame_queries(self, imdb_small, imdb_oracle):
        pool_queries = build_queries_pool_queries(imdb_small, count=60, oracle=imdb_oracle)
        assert any(labelled.query.num_predicates == 0 for labelled in pool_queries)

    def test_pool_without_frames(self, imdb_small, imdb_oracle):
        pool_queries = build_queries_pool_queries(
            imdb_small, count=30, oracle=imdb_oracle, include_frames=False
        )
        assert len(pool_queries) >= 30


#: sha256 over the SQL text of every generated query, per seed, computed at
#: commit b28878f (before the generator read its value ranges from a map
#: built once).  A change that adds, drops or reorders a single RNG draw, or
#: canonicalizes a query differently, moves these.
PINNED_WORKLOAD_DIGESTS = {
    5: "7dab719db49e2c09c71ab53ad36f7fac0a3fb4e65d87aaf027d289865628f8e1",
    41: "293c4d6a77f1e9a7ff2577114f2517b0721b1ef6d73483c9c4f730a57c645f85",
}


class TestWorkloadIdentity:
    @pytest.mark.parametrize("seed", sorted(PINNED_WORKLOAD_DIGESTS))
    def test_generated_workloads_match_the_pinned_digest(self, imdb_small, imdb_oracle, seed):
        pairs = build_training_pairs(imdb_small, count=300, seed=seed, oracle=imdb_oracle)
        pool = build_queries_pool_queries(imdb_small, count=150, seed=seed, oracle=imdb_oracle)
        test = build_crd_test2(imdb_small, scale=0.3, seed=seed, oracle=imdb_oracle)
        lines = [f"{format_query(pair.first)} | {format_query(pair.second)}" for pair in pairs]
        lines += [format_query(item.query) for item in pool]
        lines += [format_query(item.query) for item in test.queries]
        digest = hashlib.sha256()
        for line in lines:
            digest.update(line.encode() + b"\n")
        assert len(lines) == 583
        assert digest.hexdigest() == PINNED_WORKLOAD_DIGESTS[seed]
