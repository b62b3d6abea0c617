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

#: sha256 over the labels of the same workloads -- ``repr`` of every pair's
#: containment rate, then every pool and test query's cardinality -- computed
#: at commit f801b18 (before the oracle counted over whole-column masks).
PINNED_LABEL_DIGESTS = {
    5: "6686c618dca59f0d14b4947a2189eba1d8d629c56bc851032b7becdb0c6b340c",
    41: "4cc172381d88fcb75f6d1fd3f52c9b42ad6015ddb2287a1ee3736ec2b0a6f1d8",
}

#: sha256 over ``repr`` of every query of the same workloads (pair firsts and
#: seconds, pool, test): unlike the SQL text it pins every float value and the
#: sign of zero.  Computed at commit f801b18, with the ``np.str_`` aliases
#: its generator left on some predicates turned into ``str``.
PINNED_REPR_DIGESTS = {
    5: "f2b68b93ce53cc3c3e7fcb04b0b93afa7b9bdd238bcac7d2ef0323a435567d8c",
    41: "6bb676523ce8401754e33712d1315859ebc88e65116d88ad661e69f6df85652a",
}


def _sha256(lines):
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode() + b"\n")
    return digest.hexdigest()


@pytest.fixture(scope="module", params=sorted(PINNED_WORKLOAD_DIGESTS))
def pinned_workloads(request, imdb_small, imdb_oracle):
    """``(seed, pairs, pool, test)`` drawn and labelled at one pinned seed."""
    seed = request.param
    pairs = build_training_pairs(imdb_small, count=300, seed=seed, oracle=imdb_oracle)
    pool = build_queries_pool_queries(imdb_small, count=150, seed=seed, oracle=imdb_oracle)
    test = build_crd_test2(imdb_small, scale=0.3, seed=seed, oracle=imdb_oracle)
    return seed, pairs, pool, test.queries


def _all_queries(pairs, pool, test):
    queries = [query for pair in pairs for query in (pair.first, pair.second)]
    return queries + [item.query for item in pool] + [item.query for item in test]


class TestWorkloadIdentity:
    def test_generated_workloads_match_the_pinned_digest(self, pinned_workloads):
        seed, pairs, pool, test = pinned_workloads
        lines = [f"{format_query(pair.first)} | {format_query(pair.second)}" for pair in pairs]
        lines += [format_query(item.query) for item in pool]
        lines += [format_query(item.query) for item in test]
        assert len(lines) == 583
        assert _sha256(lines) == PINNED_WORKLOAD_DIGESTS[seed]

    def test_labels_match_the_pinned_digest(self, pinned_workloads):
        seed, pairs, pool, test = pinned_workloads
        lines = [repr(pair.containment_rate) for pair in pairs]
        lines += [str(item.cardinality) for item in pool]
        lines += [str(item.cardinality) for item in test]
        assert _sha256(lines) == PINNED_LABEL_DIGESTS[seed]

    def test_query_reprs_match_the_pinned_digest(self, pinned_workloads):
        seed, pairs, pool, test = pinned_workloads
        lines = [repr(query) for query in _all_queries(pairs, pool, test)]
        assert _sha256(lines) == PINNED_REPR_DIGESTS[seed]

    def test_every_clause_field_is_a_plain_str_or_float(self, pinned_workloads):
        _, pairs, pool, test = pinned_workloads
        for query in _all_queries(pairs, pool, test):
            fields = [field for clause in query.tables + query.joins for field in clause]
            fields += [field for predicate in query.predicates for field in predicate[:2]]
            assert all(type(field) is str for field in fields), repr(query)
            assert all(type(predicate.value) is float for predicate in query.predicates)


#: sha256 over ``repr`` of 120 queries drawn by ``ScaleWorkloadGenerator`` at
#: ``ScaleGeneratorConfig(seed=...)``, then ``repr`` and cardinality of every
#: query of ``build_scale_workload(scale=0.1, seed=...)``.  Computed at commit
#: 387fe6f, while ``datasets/scale.py`` kept its own copy of the join-subset
#: enumeration.
PINNED_SCALE_DIGESTS = {
    5: "9ad352731cd1302a0de71def63b7d8a2f822d517dc6b53af1a6dff71080ce13d",
    41: "654dd0c3f3a0dc5a15b809e5dcecdea177f59e5fb6658f51f5105f73f0fa6e9a",
}


class TestScaleWorkloadIdentity:
    @pytest.mark.parametrize("seed", sorted(PINNED_SCALE_DIGESTS))
    def test_scale_queries_and_labels_match_the_pinned_digest(
        self, seed, imdb_small, imdb_oracle
    ):
        from repro.datasets.scale import ScaleGeneratorConfig, ScaleWorkloadGenerator

        generator = ScaleWorkloadGenerator(imdb_small, ScaleGeneratorConfig(seed=seed))
        queries = generator.generate_queries(120)
        workload = build_scale_workload(imdb_small, scale=0.1, seed=seed, oracle=imdb_oracle)
        lines = [repr(query) for query in queries]
        lines += [f"{item.query!r} {item.cardinality}" for item in workload.queries]
        assert len(lines) == 172
        assert _sha256(lines) == PINNED_SCALE_DIGESTS[seed]
