"""Shared fixtures: a hand-crafted toy database and a small synthetic IMDb."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.cnt2crd import Cnt2CrdEstimator
from repro.core.estimators import ContainmentEstimator
from repro.core.featurization import QueryFeaturizer
from repro.core.queries_pool import PoolEntry, QueriesPool
from repro.datasets.imdb import SyntheticIMDbConfig, build_synthetic_imdb
from repro.db.database import Database
from repro.db.executor import QueryExecutor
from repro.db.intersection import TrueCardinalityOracle
from repro.db.schema import Column, ColumnRole, ColumnType, DatabaseSchema, ForeignKey, TableSchema
from repro.cluster.worker import stable_shard
from repro.serving import EstimationService, ServingConfig, build_service_stack
from repro.sql.builder import QueryBuilder

#: A two-table schema small enough to verify every number by hand.
TOY_SCHEMA = DatabaseSchema(
    tables=(
        TableSchema(
            name="movies",
            alias="m",
            columns=(
                Column("id", ColumnType.INTEGER, ColumnRole.PRIMARY_KEY),
                Column("year", ColumnType.INTEGER),
                Column("kind", ColumnType.INTEGER),
            ),
        ),
        TableSchema(
            name="ratings",
            alias="r",
            columns=(
                Column("id", ColumnType.INTEGER, ColumnRole.PRIMARY_KEY),
                Column("movie_id", ColumnType.INTEGER, ColumnRole.FOREIGN_KEY),
                Column("score", ColumnType.INTEGER),
            ),
        ),
    ),
    foreign_keys=(ForeignKey("ratings", "movie_id", "movies", "id"),),
)


def build_toy_database(kinds=(1, 1, 2, 2, 3)) -> Database:
    """Five movies, seven ratings; every cardinality below is easy to check by hand.

    ``kinds`` are the movies' ``kind`` values (equal ones make it a constant column).
    """
    movies = {
        "id": np.array([0, 1, 2, 3, 4]),
        "year": np.array([1990, 1995, 2000, 2005, 2010]),
        "kind": np.array(kinds),
    }
    ratings = {
        "id": np.arange(7),
        "movie_id": np.array([0, 1, 1, 2, 3, 3, 3]),
        "score": np.array([50, 60, 70, 80, 85, 90, 95]),
    }
    return Database.from_arrays(TOY_SCHEMA, {"movies": movies, "ratings": ratings})


@pytest.fixture(scope="session")
def toy_database() -> Database:
    """The hand-checkable two-table database."""
    return build_toy_database()


@pytest.fixture(scope="session")
def toy_executor(toy_database: Database) -> QueryExecutor:
    """A shared executor over the toy database."""
    return QueryExecutor(toy_database)


def row_tuples(result) -> set[tuple[int, ...]]:
    """An :class:`~repro.db.executor.ExecutionResult` as a set of row-id
    tuples, for set-level comparisons of two results."""
    return set(map(tuple, result.row_ids.tolist()))


class ZeroRatesContainment(ContainmentEstimator):
    """A containment stub whose every rate falls under any epsilon guard.

    Shared by the matched-but-all-filtered regression tests: with every
    ``Qnew ⊂% Qold`` rate at 0, a Cnt2Crd estimator keeps no pool estimate
    and must route to its fallback instead of collapsing to a spurious 0.
    """

    name = "zero-rates"

    def estimate_containment(self, first, second) -> float:
        return 0.0


class OneRatesContainment(ContainmentEstimator):
    """A containment stub rating every pair 1: a Cnt2Crd estimator over it
    answers the median cardinality of the query's bucket."""

    name = "one-rates"

    def estimate_containment(self, first, second) -> float:
        return 1.0


def constant_estimator(value, queries, containment=None) -> Cnt2CrdEstimator:
    """A Cnt2Crd estimator answering ``value`` for each query that shares a
    FROM clause with one of ``queries``.

    The service serves only Cnt2Crd estimators, so this is how a test serves
    a recognizable answer: the pool holds ``queries``, each labelled
    ``value``, and ``containment`` (a :class:`OneRatesContainment` unless
    given) rates every pair 1, so every pool estimate is ``1 / 1 * value``.
    """
    pool = QueriesPool(PoolEntry(query, value) for query in queries)
    return Cnt2CrdEstimator(containment or OneRatesContainment(), pool)


def scored_bits(estimator, query) -> tuple[bytes, bytes]:
    """``query``'s rates against its bucket and its per-entry estimate values.

    The rates come from one ``rates_against_pools`` call over
    ``estimator.resolve(query)``, the values from ``estimator.slab_values``;
    both as raw float64 bytes, so two estimators compare bit for bit (NaN
    included).
    """
    slab = estimator.resolve(query)
    rates = np.empty(0)
    if slab.entries:
        rates = estimator.containment_estimator.rates_against_pools([(query, slab)])[0]
    [(_, values)], _ = estimator.slab_values([query])
    return np.asarray(rates, dtype=np.float64).tobytes(), values.tobytes()


def resolved_slabs(stack) -> list:
    """Every signature's slab, in ``repr`` order of the signatures."""
    pool = stack.estimator.pool_index.pool
    return [
        stack.estimator.pool_index.resolve(pool.bucket_snapshot(signature)[0][0].query)
        for signature in sorted(pool.from_signatures(), key=repr)
    ]


def slab_bytes(stack) -> list[tuple]:
    """Every signature's slab as comparable bytes: entries, cardinalities, rows."""
    return [
        (slab.entries, slab.cardinalities.tobytes(), slab.first.tobytes(), slab.second.tobytes())
        for slab in resolved_slabs(stack)
    ]


def build_service(
    model, featurizer, pool, fallback_estimator=None, **sections
) -> EstimationService:
    """The service of a client-wired stack, for tests that drive it directly."""
    config = ServingConfig(
        model=model,
        featurizer=featurizer,
        pool=pool,
        fallback_estimator=fallback_estimator,
        **sections,
    )
    return build_service_stack(config).service


#: The synthetic IMDb's fact tables: the generator joins them only through
#: ``title``, so no pool holds a FROM clause of two of them without it.
FACT_TABLES = (
    ("movie_companies", "mc"),
    ("cast_info", "ci"),
    ("movie_info", "mi"),
    ("movie_info_idx", "mi_idx"),
    ("movie_keyword", "mk"),
)


def unpooled_queries(pool, shard, count=1, num_workers=2):
    """``count`` queries of two fact tables whose FROM-signatures no bucket of
    ``pool`` holds and that a cluster of ``num_workers`` routes to ``shard``
    (by content hash, as it routes every unpooled signature): only the
    fallback answers them.  Aliases vary when the pairs run out."""
    found = []
    for round_ in itertools.count():
        tag = str(round_) if round_ else ""
        for (first, a), (second, b) in itertools.combinations(FACT_TABLES, 2):
            query = QueryBuilder().table(first, a + tag).table(second, b + tag).build()
            signature = query.from_signature()
            if not pool.has_match(query) and stable_shard(signature, num_workers) == shard:
                found.append(query)
                if len(found) == count:
                    return found


def assert_cluster_drained_cleanly(client, crashed_shards=()) -> None:
    """After a cluster client's shutdown: every worker exited by itself.

    A drained worker leaves its serving loop and exits 0 on its own; the
    supervisor reaching ``terminate()`` (counted in ``cluster_drain_timeouts``)
    means a drain timeout fired in a normal run, which is a bug.  Shards a
    test killed on purpose and left dead are named in ``crashed_shards``.
    """
    supervisor = client.supervisor
    assert supervisor.stats_snapshot()["cluster_drain_timeouts"] == 0.0
    for worker in supervisor.status()["workers"]:
        assert not worker["alive"], worker
        if worker["shard"] not in crashed_shards:
            assert worker["exitcode"] == 0, worker


@pytest.fixture(scope="session")
def imdb_small() -> Database:
    """A small (fast to build) synthetic IMDb snapshot shared by the test session."""
    return build_synthetic_imdb(SyntheticIMDbConfig(num_titles=300, seed=3))


@pytest.fixture(scope="session")
def imdb_oracle(imdb_small: Database) -> TrueCardinalityOracle:
    """A shared memoizing oracle over the small synthetic IMDb."""
    return TrueCardinalityOracle(imdb_small)


@pytest.fixture(scope="session")
def imdb_featurizer(imdb_small: Database) -> QueryFeaturizer:
    """A shared CRN featurizer over the small synthetic IMDb."""
    return QueryFeaturizer(imdb_small)
