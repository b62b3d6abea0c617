"""End-to-end tests of the sharded serving cluster against a live 2-worker run.

The contract under test is the tentpole's: ``ServingClient`` with
``cluster.mode = "cluster"`` serves the *same* API with the *same* bits —
estimates bit-identical to local mode in reference (float64) inference,
the same error taxonomy (worker-side exceptions cross the wire as the same
classes with the worker's message), deterministic fan-out/reassembly for
``estimate_many``, and bounded typed failure instead of hangs.

One module-scoped cluster (2 workers over the synthetic IMDb pool) backs
the serving tests; drain/restart get their own function-scoped clusters so
they can break workers without poisoning the shared one.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import PostgresCardinalityEstimator
from repro.core import CRNConfig, CRNModel, QueriesPool
from repro.core.estimators import CardinalityEstimator
from repro.core.queries_pool import PoolEntry
from repro.cluster import protocol
from repro.cluster.worker import (
    assign_shards,
    slice_pool,
    stable_shard,
    worker_source,
)
from repro.datasets import build_queries_pool_queries
from repro.serving import (
    ClusterConfig,
    DeadlineExceededError,
    NoMatchingPoolQueryError,
    RequestOptions,
    ServingClient,
    ServingConfig,
    ServingError,
    WorkerUnavailableError,
)
from repro.serving.config import AdaptationConfig, DispatcherConfig, FeedbackConfig
from repro.serving.errors import ArtifactChecksumError
from repro.sql.builder import QueryBuilder
from tests.conftest import assert_cluster_drained_cleanly, unpooled_queries


class ChecksumRaisingEstimator(CardinalityEstimator):
    """A stub that fails exactly like a corrupt-slab boot would."""

    name = "poisoned"

    def estimate_cardinality(self, query) -> float:
        raise ArtifactChecksumError("slab digest mismatch inside the shard worker")


class DeadlineRaisingEstimator(CardinalityEstimator):
    """A stub that raises the dispatcher's deadline error with a known message."""

    name = "strict"

    def estimate_cardinality(self, query) -> float:
        raise DeadlineExceededError("worker-side deadline expired after 0.007s")


class SleepyEstimator(CardinalityEstimator):
    """A stub slower than any test deadline — forces the router's budget.

    It holds the request on a gate the test opens once the deadline error
    is in hand.  The gate is a ``multiprocessing.Event`` so the worker
    processes (forked from this one) share it; the 30 s bound only keeps a
    test bug from hanging the drain, which waits for in-flight requests.
    """

    name = "sleepy"

    def __init__(self) -> None:
        self.release = multiprocessing.get_context("fork").Event()

    def estimate_cardinality(self, query) -> float:
        self.release.wait(30.0)
        return 1.0


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


def make_config(model, imdb_small, imdb_featurizer, pool, **overrides):
    defaults = dict(
        model=model,
        featurizer=imdb_featurizer,
        pool=pool,
        fallback_estimator=PostgresCardinalityEstimator(imdb_small),
    )
    defaults.update(overrides)
    return ServingConfig(**defaults)


def unmatched_query():
    # Two fact tables without title never appear in the generated pool.
    return (
        QueryBuilder().table("movie_companies", "mc").table("movie_keyword", "mk").build()
    )


def fact_pair(first, second):
    """A FROM clause of two fact tables, as an unfiltered query."""
    return QueryBuilder().table(*first).table(*second).build()


#: Unpooled FROM clauses the shared cluster's fallback answers with a stub.
POISONED = fact_pair(("movie_companies", "mc"), ("movie_info", "mi"))
STRICT = fact_pair(("cast_info", "ci"), ("movie_info_idx", "mi_idx"))
SLEEPY = fact_pair(("movie_info", "mi"), ("movie_keyword", "mk"))


class ScriptedFallback(CardinalityEstimator):
    """The shared cluster's fallback: PostgreSQL's estimate, except for the
    FROM clauses :data:`POISONED`, :data:`STRICT` and :data:`SLEEPY`, which
    its stubs answer.  Forked with the config into every worker."""

    name = "scripted"

    def __init__(self, postgres: CardinalityEstimator) -> None:
        self.postgres = postgres
        self.sleepy = SleepyEstimator()
        self.stubs = {
            POISONED.from_signature(): ChecksumRaisingEstimator(),
            STRICT.from_signature(): DeadlineRaisingEstimator(),
            SLEEPY.from_signature(): self.sleepy,
        }

    def estimate_cardinality(self, query) -> float:
        stub = self.stubs.get(query.from_signature(), self.postgres)
        return stub.estimate_cardinality(query)


@pytest.fixture(scope="module")
def local_client(model, imdb_small, imdb_featurizer, pool):
    """The single-process reference every cluster answer is compared against."""
    return ServingClient(make_config(model, imdb_small, imdb_featurizer, pool))


@pytest.fixture(scope="module")
def cluster_client(model, imdb_small, imdb_featurizer, pool):
    """One live 2-worker cluster shared by the read-only serving tests."""
    assert not any(pool.has_match(query) for query in (POISONED, STRICT, SLEEPY))
    config = make_config(
        model,
        imdb_small,
        imdb_featurizer,
        pool,
        fallback_estimator=ScriptedFallback(PostgresCardinalityEstimator(imdb_small)),
        cluster=ClusterConfig(mode="cluster", num_workers=2),
    )
    with ServingClient(config) as client:
        yield client
    assert_cluster_drained_cleanly(client)


@pytest.fixture(scope="module")
def bare_cluster_client(model, imdb_small, imdb_featurizer, pool):
    """A 2-worker cluster with no fallback: an unmatched query raises."""
    config = make_config(
        model,
        imdb_small,
        imdb_featurizer,
        pool,
        fallback_estimator=None,
        cluster=ClusterConfig(mode="cluster", num_workers=2),
    )
    with ServingClient(config) as client:
        yield client
    assert_cluster_drained_cleanly(client)


class TestClusterTimings:
    def test_fixed_timings_are_module_constants_at_their_old_defaults(self):
        from repro.cluster import router, supervisor

        assert supervisor.CONNECT_TIMEOUT_SECONDS == 5.0
        assert router.CONNECT_TIMEOUT_SECONDS is supervisor.CONNECT_TIMEOUT_SECONDS
        assert router.RETRY_BACKOFF_SECONDS == 0.05
        assert router.DEADLINE_GRACE_SECONDS == 0.5

    @pytest.mark.parametrize(
        "key", ["connect_timeout_seconds", "retry_backoff_seconds", "deadline_grace_seconds"]
    )
    def test_a_config_mapping_naming_a_retired_timing_is_refused(
        self, model, imdb_small, imdb_featurizer, pool, key
    ):
        # A live mapping is not upgraded: only a saved bundle's config goes
        # through upgrade_saved_config, which drops these keys.
        with pytest.raises(ValueError, match=key):
            ServingConfig.from_mapping(
                {"cluster": {key: 1.0}},
                model=model,
                featurizer=imdb_featurizer,
                pool=pool,
            )


class TestClusterConfigValidation:
    def test_mode_and_bounds_are_validated(self):
        with pytest.raises(ValueError, match="mode"):
            ClusterConfig(mode="distributed")
        with pytest.raises(ValueError, match="num_workers"):
            ClusterConfig(num_workers=0)
        with pytest.raises(ValueError, match="retry_attempts"):
            ClusterConfig(retry_attempts=-1)
        with pytest.raises(ValueError, match="request_timeout_seconds"):
            ClusterConfig(request_timeout_seconds=0.0)

    def test_cluster_mode_forbids_in_process_feedback_loops(
        self, model, imdb_small, imdb_featurizer, pool
    ):
        with pytest.raises(ValueError, match="feedback"):
            make_config(
                model, imdb_small, imdb_featurizer, pool,
                feedback=FeedbackConfig(enabled=True),
                cluster=ClusterConfig(mode="cluster"),
            )
        with pytest.raises(ValueError, match="adaptation"):
            make_config(
                model, imdb_small, imdb_featurizer, pool,
                feedback=FeedbackConfig(enabled=True),
                adaptation=AdaptationConfig(enabled=True),
                cluster=ClusterConfig(mode="cluster"),
            )

    def test_cluster_section_round_trips_through_mapping(
        self, model, imdb_small, imdb_featurizer, pool
    ):
        config = make_config(
            model, imdb_small, imdb_featurizer, pool,
            cluster=ClusterConfig(num_workers=3, retry_attempts=4),
        )
        mapping = config.to_mapping()
        assert mapping["cluster"]["num_workers"] == 3
        rebuilt = ServingConfig.from_mapping(
            mapping,
            model=model,
            featurizer=imdb_featurizer,
            pool=pool,
        )
        assert rebuilt.cluster == config.cluster

    def test_unknown_cluster_field_is_rejected(
        self, model, imdb_small, imdb_featurizer, pool
    ):
        mapping = make_config(model, imdb_small, imdb_featurizer, pool).to_mapping()
        mapping["cluster"]["replicas"] = 2
        with pytest.raises(ValueError, match="replicas"):
            ServingConfig.from_mapping(
                mapping, model=model, featurizer=imdb_featurizer, pool=pool
            )


class TestShardingHelpers:
    def test_assignment_is_deterministic_and_balanced(self, pool):
        signatures = pool.from_signatures()
        assignment = assign_shards(signatures, 4)
        again = assign_shards(list(reversed(list(signatures))), 4)
        assert assignment == again  # input order is irrelevant
        counts = [list(assignment.values()).count(shard) for shard in range(4)]
        assert max(counts) - min(counts) <= 1

    def test_stable_shard_is_in_range_and_content_addressed(self, pool):
        for signature in pool.from_signatures():
            shard = stable_shard(signature, 3)
            assert 0 <= shard < 3
            assert shard == stable_shard(tuple(signature), 3)

    def test_slice_pool_partitions_the_pool_exactly(self, pool):
        assignment = assign_shards(pool.from_signatures(), 2)
        slices = []
        for shard in range(2):
            owned = sorted(s for s, w in assignment.items() if w == shard)
            slices.append(slice_pool(pool, owned))
        assert sum(len(s) for s in slices) == len(pool)
        # Each slice's buckets are entry-for-entry the full pool's buckets.
        for shard_pool in slices:
            for signature in shard_pool.from_signatures():
                sliced, _ = shard_pool.bucket_snapshot(signature)
                full, _ = pool.bucket_snapshot(signature)
                assert [e.query for e in sliced] == [e.query for e in full]
                assert [e.cardinality for e in sliced] == [e.cardinality for e in full]

    def test_worker_source_names_each_lifetime(self):
        assert worker_source(0, 0, 1) == "worker-0@gen1"
        assert worker_source(3, 0, 7) == "worker-3@gen7"
        assert worker_source(1, 2, 7) == "worker-1r2@gen7"


class TestBitIdentity:
    def test_every_workload_query_matches_local_mode_exactly(
        self, cluster_client, local_client, workload
    ):
        for query in workload:
            local = local_client.estimate(query)
            clustered = cluster_client.estimate(query)
            assert clustered.estimate == local.estimate
            assert clustered.estimate.hex() == local.estimate.hex()
            assert clustered.estimator_name == local.estimator_name
            assert clustered.resolution == local.resolution
            assert clustered.pool_matches == local.pool_matches
            assert clustered.pairs_scored == local.pairs_scored
            assert clustered.used_fallback == local.used_fallback

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_random_batches_match_local_mode_exactly(
        self, cluster_client, local_client, workload, data
    ):
        indices = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=len(workload) - 1),
                min_size=1,
                max_size=10,
            )
        )
        batch = [workload[i] for i in indices]
        local = local_client.estimate_many(batch)
        clustered = cluster_client.estimate_many(batch)
        assert [r.estimate.hex() for r in clustered] == [
            r.estimate.hex() for r in local
        ]


class TestFanOut:
    def test_estimate_many_reassembles_in_caller_order(
        self, cluster_client, workload
    ):
        batch = list(workload) + list(reversed(workload))
        results = cluster_client.estimate_many(batch)
        assert len(results) == len(batch)
        for query, result in zip(batch, results, strict=True):
            assert result.query is query  # the router re-attaches the original

    def test_batch_spans_both_shards(self, cluster_client, workload):
        shards = {cluster_client.router.shard_for(query) for query in workload}
        assert shards == {0, 1}  # the workload genuinely exercises fan-out

    def test_futures_resolve_concurrently(self, cluster_client, workload):
        futures = [cluster_client.estimate_future(query) for query in workload[:6]]
        results = [future.result(timeout=30) for future in futures]
        assert [r.query for r in results] == workload[:6]

    def test_one_bad_query_fails_the_whole_batch(self, bare_cluster_client, workload):
        batch = [workload[0], unmatched_query(), workload[1]]
        with pytest.raises(NoMatchingPoolQueryError):
            bare_cluster_client.estimate_many(batch)


class TestProvenance:
    def test_tags_and_generation_cross_the_wire(self, cluster_client, workload):
        options = RequestOptions(tags={"trace": "t-42", "tenant": "acme"})
        result = cluster_client.estimate(workload[0], options=options)
        assert result.tags == (("tenant", "acme"), ("trace", "t-42"))
        assert result.model_generation == 1
        untagged = cluster_client.estimate(workload[0])
        assert untagged.tags == ()

    def test_merged_stats_expose_the_cluster_gauges(self, cluster_client, workload):
        cluster_client.estimate(workload[0])
        stats = cluster_client.stats()
        assert stats["cluster_workers"] == 2.0
        assert stats["cluster_workers_ready"] == 2.0
        assert stats["cluster_requests_routed"] >= 1.0
        assert stats["cluster_signatures"] > 0


class TestErrorFidelity:
    """Worker-side exceptions surface as the same class, message preserved."""

    def test_artifact_checksum_error_crosses_as_itself(
        self, cluster_client, workload
    ):
        with pytest.raises(ArtifactChecksumError) as excinfo:
            cluster_client.estimate(POISONED)
        assert str(excinfo.value) == "slab digest mismatch inside the shard worker"

    def test_deadline_error_crosses_as_itself_with_worker_message(
        self, cluster_client, workload
    ):
        with pytest.raises(DeadlineExceededError) as excinfo:
            cluster_client.estimate(STRICT)
        assert isinstance(excinfo.value, TimeoutError)
        assert str(excinfo.value) == "worker-side deadline expired after 0.007s"

    def test_no_matching_pool_query_keeps_local_path_fidelity(
        self, bare_cluster_client, model, imdb_small, imdb_featurizer, pool
    ):
        query = unmatched_query()
        local_client = ServingClient(
            make_config(model, imdb_small, imdb_featurizer, pool, fallback_estimator=None)
        )
        with pytest.raises(NoMatchingPoolQueryError) as clustered:
            bare_cluster_client.estimate(query)
        with pytest.raises(NoMatchingPoolQueryError) as local:
            local_client.estimate(query)
        assert str(clustered.value) == str(local.value)
        assert "has no fallback estimator" in str(local.value)

    def test_fallback_reroutes_inside_the_worker(
        self, cluster_client, local_client
    ):
        query = unmatched_query()
        clustered = cluster_client.estimate(query)
        local = local_client.estimate(query)
        assert clustered.used_fallback and local.used_fallback
        assert clustered.estimate == local.estimate

    def test_slow_worker_fails_typed_within_the_deadline_budget(
        self, cluster_client, workload
    ):
        sleepy = cluster_client.config.fallback_estimator.sleepy
        started = time.monotonic()
        try:
            with pytest.raises(DeadlineExceededError):
                cluster_client.estimate(SLEEPY, options=RequestOptions(timeout_seconds=0.2))
            # 0.2s deadline + grace while the worker still holds the request:
            # the budget answered, not the stub (and never a hang).
            assert time.monotonic() - started < 4.0
        finally:
            sleepy.release.set()  # let the held request finish; drain waits on it


class TestClientSurface:
    def test_unstarted_cluster_client_refuses_requests(
        self, model, imdb_small, imdb_featurizer, pool, workload
    ):
        client = ServingClient(
            make_config(
                model, imdb_small, imdb_featurizer, pool,
                cluster=ClusterConfig(mode="cluster", num_workers=2),
            )
        )
        with pytest.raises(ServingError, match="started"):
            client.estimate(workload[0])
        with pytest.raises(ServingError, match="started"):
            client.estimate_many(workload[:2])
        client.shutdown()  # never started: a clean no-op

    def test_warm_is_a_no_op_in_cluster_mode(self, cluster_client):
        cluster_client.warm()  # workers warmed their slices at boot


class TestDrainRestartStatus:
    @pytest.fixture()
    def small_cluster(self, model, imdb_small, imdb_featurizer, pool, tmp_path):
        config = make_config(
            model, imdb_small, imdb_featurizer, pool,
            cluster=ClusterConfig(
                mode="cluster", num_workers=2, runtime_dir=str(tmp_path)
            ),
        )
        with ServingClient(config) as client:
            yield client
        assert_cluster_drained_cleanly(client)

    def test_status_reports_every_shard(self, small_cluster):
        status = small_cluster.supervisor.status(probe=True)
        assert status["num_workers"] == 2
        assert [w["shard"] for w in status["workers"]] == [0, 1]
        for worker in status["workers"]:
            assert worker["state"] == "ready"
            assert worker["alive"]
            assert worker["healthy"]
            assert worker["generation"] == 1

    def test_runtime_file_tracks_the_cluster(self, small_cluster, tmp_path):
        import json

        runtime = json.loads((tmp_path / "cluster.json").read_text())
        assert runtime["schema_version"] == 1
        assert runtime["control"] is not None
        assert len(runtime["status"]["workers"]) == 2

    def test_drained_shard_fails_typed_and_the_other_keeps_serving(
        self, small_cluster, workload
    ):
        by_shard = {}
        for query in workload:
            by_shard.setdefault(small_cluster.router.shard_for(query), query)
        small_cluster.supervisor.drain(0)
        with pytest.raises(WorkerUnavailableError, match="drained"):
            small_cluster.estimate(by_shard[0])
        surviving = small_cluster.estimate(by_shard[1])
        assert surviving.estimate > 0 or surviving.used_fallback is not None

    def test_operator_restart_serves_identically(self, small_cluster, workload):
        query = next(
            q for q in workload if small_cluster.router.shard_for(q) == 1
        )
        before = small_cluster.estimate(query)
        status = small_cluster.supervisor.restart(1)
        restarted = next(w for w in status["workers"] if w["shard"] == 1)
        assert restarted["state"] == "ready"
        after = small_cluster.estimate(query)
        assert after.estimate.hex() == before.estimate.hex()

    def test_idle_cluster_shutdown_joins_workers_without_terminating(
        self, model, imdb_small, imdb_featurizer, pool, workload, monkeypatch
    ):
        # Graceful drain must actually work: each worker leaves accept(),
        # acks, and exits 0 by itself, so the supervisor's join returns on
        # the worker's exit and the terminate() fallback is never reached.
        terminated: list[str] = []
        monkeypatch.setattr(
            multiprocessing.process.BaseProcess,
            "terminate",
            lambda process: terminated.append(process.name),
        )
        config = make_config(
            model, imdb_small, imdb_featurizer, pool,
            cluster=ClusterConfig(mode="cluster", num_workers=2),
        )
        client = ServingClient.start(config)
        assert client.estimate(workload[0]) is not None
        control_thread = client.supervisor._control_thread
        started = time.monotonic()
        client.shutdown()
        elapsed = time.monotonic() - started
        assert terminated == []
        # The supervisor's own control acceptor is woken the same way.
        control_thread.join(timeout=5)
        assert not control_thread.is_alive()
        assert_cluster_drained_cleanly(client)
        assert client.stats()["cluster_drain_timeouts"] == 0.0
        # Two joins that each had to sit out the drain timeout would take
        # 2 x drain_timeout_seconds; a real drain is far inside one.
        assert elapsed < config.cluster.drain_timeout_seconds


# ---------------------------------------------------------------------- #
# the blocking router: pooled connections on the caller's thread


class GateEstimator(CardinalityEstimator):
    """Holds callers on a gate and counts them, in every worker of the fork.

    The answer is the wrapped estimator's, so a gated request still has
    local-mode bits to compare against.  All state is shared memory: the
    test process reads what the worker processes counted.
    """

    name = "gated"

    def __init__(self, delegate: CardinalityEstimator, hold: bool = True) -> None:
        context = multiprocessing.get_context("fork")
        self.delegate = delegate
        self.release = context.Event()
        if not hold:
            self.release.set()
        self.inside = context.Value("i", 0)
        self.peak = context.Value("i", 0)

    def estimate_cardinality(self, query) -> float:
        with self.inside.get_lock():  # also guards ``peak``
            self.inside.value += 1
            self.peak.value = max(self.peak.value, self.inside.value)
        try:
            self.release.wait(30.0)  # bounds a test bug, as in SleepyEstimator
            return self.delegate.estimate_cardinality(query)
        finally:
            with self.inside.get_lock():
                self.inside.value -= 1


class OrderedFailureEstimator(CardinalityEstimator):
    """Fails on every shard, the higher shard strictly first on the clock.

    A worker serving one of ``lower_signatures`` waits until the other
    worker has raised before it raises itself (the event is shared across
    the fork; the 10 s bound only keeps a sequential router from hanging).
    """

    name = "ordered-failure"

    def __init__(self, lower_signatures) -> None:
        self.lower_signatures = frozenset(lower_signatures)
        self.higher_failed = multiprocessing.get_context("fork").Event()

    def estimate_cardinality(self, query) -> float:
        if query.from_signature() in self.lower_signatures:
            self.higher_failed.wait(10.0)
            raise ServingError("the lower shard failed last")
        self.higher_failed.set()
        raise ServingError("the higher shard failed first")


def wait_until(condition, what, timeout=20.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.005)


def queries_on_shard(client, workload, shard):
    return [q for q in workload if client.router.shard_for(q) == shard]


class TestBlockingRouter:
    @pytest.fixture()
    def start_cluster(self, model, imdb_small, imdb_featurizer, pool):
        """Boot clusters on demand; shut each down and check its drain."""
        clients = []

        def start(*, fallback, dispatcher=True, **cluster):
            config = make_config(
                model, imdb_small, imdb_featurizer, pool,
                fallback_estimator=fallback,
                dispatcher=DispatcherConfig(enabled=dispatcher),
                cluster=ClusterConfig(mode="cluster", num_workers=2, **cluster),
            )
            clients.append(ServingClient.start(config))
            return clients[-1]

        yield start
        for client in clients:
            fallback = client.config.fallback_estimator
            if hasattr(fallback, "release"):
                fallback.release.set()  # a drain waits on held requests
            client.shutdown()
            assert_cluster_drained_cleanly(client)

    @pytest.fixture()
    def connections(self, monkeypatch):
        """Every ``protocol.Connection`` opened during the test, in order: the
        router's, and the supervisor's probe and drain round trips."""
        opened = []

        class Recorded(protocol.Connection):
            closed = False

            def __init__(self, *args) -> None:
                super().__init__(*args)
                opened.append(self)

            def close(self) -> None:
                super().close()
                self.closed = True

        monkeypatch.setattr(protocol, "Connection", Recorded)
        return opened

    def test_timed_out_connection_is_closed_not_pooled(
        self, start_cluster, connections, local_client, pool, workload
    ):
        # A late reply left on a pooled connection would answer the next
        # caller.  The first request runs out of the *router's* budget (it
        # carries no caller deadline for the worker to enforce) while the
        # worker still holds it; the worker then finishes and replies late.
        sleepy = SleepyEstimator()
        client = start_cluster(fallback=sleepy, request_timeout_seconds=0.3)
        (held,) = unpooled_queries(pool, 0)
        other = queries_on_shard(client, workload, 0)[0]

        def served(shard=0):
            status = client.supervisor.status(probe=True)
            return status["workers"][shard]["health_requests"]

        before = served()
        connections.clear()  # the health probes connect too
        with pytest.raises(DeadlineExceededError, match="not answered within 0.300s"):
            client.estimate(held)
        (timed_out,) = connections
        assert timed_out.closed
        sleepy.release.set()
        wait_until(lambda: served() > before, "the held request to finish")
        connections.clear()
        # Its own deadline keeps the follow-up off the 0.3 s router budget.
        answer = client.estimate(other, RequestOptions(timeout_seconds=20.0))
        assert answer.query is other
        assert answer.estimate.hex() == local_client.estimate(other).estimate.hex()
        (fresh,) = connections  # opened for this request: nothing was pooled
        assert not fresh.closed

    def test_lost_connection_drops_every_idle_connection_of_its_shard(
        self, start_cluster, connections, imdb_small, pool
    ):
        # Three stale sockets to a restarted worker must cost one retry, not
        # the whole retry budget one socket at a time.
        gated = GateEstimator(PostgresCardinalityEstimator(imdb_small))
        client = start_cluster(fallback=gated, dispatcher=False, worker_threads=4)
        (query,) = unpooled_queries(pool, 1)
        futures = [client.estimate_future(query) for _ in range(3)]
        wait_until(lambda: gated.inside.value == 3, "three requests in flight")
        gated.release.set()
        assert len({future.result(timeout=30).estimate for future in futures}) == 1
        assert len(connections) == 3 and not any(c.closed for c in connections)

        before = client.estimate(query)
        retries = client.stats()["cluster_retries"]
        client.supervisor.restart(1)
        after = client.estimate(query)
        assert after.estimate.hex() == before.estimate.hex()
        assert client.stats()["cluster_retries"] == retries + 1
        assert all(connection.closed for connection in connections[:3])
        assert not connections[-1].closed  # the retry's fresh connection, pooled

    def test_estimate_many_raises_the_lowest_failing_shards_error(self, start_cluster, pool):
        (lower,) = unpooled_queries(pool, 0)
        (higher,) = unpooled_queries(pool, 1)
        failing = OrderedFailureEstimator([lower.from_signature()])
        client = start_cluster(fallback=failing)
        batch = [higher, lower]
        started = time.monotonic()
        with pytest.raises(ServingError, match="the lower shard failed last"):
            client.estimate_many(batch)
        # Both frames were written before either reply was read: shard 0 saw
        # shard 1 fail instead of sitting out its 10 s bound.
        assert failing.higher_failed.is_set()
        assert time.monotonic() - started < 5.0

    def test_stop_resolves_an_in_flight_future_and_closes_every_socket(
        self, start_cluster, connections, imdb_small, pool, workload
    ):
        gated = GateEstimator(PostgresCardinalityEstimator(imdb_small))
        client = start_cluster(fallback=gated)
        warm = client.estimate(workload[0])  # leaves one idle pooled connection
        assert warm is not None
        (held,) = unpooled_queries(pool, 0)
        future = client.estimate_future(held, RequestOptions(timeout_seconds=0.3))
        wait_until(lambda: gated.inside.value == 1, "the request to be in flight")
        started = time.monotonic()
        client.router.stop()
        # The held request's budget is 0.3 s + grace; the gate holds for 30 s.
        assert time.monotonic() - started < 5.0
        assert future.done()
        assert isinstance(future.exception(), DeadlineExceededError)
        assert connections and all(connection.closed for connection in connections)
        with pytest.raises(ServingError, match="not running"):
            client.router.estimate(workload[0])

    def test_worker_serves_a_lone_request_on_its_connection_thread(
        self, start_cluster, monkeypatch, imdb_small, local_client, pool, workload
    ):
        # An idle worker dispatcher serves a routed estimate inline: a batch
        # of one on the connection thread, so its queue wait is exactly 0.
        # A request arriving while one is held there enqueues (counted in
        # shared memory: the forked workers inherit the patch) and is served
        # after it, never beside it.
        from repro.serving import ServingDispatcher

        enqueued = multiprocessing.get_context("fork").Value("i", 0)
        submit = ServingDispatcher.submit

        def counting_submit(self, *args, **kwargs):
            future = submit(self, *args, **kwargs)
            with enqueued.get_lock():
                enqueued.value += 1
            return future

        monkeypatch.setattr(ServingDispatcher, "submit", counting_submit)
        gated = GateEstimator(PostgresCardinalityEstimator(imdb_small))
        client = start_cluster(fallback=gated)
        for query in queries_on_shard(client, workload, 0)[:2]:
            answer = client.estimate(query)
            assert answer.queue_wait_seconds == 0.0
            assert answer.estimate.hex() == local_client.estimate(query).estimate.hex()
        assert enqueued.value == 0

        first, second = unpooled_queries(pool, 0, count=2)
        held = client.estimate_future(first)
        wait_until(lambda: gated.inside.value == 1, "the held request to be in flight")
        behind = client.estimate_future(second)
        wait_until(lambda: enqueued.value == 1, "the second request to enqueue")
        gated.release.set()
        assert held.result(timeout=30).queue_wait_seconds == 0.0
        assert behind.result(timeout=30).queue_wait_seconds > 0.0
        assert gated.peak.value == 1

    def test_concurrent_callers_get_local_bits_within_the_handler_bound(
        self, start_cluster, model, imdb_small, imdb_featurizer, pool, workload
    ):
        delegate = PostgresCardinalityEstimator(imdb_small)
        gated = GateEstimator(delegate)
        client = start_cluster(fallback=gated, dispatcher=False, worker_threads=2)
        reference = ServingClient(
            make_config(
                model, imdb_small, imdb_featurizer, pool,
                fallback_estimator=GateEstimator(delegate, hold=False),
            )
        )
        gated_queries = unpooled_queries(pool, 0, count=4)
        queries = [gated_queries[k % len(gated_queries)] for k in range(8)]
        shard_queries = queries_on_shard(client, workload, 0)
        answers: list = [None] * len(queries)
        follow_ups = 5

        def call(position):
            answers[position] = client.estimate(queries[position])
            for _ in range(follow_ups):  # plain requests, through the pool
                client.estimate(shard_queries[position % len(shard_queries)])

        routed = client.stats()["cluster_requests_routed"]
        threads = [
            threading.Thread(target=call, args=(position,), daemon=True)
            for position in range(len(queries))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            # Two handlers fill the worker; the other six callers wait.
            wait_until(lambda: gated.inside.value == 2, "the handlers to fill")
            gated.release.set()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert gated.peak.value == 2  # worker_threads, never more
        for query, answer in zip(queries, answers, strict=True):
            expected = reference.estimate(query)
            assert answer.estimate.hex() == expected.estimate.hex()
        # A lost counter update would show here.
        served = len(queries) * (1 + follow_ups)
        assert client.stats()["cluster_requests_routed"] == routed + served


def test_cluster_package_never_imports_asyncio():
    # In a subprocess: pytest and hypothesis may have imported it here.
    code = (
        "import repro.cluster.router, repro.cluster.worker, "
        "repro.cluster.supervisor, sys; "
        "assert 'asyncio' not in sys.modules"
    )
    source = Path(__file__).resolve().parent.parent / "src"
    completed = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(source)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
