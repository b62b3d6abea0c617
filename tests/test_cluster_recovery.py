"""Worker-death recovery: kill ``-9`` a shard, fail typed, restart, same bits.

The robustness acceptance criteria live here.  One cluster boots from a
versioned artifact store whose *promoted* generation is 2 (generation 1
exists but is superseded), with a shared SQLite event store.  The test then
SIGKILLs a worker mid-flight and asserts the whole contract:

* the in-flight request fails with a typed taxonomy error — never a hang;
* the supervisor restarts the shard automatically, and the fresh worker
  boots from the *promoted* artifact generation (2), not a memory image;
* post-restart estimates are bit-identical to pre-kill estimates, with
  ``model_generation`` still stamped 2 — generation provenance is
  continuous across the crash;
* both worker lifetimes coexist in the event store under distinct sources
  (``worker-<shard>@gen2`` then ``worker-<shard>r1@gen2``) — the
  ``(source, sequence)`` dedup merges them instead of swallowing the
  restart.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.artifacts.store import ArtifactStore
from repro.baselines import PostgresCardinalityEstimator
from repro.core import CRNConfig, CRNModel, QueriesPool
from repro.core.estimators import CardinalityEstimator
from repro.datasets import build_queries_pool_queries
from repro.serving import (
    ClusterConfig,
    DeadlineExceededError,
    ServingClient,
    ServingConfig,
    WorkerUnavailableError,
)
from repro.serving.config import ArtifactConfig, ObservabilityConfig
from tests.conftest import assert_cluster_drained_cleanly, unpooled_queries

#: Generous bound for one worker to cold-boot from the artifact store on a
#: loaded single-core CI box.
RESTART_DEADLINE_SECONDS = 120.0


class SleepyEstimator(CardinalityEstimator):
    """Slow enough that a request against it is reliably in flight at kill."""

    name = "sleepy"

    def estimate_cardinality(self, query) -> float:
        time.sleep(5.0)
        return 1.0


@pytest.fixture(scope="module")
def pool(imdb_small, imdb_oracle):
    labeled = build_queries_pool_queries(imdb_small, count=40, seed=17, oracle=imdb_oracle)
    return QueriesPool.from_labeled_queries(labeled)


@pytest.fixture(scope="module")
def workload(imdb_small, imdb_oracle):
    labeled = build_queries_pool_queries(imdb_small, count=12, seed=23, oracle=imdb_oracle)
    return [item.query for item in labeled]


@pytest.fixture(scope="module")
def model(imdb_featurizer):
    return CRNModel(imdb_featurizer.vector_size, CRNConfig(hidden_size=16, seed=5))


@pytest.fixture(scope="module")
def recovery_cluster(model, imdb_small, imdb_featurizer, pool, tmp_path_factory):
    """A 2-worker cluster booted from a store whose promoted generation is 2."""
    root = tmp_path_factory.mktemp("artifacts")
    events = tmp_path_factory.mktemp("events") / "events.sqlite"
    config = ServingConfig(
        model=model,
        featurizer=imdb_featurizer,
        pool=pool,
        fallback_estimator=SleepyEstimator(),
        database=imdb_small,
        artifacts=ArtifactConfig(root=str(root)),
        observability=ObservabilityConfig(
            enabled=True, sqlite_path=str(events), source="front-end"
        ),
        cluster=ClusterConfig(mode="cluster", num_workers=2),
    )
    store = ArtifactStore(str(root))
    mapping = config.to_mapping()
    store.save(
        model=model, pool=pool, config_mapping=mapping,
        generation=1, source="build", promote=True,
    )
    store.save(
        model=model, pool=pool, config_mapping=mapping,
        generation=2, source="promote", promote=True,
    )
    with ServingClient(config) as client:
        yield client
    assert_cluster_drained_cleanly(client)


def shard_worker(client, shard):
    return next(
        worker
        for worker in client.supervisor.status()["workers"]
        if worker["shard"] == shard
    )


def wait_for_restart(client, shard, old_pid):
    deadline = time.monotonic() + RESTART_DEADLINE_SECONDS
    while time.monotonic() < deadline:
        worker = shard_worker(client, shard)
        if worker["state"] == "ready" and worker["pid"] not in (None, old_pid):
            return worker
        time.sleep(0.25)
    pytest.fail(
        f"shard {shard} not restarted within {RESTART_DEADLINE_SECONDS}s: "
        f"{shard_worker(client, shard)}"
    )


def test_kill_dash_nine_recovery_end_to_end(recovery_cluster, pool, workload):
    client = recovery_cluster
    victim_shard = 0
    victim_query = next(
        q for q in workload if client.router.shard_for(q) == victim_shard
    )
    other_query = next(
        q for q in workload if client.router.shard_for(q) == 1 - victim_shard
    )

    # -- before: both shards serve from the promoted generation (2, not 1).
    before = client.estimate(victim_query)
    assert before.model_generation == 2
    worker_before = shard_worker(client, victim_shard)
    assert worker_before["generation"] == 2
    # A probed status doubles as a provenance checkpoint: every worker
    # flushes its recorder, so the first lifetime's events are durable.
    client.supervisor.status(probe=True)

    # -- kill: SIGKILL with a request in flight on the victim shard.
    # Its FROM clause has no pool bucket, so the sleepy fallback holds it.
    (sleepy_query,) = unpooled_queries(pool, victim_shard)
    in_flight = client.estimate_future(sleepy_query)
    time.sleep(0.5)  # let the frame reach the worker's handler
    os.kill(worker_before["pid"], signal.SIGKILL)

    # The in-flight request never hangs and never surfaces an untyped
    # error: either the bounded retries give up while the shard is down
    # (WorkerUnavailableError; DeadlineExceededError if the router's
    # overall budget wins the race), or — on a fast box — a retry lands on
    # the already-restarted worker and the pure-read request just succeeds.
    try:
        retried = in_flight.result(timeout=RESTART_DEADLINE_SECONDS)
    except (WorkerUnavailableError, DeadlineExceededError):
        retried = None
    if retried is not None:
        assert retried.estimate == 1.0  # the sleepy stub's answer

    # Same contract for a request issued during the outage window, and the
    # healthy shard keeps serving throughout.
    try:
        during = client.estimate(victim_query)
    except (WorkerUnavailableError, DeadlineExceededError):
        during = None
    if during is not None:
        assert during.estimate.hex() == before.estimate.hex()
    assert client.estimate(other_query).estimate >= 0.0

    # -- restart: the supervisor re-forks the shard automatically...
    worker_after = wait_for_restart(client, victim_shard, worker_before["pid"])
    # ...and the fresh worker re-read the store and serves the *promoted*
    # generation, not whatever the dead process had in memory.
    assert worker_after["generation"] == 2
    assert worker_after["restarts"] == 1

    # -- after: bit-identical estimates, continuous generation provenance.
    after = client.estimate(victim_query)
    assert after.estimate.hex() == before.estimate.hex()
    assert after.model_generation == 2

    stats = client.stats()
    assert stats["cluster_worker_restarts"] == 1.0
    assert stats["cluster_workers_ready"] == 2.0

    # -- provenance: both lifetimes landed in the shared event store under
    # distinct sources, so neither was swallowed by (source, sequence) dedup.
    client.supervisor.status(probe=True)  # flush the restarted worker too
    sources = {
        row["source"]
        for row in client.event_store.query("SELECT DISTINCT source FROM events")
    }
    assert f"worker-{victim_shard}@gen2" in sources
    assert f"worker-{victim_shard}r1@gen2" in sources


def test_restarts_are_bounded_and_exhaustion_is_typed(
    model, imdb_small, imdb_featurizer, pool, workload
):
    """Past ``max_restarts`` the shard goes failed — typed, not a fork loop."""
    config = ServingConfig(
        model=model,
        featurizer=imdb_featurizer,
        pool=pool,
        fallback_estimator=PostgresCardinalityEstimator(imdb_small),
        cluster=ClusterConfig(mode="cluster", num_workers=2, max_restarts=0),
    )
    with ServingClient(config) as client:
        victim = shard_worker(client, 0)
        victim_query = next(q for q in workload if client.router.shard_for(q) == 0)
        os.kill(victim["pid"], signal.SIGKILL)
        deadline = time.monotonic() + RESTART_DEADLINE_SECONDS
        while time.monotonic() < deadline:
            if shard_worker(client, 0)["state"] == "failed":
                break
            time.sleep(0.1)
        worker = shard_worker(client, 0)
        assert worker["state"] == "failed"
        assert "gave up" in worker["last_error"]
        with pytest.raises(WorkerUnavailableError, match="failed"):
            client.estimate(victim_query)
        # The other shard is untouched by its neighbour's crash loop.
        other_query = next(q for q in workload if client.router.shard_for(q) == 1)
        assert client.estimate(other_query) is not None
    # Shard 0 stayed dead by design; shard 1 still drained and exited cleanly.
    assert_cluster_drained_cleanly(client, crashed_shards=(0,))
