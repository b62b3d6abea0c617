"""End-to-end tracing: the accounting identity under concurrent coalesced
load and a live model swap, the queue-wait provenance, the histogram-vs-store
quantile agreement, and the trace report tool."""

from __future__ import annotations

import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.baselines import PostgresCardinalityEstimator
from repro.core import CRNConfig, QueriesPool, TrainingConfig, train_crn
from repro.datasets import build_queries_pool_queries, build_training_pairs
from repro.observability import EventStore
from repro.observability.histogram import DEFAULT_GROWTH
from repro.serving import (
    AdaptationConfig,
    DispatcherConfig,
    FeedbackConfig,
    ObservabilityConfig,
    ServingClient,
    ServingConfig,
    TracingConfig,
)

REPORT_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "trace_report.py"


@pytest.fixture(scope="module")
def trained(request):
    imdb_small = request.getfixturevalue("imdb_small")
    imdb_featurizer = request.getfixturevalue("imdb_featurizer")
    imdb_oracle = request.getfixturevalue("imdb_oracle")
    pairs = build_training_pairs(imdb_small, count=60, seed=12, oracle=imdb_oracle)
    return train_crn(
        imdb_featurizer,
        pairs,
        crn_config=CRNConfig(hidden_size=16, seed=2),
        training_config=TrainingConfig(epochs=3, batch_size=32),
    )


@pytest.fixture(scope="module")
def pool(imdb_small, imdb_oracle):
    labeled = build_queries_pool_queries(imdb_small, count=60, seed=17, oracle=imdb_oracle)
    return QueriesPool.from_labeled_queries(labeled)


@pytest.fixture(scope="module")
def workload(imdb_small, imdb_oracle):
    labeled = build_queries_pool_queries(imdb_small, count=20, seed=23, oracle=imdb_oracle)
    return [item.query for item in labeled]


def test_tracing_requires_observability(trained, pool):
    with pytest.raises(ValueError, match="observability.enabled"):
        ServingConfig(
            model=trained.model,
            featurizer=trained.featurizer,
            pool=pool,
            tracing=TracingConfig(enabled=True),
        )


@pytest.fixture(scope="module")
def traced_episode(trained, imdb_small, pool, workload, tmp_path_factory):
    """One traced serving episode: concurrent coalesced load, a live hot
    swap mid-traffic, everything flushed to a file-backed store."""
    event_db = tmp_path_factory.mktemp("traces") / "events.sqlite"
    config = ServingConfig(
        model=trained.model,
        featurizer=trained.featurizer,
        pool=pool,
        fallback_estimator=PostgresCardinalityEstimator(imdb_small),
        training_result=trained,
        database=imdb_small,
        dispatcher=DispatcherConfig(enabled=True, max_batch=8),
        feedback=FeedbackConfig(enabled=True, max_observations=64),
        observability=ObservabilityConfig(
            enabled=True, capacity=1 << 15, sqlite_path=str(event_db)
        ),
        tracing=TracingConfig(enabled=True, sample_every=1),
        adaptation=AdaptationConfig(
            enabled=True,
            cooldown_seconds=0.0,
            poll_interval_seconds=10.0,  # manual trigger only
            training_pairs=40,
            incremental_epochs=2,
            holdout_size=4,
            seed=9,
        ),
    )
    results = []
    results_lock = threading.Lock()
    errors = []

    rounds = 3
    swapped = threading.Event()

    with ServingClient(config) as client:

        def traffic():
            try:
                for round_index in range(rounds):
                    if round_index == rounds - 1:
                        # The last round runs only after the swap has landed,
                        # so post-swap generations are always observed.
                        assert swapped.wait(timeout=180.0), "the swap never landed"
                    futures = [client.estimate_future(q) for q in workload]
                    batch = [f.result(timeout=60.0) for f in futures]
                    with results_lock:
                        results.extend(batch)
            except BaseException as error:  # noqa: BLE001 - asserted below
                errors.append(error)

        threads = [threading.Thread(target=traffic) for _ in range(4)]
        for thread in threads:
            thread.start()
        # A live hot swap while the coalesced load is in flight.
        try:
            outcome = client.trigger_adaptation()
        finally:
            swapped.set()
        for thread in threads:
            thread.join(timeout=180.0)
        assert not any(thread.is_alive() for thread in threads)
        stats = client.stats()
    client.event_store.close()
    assert not errors, f"traffic raised: {errors[0]!r}"
    assert outcome is not None and outcome.swapped, f"no swap: {outcome!r}"
    return {
        "event_db": event_db,
        "results": results,
        "stats": stats,
        "service": client.service,
    }


class TestAccountingIdentity:
    def test_every_stored_trace_accounts_for_its_latency(self, traced_episode):
        with EventStore(str(traced_episode["event_db"])) as store:
            rows = store.trace_accounting()
            assert len(rows) >= 100  # 4 threads x 3 rounds x 20 queries, sampled at 1
            for row in rows:
                latency = row["latency_seconds"]
                assert latency is not None
                amortized = row["amortized_seconds"] or 0.0
                # The identity: the amortized shares of the shared batch
                # spans reconstruct the request's stamped latency exactly
                # (same elapsed/size division, float-exact round trip).
                assert amortized == pytest.approx(latency, rel=1e-9, abs=1e-12)
                # And the root span bounds its own stages + amortized share:
                # queue wait and the batch share happened inside the round
                # trip (scheduling overhead makes the root strictly larger).
                own = row["own_seconds"] or 0.0
                assert row["root_seconds"] >= (own + amortized) * (1 - 1e-6)

    def test_swap_span_and_post_swap_traces_coexist(self, traced_episode):
        with EventStore(str(traced_episode["event_db"])) as store:
            names = {row["name"] for row in store.span_kind_latency()}
            assert "model_swap" in names
            assert "dispatcher_batch" in names
            assert "service_batch" in names
            assert "queue_wait" in names
        generations = {r.model_generation for r in traced_episode["results"]}
        assert len(generations) >= 2, "load never straddled the swap"

    def test_queue_wait_provenance_and_stats(self, traced_episode):
        results = traced_episode["results"]
        assert all(r.queue_wait_seconds >= 0.0 for r in results)
        assert any(r.queue_wait_seconds > 0.0 for r in results)
        stats = traced_episode["stats"]
        for key in ("queue_wait_p50_ms", "queue_wait_p99_ms", "queue_wait_max_ms"):
            assert key in stats and stats[key] >= 0.0
        # Queue wait is bounded by what the dispatcher could have imposed
        # plus real service time; it is NOT part of latency_seconds.
        assert stats["queue_wait_max_ms"] >= stats["queue_wait_p50_ms"]
        for key in ("traces_started", "traces_finished", "traces_kept"):
            assert stats[key] > 0
        assert stats["traces_finished"] == stats["traces_started"]

    def test_histogram_quantiles_track_store_quantiles(self, traced_episode):
        histogram = traced_episode["service"].latency_histogram
        with EventStore(str(traced_episode["event_db"])) as store:
            for q in (0.5, 0.9, 0.99):
                exact = store.latency_quantile(q)
                approx = histogram.quantile(q)
                assert (
                    exact / DEFAULT_GROWTH <= approx <= exact * DEFAULT_GROWTH
                ), f"q={q}: histogram {approx} vs exact {exact}"
        stats = traced_episode["stats"]
        for key in ("latency_p50_ms", "latency_p90_ms", "latency_p99_ms"):
            assert key in stats and stats[key] > 0.0


class TestTraceReportTool:
    def run_report(self, *args):
        return subprocess.run(
            [sys.executable, str(REPORT_SCRIPT), *args],
            capture_output=True,
            text=True,
            timeout=120,
        )

    def test_show_slowest_prints_the_tree_and_critical_path(self, traced_episode):
        store_path = str(traced_episode["event_db"])
        result = self.run_report("show", store_path, "--slowest", "1")
        assert result.returncode == 0, result.stderr
        assert "trace " in result.stdout
        assert "request" in result.stdout
        assert "critical path:" in result.stdout
        assert "amortized" in result.stdout
        with EventStore(store_path) as store:
            slowest = store.slowest_traces(1)[0]
        assert slowest["trace_id"] in result.stdout

    def test_flame_aggregates_by_span_kind(self, traced_episode):
        result = self.run_report("flame", str(traced_episode["event_db"]))
        assert result.returncode == 0, result.stderr
        for name in ("request", "queue_wait", "service_batch", "dispatcher_batch"):
            assert name in result.stdout

    def test_diff_compares_two_stores(self, traced_episode):
        store_path = str(traced_episode["event_db"])
        result = self.run_report("diff", store_path, store_path)
        assert result.returncode == 0, result.stderr
        assert "delta" in result.stdout

    def test_empty_store_exits_nonzero(self, tmp_path):
        empty = tmp_path / "empty.sqlite"
        with EventStore(str(empty)):
            pass
        result = self.run_report("show", str(empty), "--slowest", "1")
        assert result.returncode == 3
        assert "no spans" in result.stderr

    def test_missing_and_malformed_stores_exit_nonzero(self, tmp_path):
        result = self.run_report("show", str(tmp_path / "nope.sqlite"))
        assert result.returncode == 2
        malformed = tmp_path / "garbage.sqlite"
        malformed.write_text("this is not a sqlite database at all")
        result = self.run_report("show", str(malformed))
        assert result.returncode == 2

    def test_unknown_trace_id_exits_nonzero(self, traced_episode):
        result = self.run_report(
            "show", str(traced_episode["event_db"]), "--trace", "no-such-trace"
        )
        assert result.returncode == 2
