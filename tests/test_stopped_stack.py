"""A stopped stack refuses every entry point that is not read-only.

Both contracts are found by introspection: a public method added to
:class:`ServingClient` or :class:`AdaptationManager` fails
``test_every_public_member_is_classified`` until it is given call arguments
here (then it must refuse once stopped) or put on the read-only allow-list.
Each call is first made on the live object, so a refusal after the stop
cannot come from wrong arguments.  No verdict depends on timing:
``shutdown()`` and ``stop()`` join the threads they own before returning.
"""

from __future__ import annotations

import threading

import pytest

from repro.baselines import PostgresCardinalityEstimator
from repro.core import CRNConfig, QueriesPool, TrainingConfig, train_crn
from repro.datasets import build_queries_pool_queries, build_training_pairs
from repro.serving import (
    AdaptationConfig,
    AdaptationManager,
    FeedbackCollector,
    FeedbackConfig,
    ServingClient,
    ServingConfig,
    ServingError,
    build_service_stack,
)

#: ``ServingClient`` entry points, each with arguments it accepts on an open
#: client; every one raises :class:`ServingError` after ``shutdown()``.
CLIENT_CALLS = {
    "__enter__": lambda client, query, served: client.__enter__(),
    "estimate": lambda client, query, served: client.estimate(query),
    "estimate_many": lambda client, query, served: client.estimate_many([query]),
    "estimate_future": lambda client, query, served: client.estimate_future(query).result(30),
    "warm": lambda client, query, served: (client.warm(), client.warm([query])),
    "record_feedback": lambda client, query, served: client.record_feedback(served, 10.0),
    "trigger_adaptation": lambda client, query, served: client.trigger_adaptation(),
}

#: Read-only calls and the idempotent teardown, which a shut-down client
#: still answers.
CLIENT_ALLOWED = {"stats", "started", "shutdown", "__exit__"}

#: Classmethods that build a new client rather than enter a stopped one.
CLIENT_CONSTRUCTORS = {"start", "from_artifact"}

#: ``AdaptationManager`` entry points; every one raises after ``stop()``.
MANAGER_CALLS = {
    "__enter__": lambda manager, database: manager.__enter__(),
    "start": lambda manager, database: manager.start(),
    "set_database": lambda manager, database: manager.set_database(database),
    "pause": lambda manager, database: manager.pause(),
    "resume": lambda manager, database: manager.resume(),
    "trigger": lambda manager, database: manager.trigger(),
    "run_cycle": lambda manager, database: manager.run_cycle(force=True),
}

MANAGER_ALLOWED = {"paused", "stats_snapshot", "stop", "__exit__"}


def entry_points(cls) -> set[str]:
    """Public members defined on ``cls``, plus the context-manager pair."""
    return {name for name in vars(cls) if not name.startswith("_")} | {"__enter__", "__exit__"}


@pytest.fixture(scope="module")
def trained(imdb_small, imdb_featurizer, imdb_oracle):
    pairs = build_training_pairs(imdb_small, count=60, seed=12, oracle=imdb_oracle)
    return train_crn(
        imdb_featurizer,
        pairs,
        crn_config=CRNConfig(hidden_size=16, seed=2),
        training_config=TrainingConfig(epochs=2, batch_size=32),
    )


@pytest.fixture(scope="module")
def pool(imdb_small, imdb_oracle):
    labeled = build_queries_pool_queries(imdb_small, count=40, seed=17, oracle=imdb_oracle)
    return QueriesPool.from_labeled_queries(labeled)


def adaptive_config(trained, imdb_small, pool) -> ServingConfig:
    return ServingConfig(
        model=trained.model,
        featurizer=trained.featurizer,
        pool=pool,
        fallback_estimator=PostgresCardinalityEstimator(imdb_small),
        training_result=trained,
        database=imdb_small,
        feedback=FeedbackConfig(enabled=True),
        adaptation=AdaptationConfig(
            enabled=True, training_pairs=20, incremental_epochs=1, full_epochs=1
        ),
    )


def test_every_public_member_is_classified():
    assert entry_points(ServingClient) == (
        set(CLIENT_CALLS) | CLIENT_ALLOWED | CLIENT_CONSTRUCTORS
    )
    assert entry_points(AdaptationManager) == set(MANAGER_CALLS) | MANAGER_ALLOWED


def test_a_shut_down_client_refuses_every_entry_point(trained, imdb_small, pool):
    client = ServingClient(adaptive_config(trained, imdb_small, pool))
    query = next(entry.query for entry in pool)
    served = client.estimate(query)
    for name, call in CLIENT_CALLS.items():
        call(client, query, served)  # the arguments are valid on an open client
    client.shutdown()
    manager = client.manager
    before = (client.service.generation, manager.stats.swaps, len(client.collector))
    triggers = manager.stats.manual_triggers
    assert before[0] >= 2 and triggers == 1  # the live trigger swapped

    for name, call in CLIENT_CALLS.items():
        with pytest.raises(ServingError, match="shut down"):
            call(client, query, served)
    after = (client.service.generation, manager.stats.swaps, len(client.collector))
    assert after == before and manager.stats.manual_triggers == triggers

    assert not client.started
    assert isinstance(client.stats(), dict)
    client.shutdown()
    client.__exit__(None, None, None)


def test_a_stopped_manager_refuses_every_entry_point(trained, imdb_small, pool):
    stack = build_service_stack(adaptive_config(trained, imdb_small, pool))
    manager = AdaptationManager(stack, FeedbackCollector())
    for name, call in MANAGER_CALLS.items():
        call(manager, imdb_small)
    manager.stop()
    evaluations = manager.stats.evaluations
    generation = stack.service.generation

    for name, call in MANAGER_CALLS.items():
        with pytest.raises(ServingError, match="stopped"):
            call(manager, imdb_small)
    assert manager.stats.evaluations == evaluations
    assert stack.service.generation == generation

    assert manager.paused is False
    assert manager.stats_snapshot()["evaluations"] == evaluations
    manager.stop()
    manager.__exit__(None, None, None)


def test_a_trigger_queued_behind_a_cycle_refuses_once_stopped(trained, imdb_small, pool):
    # The trigger thread blocks on the cycle lock the test holds (or, if it
    # starts late, finds the manager already stopped): either way it must
    # refuse and run nothing once stop() has landed.
    stack = build_service_stack(adaptive_config(trained, imdb_small, pool))
    manager = AdaptationManager(stack, FeedbackCollector())
    errors: list[BaseException] = []

    def trigger():
        try:
            manager.trigger()
        except Exception as error:  # asserted below
            errors.append(error)

    with manager._cycle_lock:
        thread = threading.Thread(target=trigger)
        thread.start()
        manager.stop(wait=False)
    thread.join(timeout=30)
    assert not thread.is_alive()
    manager.stop()
    assert len(errors) == 1 and isinstance(errors[0], ServingError)
    assert manager.stats.evaluations == 0 and manager.last_outcome is None
    assert stack.service.generation == 1
