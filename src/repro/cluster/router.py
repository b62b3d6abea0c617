"""The blocking front-end: route by FROM-signature, fan out, retry, deadline.

The router is the cluster-mode request path of
:class:`repro.serving.ServingClient`, and a round trip is one blocking
socket exchange **on the caller's thread**: ``estimate`` checks an idle
connection to the query's shard out of a per-shard pool (opening one when
none is idle), writes the request frame, reads the reply, and checks the
connection back in.  There is no router thread and no hand-off.  Concurrent
callers each hold their own connection — a pool never holds more than the
most callers that were in flight at once — and the worker serves each
connection on its own thread, up to ``ClusterConfig.worker_threads`` at a
time.  ``estimate_future`` runs the same blocking ``estimate`` on an
executor the router owns (``num_workers * worker_threads`` threads).

Routing is the same FROM-signature key the pool buckets on: a query whose
signature is in the assignment map goes to the worker that owns that
bucket; an unknown signature routes by a content hash
(:func:`repro.cluster.worker.stable_shard`) so fallback behaviour is still
deterministic.  ``estimate_many`` splits the batch by shard, writes every
shard's sub-batch frame before it reads any reply — the shards work
concurrently with no thread but the caller's — and reassembles results in
caller order; any failing sub-batch fails the whole call (local-mode
``estimate_many`` semantics) with the *lowest* failing shard's error,
whichever shard failed first on the clock.

Guarantees, per call:

* **One deadline.**  The budget — the caller's ``timeout_seconds`` plus
  :data:`DEADLINE_GRACE_SECONDS` (so the worker's own
  :class:`repro.serving.DeadlineExceededError` usually wins the race and
  carries its message), else ``request_timeout_seconds`` — is one monotonic
  deadline covering the connect, every attempt and every backoff sleep; each
  socket operation is armed with what is left of it.  Running out raises
  :class:`repro.serving.DeadlineExceededError`: a dead cluster fails typed
  instead of hanging.
* **Bounded retries.**  A lost connection (``OSError``, EOF at or inside a
  frame, a reply carrying another request's id) is retried up to
  ``retry_attempts`` times with a linear :data:`RETRY_BACKOFF_SECONDS`
  backoff — estimates are pure reads,
  so a retry can never double-apply anything — re-resolving the worker's
  address from the supervisor each time (a restarted worker listens on a new
  port), then surfaces :class:`repro.serving.WorkerUnavailableError`.
* **No stale answers.**  A connection whose exchange failed or timed out is
  closed, never pooled (a late reply would answer the next caller), and a
  lost connection drops every idle connection of its shard, so stale sockets
  to a dead worker cannot burn the retry budget one by one.
* **Typed errors.**  A worker-side exception crosses as its own class.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Mapping, Sequence

from repro.artifacts.bundle import query_to_mapping
from repro.cluster import protocol
from repro.cluster.supervisor import CONNECT_TIMEOUT_SECONDS
from repro.cluster.worker import stable_shard
from repro.observability.counters import Counters
from repro.serving.config import ServingConfig
from repro.serving.errors import (
    ClusterProtocolError,
    DeadlineExceededError,
    ServingError,
    WorkerUnavailableError,
)
from repro.serving.service import EstimateResult, RequestOptions
from repro.sql.query import Query

__all__ = ["ClusterRouter"]

#: Pause before retry ``n`` of a lost round trip: ``n`` times this.
RETRY_BACKOFF_SECONDS = 0.05
#: Added to a caller's ``timeout_seconds`` for the router-side guard, so the
#: worker's own :class:`repro.serving.DeadlineExceededError` (which carries
#: the authoritative message) usually wins the race.
DEADLINE_GRACE_SECONDS = 0.5


class ClusterRouter:
    """Routes requests to shard workers over pooled blocking connections."""

    def __init__(self, supervisor, config: ServingConfig) -> None:
        self._supervisor = supervisor
        self._cluster = config.cluster
        self._assignment = dict(supervisor.assignment)
        self._num_workers = config.cluster.num_workers
        self._ids = itertools.count(1)
        #: Guards the idle pools and the executor slot.
        self._lock = threading.Lock()
        self._idle: dict[int, list[protocol.Connection]] = {
            shard: [] for shard in range(self._num_workers)
        }
        self._executor: ThreadPoolExecutor | None = None
        self.stats = Counters(routed=0, retries=0, unavailable=0)

    # ------------------------------------------------------------------ #
    # lifecycle

    def start(self) -> None:
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self._num_workers * self._cluster.worker_threads,
                    thread_name_prefix="cluster-router",
                )

    def stop(self) -> None:
        """Resolve every accepted future, then close every pooled connection.

        An in-flight request finishes inside its own deadline; one still
        queued fails with the not-running :class:`ServingError`.
        """
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is None:
            return
        executor.shutdown(wait=True)
        for shard in self._idle:
            self._drop_idle(shard)

    # ------------------------------------------------------------------ #
    # routing

    def shard_for(self, query: Query) -> int:
        signature = query.from_signature()
        shard = self._assignment.get(signature)
        if shard is not None:
            return shard
        return stable_shard(signature, self._num_workers)

    # ------------------------------------------------------------------ #
    # request surface (called from any thread)

    def estimate(
        self, query: Query, options: RequestOptions | None = None
    ) -> EstimateResult:
        self._require_running()
        shard = self.shard_for(query)
        budget = (
            options.timeout_seconds + DEADLINE_GRACE_SECONDS
            if options is not None and options.timeout_seconds is not None
            else self._cluster.request_timeout_seconds
        )
        reply = self._roundtrips(
            {shard: protocol.estimate_request(0, query, options)}, budget, "request"
        )[shard]
        if isinstance(reply, BaseException):
            raise reply
        self.stats.add("routed")
        if reply["type"] == "error":
            raise protocol.error_from_payload(reply["error"])
        return protocol.result_from_payload(reply["result"], query)

    def estimate_many(
        self, queries: Sequence[Query], options: RequestOptions | None = None
    ) -> list[EstimateResult]:
        self._require_running()
        by_shard: dict[int, list[int]] = {}
        for index, query in enumerate(queries):
            by_shard.setdefault(self.shard_for(query), []).append(index)
        replies = self._roundtrips(
            {
                shard: protocol.batch_request(
                    0, [query_to_mapping(queries[index]) for index in indices], options
                )
                for shard, indices in by_shard.items()
            },
            self._cluster.request_timeout_seconds,
            "batch",
        )
        # Local-mode estimate_many fails the whole batch on any request
        # failure; raise deterministically (lowest failing shard).
        results: list[EstimateResult | None] = [None] * len(queries)
        for shard in sorted(by_shard):
            reply = replies[shard]
            if isinstance(reply, BaseException):
                raise reply
            if reply["type"] == "error":
                raise protocol.error_from_payload(reply["error"])
            for item, index in zip(reply["results"], by_shard[shard], strict=True):
                results[index] = protocol.result_from_payload(item, queries[index])
        self.stats.add("routed", len(queries))
        return results  # type: ignore[return-value]

    def estimate_future(
        self, query: Query, options: RequestOptions | None = None
    ) -> Future:
        # Submitted under the lock, so stop() cannot shut the executor down
        # between the check and the submit.
        with self._lock:
            return self._require_running().submit(self.estimate, query, options)

    def _require_running(self) -> ThreadPoolExecutor:
        executor = self._executor
        if executor is None:
            raise ServingError(
                "cluster router is not running; start the client first "
                "(use the context manager or ServingClient.start)"
            )
        return executor

    def stats_snapshot(self) -> dict[str, float]:
        values = self.stats.snapshot()
        return {
            "cluster_requests_routed": float(values["routed"]),
            "cluster_retries": float(values["retries"]),
            "cluster_unavailable": float(values["unavailable"]),
        }

    # ------------------------------------------------------------------ #
    # the exchange (on the caller's thread)

    def _roundtrips(
        self, messages: Mapping[int, dict[str, Any]], budget: float, what: str
    ) -> dict[int, dict[str, Any] | BaseException]:
        """One request per shard; each shard's reply, or the error it ends in.

        An attempt writes the frame of every shard still unanswered before
        it reads any reply, so the shards overlap on the caller's thread.
        Every attempt stamps a fresh request id into its message.
        """
        deadline = time.monotonic() + budget
        attempts = self._cluster.retry_attempts + 1
        outcomes: dict[int, dict[str, Any] | BaseException] = {}

        def failed(shard: int, error: BaseException, attempt: int) -> None:
            """A timeout is final; a lost channel is retried while attempts last."""
            if isinstance(error, TimeoutError):
                outcomes[shard] = DeadlineExceededError(
                    f"cluster {what} to shard {shard} was not answered "
                    f"within {budget:.3f}s"
                )
                return
            self._drop_idle(shard)
            if attempt + 1 == attempts:
                self.stats.add("unavailable")
                if not isinstance(error, WorkerUnavailableError):
                    error = WorkerUnavailableError(
                        f"shard {shard} unavailable after {attempts} "
                        f"attempt(s): {error}"
                    )
                outcomes[shard] = error

        for attempt in range(attempts):
            pending = [shard for shard in messages if shard not in outcomes]
            if not pending:
                break
            if attempt:
                self.stats.add("retries", len(pending))
                pause = RETRY_BACKOFF_SECONDS * attempt
                time.sleep(max(0.0, min(pause, deadline - time.monotonic())))
            sent: dict[int, tuple[protocol.Connection, int]] = {}
            for shard in pending:
                try:
                    sent[shard] = self._send(shard, messages[shard], deadline)
                except OSError as error:
                    failed(shard, error, attempt)
                except ClusterProtocolError as error:
                    outcomes[shard] = error  # unencodable: no retry can help
            for shard, (connection, request_id) in sent.items():
                try:
                    outcomes[shard] = self._receive(
                        shard, connection, request_id, deadline
                    )
                except (OSError, ClusterProtocolError) as error:
                    failed(shard, error, attempt)
        return outcomes

    def _send(
        self, shard: int, message: dict[str, Any], deadline: float
    ) -> tuple[protocol.Connection, int]:
        """Write one request on a pooled connection (opened when none is idle)."""
        connection = self._checkout(shard, deadline)
        message["id"] = request_id = next(self._ids)
        try:
            connection.send(message, deadline)
        except BaseException:
            connection.close()
            raise
        return connection, request_id

    def _receive(
        self,
        shard: int,
        connection: protocol.Connection,
        request_id: int,
        deadline: float,
    ) -> dict[str, Any]:
        """Read the reply and pool the connection; any failure closes it."""
        try:
            reply = connection.receive(deadline)
            if reply is None:
                raise ConnectionError(
                    f"shard {shard} closed the connection without answering"
                )
            if reply.get("id") != request_id:
                raise ConnectionError(
                    f"shard {shard} answered request {reply.get('id')!r} on the "
                    f"connection that asked {request_id}"
                )
        except BaseException:
            connection.close()
            raise
        with self._lock:
            running = self._executor is not None
            if running:
                self._idle[shard].append(connection)
        if not running:
            connection.close()  # the router stopped while this request ran
        return reply

    def _checkout(self, shard: int, deadline: float) -> protocol.Connection:
        with self._lock:
            idle = self._idle[shard]
            if idle:
                return idle.pop()
        # Re-resolve every time: a restarted worker has a new port, and a
        # drained/failed shard raises WorkerUnavailableError here.
        address = self._supervisor.address(shard)
        if address is None:
            raise ConnectionError(f"shard {shard} is restarting; no address yet")
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("deadline passed before the connect")
        try:
            return protocol.Connection(
                address, min(CONNECT_TIMEOUT_SECONDS, remaining)
            )
        except OSError as error:
            if isinstance(error, TimeoutError) and time.monotonic() >= deadline:
                raise
            raise ConnectionError(
                f"cannot connect to shard {shard} at "
                f"{address[0]}:{address[1]}: {error}"
            ) from error

    def _drop_idle(self, shard: int) -> None:
        with self._lock:
            idle, self._idle[shard] = self._idle[shard], []
        for connection in idle:
            connection.close()
