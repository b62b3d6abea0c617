"""The long-lived shard worker process.

A worker owns one shard: the pool slice holding every entry whose
FROM-signature was assigned to it.  Sharding by FROM-signature is safe by
construction — Cnt2Crd only ever scores a request against pool queries with
the *same* FROM-signature (Section 2's containment precondition), so a
worker holding a signature's complete bucket computes exactly the bits the
full-pool stack would: same entries, same insertion order, same slabs.

Boot order (:func:`boot_worker_client`): when the deployment has an artifact
store with a promoted generation, the worker cold-boots via
:meth:`repro.serving.ServingClient.from_artifact` — checksum-verified
weights and pool, with the pool sliced to the assigned signatures — so a
restarted worker always serves the *promoted* generation, whatever the
parent process had in memory.  Without a store (or before the first
promote), it builds from the forked config's in-memory objects, pool sliced
the same way.  Either way the worker is a complete local-mode
:class:`~repro.serving.ServingClient`: its own dispatcher (concurrent
connections coalesce), its own caches and compiled plan, and its own event
recorder flushing under a per-lifetime source
(``worker-<shard>@gen<N>``, see :func:`worker_source`) so the shared
EventStore's ``(source, sequence)`` dedup merges every worker lifetime into
one queryable history instead of silently dropping the restart's events.

The serving loop (:class:`WorkerServer`) accepts connections on an ephemeral
loopback port and gives each its own thread, which reads a length-prefixed
frame, handles the request itself and writes the reply before it reads the
next frame — one request at a time per connection, no hand-off to a pool.
Callers that want to overlap open several connections (the router pools
them); a semaphore of ``ClusterConfig.worker_threads`` bounds how many
handlers run at once.  ``drain`` shuts the listener down (which wakes the
acceptor out of ``accept()``), waits for in-flight work and acks; the
serving loop returns once the ack is written, so a drained worker exits by
itself with code 0.  The process entry (:func:`run_worker`) announces
``("ready", port, generation)`` over the spawn pipe and finishes with
``os._exit`` — a forked child must not run teardown of inherited state
(parent sockets, SQLite handles) it does not own.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import threading
from dataclasses import dataclass, replace
from typing import Any, Sequence

from repro.cluster import protocol
from repro.core.queries_pool import QueriesPool
from repro.serving.client import ServingClient
from repro.serving.config import ArtifactConfig, ServingConfig
from repro.serving.errors import ClusterError, ClusterProtocolError

__all__ = [
    "WorkerServer",
    "WorkerSpec",
    "assign_shards",
    "boot_worker_client",
    "run_worker",
    "signature_key",
    "slice_pool",
    "stable_shard",
    "worker_source",
]

#: One FROM-clause signature: sorted ``(table name, alias)`` pairs, exactly
#: :meth:`repro.sql.query.Query.from_signature`.
Signature = tuple[tuple[str, str], ...]

#: How often a worker's background thread flushes its event recorder, so a
#: crash loses at most this window of provenance (plus whatever the final
#: drain-time flush would have added).
FLUSH_INTERVAL_SECONDS = 0.5


def signature_key(signature: Signature) -> str:
    """A canonical string form of a signature (stable across processes)."""
    return json.dumps([list(pair) for pair in signature])


def stable_shard(signature: Signature, num_workers: int) -> int:
    """Deterministic shard for a signature *not* in the assignment map.

    Queries whose FROM-signature has no pool bucket still need a worker (to
    run the fallback estimator, or to raise ``NoMatchingPoolQueryError``
    with local-path fidelity).  Built on a content hash, not ``hash()`` —
    ``PYTHONHASHSEED`` must not re-route requests across processes.
    """
    digest = hashlib.md5(signature_key(signature).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % num_workers


def assign_shards(
    signatures: Sequence[Signature], num_workers: int
) -> dict[Signature, int]:
    """Round-robin signatures over workers in sorted order.

    Sorted-order round-robin is deterministic (router and supervisor derive
    the same map from the same pool) and balanced to within one signature
    per worker — the paper keeps the pool "equally distributed among all the
    possible FROM clauses" (Section 6.2), so balancing bucket *count*
    balances work.
    """
    return {
        signature: position % num_workers
        for position, signature in enumerate(sorted(signatures))
    }


def slice_pool(pool: QueriesPool, signatures: Sequence[Signature]) -> QueriesPool:
    """A new pool holding only the given signatures' buckets.

    Entries are replayed in bucket insertion order, so the slice's buckets
    are entry-for-entry identical to the full pool's — the slab rows a
    worker scores are the same rows, in the same order, as the local path's.
    """
    entries = []
    for signature in signatures:
        bucket, _ = pool.bucket_snapshot(signature)
        entries.extend(bucket)
    return QueriesPool(entries)


def worker_source(shard: int, incarnation: int, generation: int) -> str:
    """The event-source identity of one worker lifetime.

    ``worker-<shard>@gen<N>`` for the first boot; a crash-restart of the
    *same* generation appends ``r<restarts>`` (``worker-0r1@gen2``) —
    without it the restarted recorder's sequences would restart at zero
    under an already-used source and the EventStore's ``(source, sequence)``
    dedup would silently swallow the second lifetime's events.
    """
    base = f"worker-{shard}" if incarnation == 0 else f"worker-{shard}r{incarnation}"
    return f"{base}@gen{generation}"


@dataclass(frozen=True)
class WorkerSpec:
    """Everything one worker process needs, carried across the fork.

    The full :class:`~repro.serving.ServingConfig` rides along — fork shares
    the runtime objects (model, pool, featurizer, database, fallback
    estimators) by memory image, which is exactly why the cluster uses the
    ``fork`` start method: those objects have no pickle form.
    """

    shard: int
    signatures: tuple[Signature, ...]
    config: ServingConfig
    incarnation: int = 0


def _built_worker_config(spec: WorkerSpec) -> ServingConfig:
    """The local-mode config a worker builds from when no artifact exists."""
    config = spec.config
    observability = config.observability
    if observability.enabled:
        observability = replace(
            observability,
            source=worker_source(spec.shard, spec.incarnation, generation=1),
        )
    return replace(
        config,
        pool=slice_pool(config.pool, spec.signatures),
        cluster=replace(config.cluster, mode="local"),
        observability=observability,
        artifacts=ArtifactConfig(),
    )


def boot_worker_client(spec: WorkerSpec) -> tuple[ServingClient, int]:
    """Cold-boot this shard's serving stack; returns ``(client, generation)``.

    Prefers the artifact store's promoted generation (a restart serves what
    was promoted, not what the parent held in memory); falls back to
    building from the forked config when no bundle is promoted yet.
    """
    config = spec.config
    if config.artifacts.enabled:
        from repro.artifacts.store import ArtifactStore

        generation = ArtifactStore(config.artifacts.root).latest()
        if generation is not None:
            base = (
                f"worker-{spec.shard}"
                if spec.incarnation == 0
                else f"worker-{spec.shard}r{spec.incarnation}"
            )
            client = ServingClient.from_artifact(
                config.artifacts.root,
                database=config.database,
                generation=generation,
                signatures=spec.signatures,
                observability_source=base,
                fallback_estimator=config.fallback_estimator,
                oracle=config.oracle,
            )
            return client, generation
    client = ServingClient(_built_worker_config(spec))
    return client, client.service.generation


class WorkerServer:
    """The worker-side serving loop over one listener socket."""

    def __init__(
        self,
        client: ServingClient,
        *,
        shard: int,
        generation: int,
        host: str,
        max_handlers: int,
        drain_timeout_seconds: float,
    ) -> None:
        self._client = client
        self._shard = shard
        self._generation = generation
        self._drain_timeout = drain_timeout_seconds
        self._listener = socket.create_server((host, 0))
        #: At most ``worker_threads`` connection threads handle a request at
        #: once; the rest wait here with their frame already read.
        self._handlers = threading.BoundedSemaphore(max_handlers)
        self._active_lock = threading.Lock()
        self._idle = threading.Condition(self._active_lock)
        self._active = 0
        self._draining = threading.Event()
        self._drain_acked = threading.Event()

    @property
    def port(self) -> int:
        return self._listener.getsockname()[1]

    # ------------------------------------------------------------------ #
    # serving loop

    def serve_forever(self) -> None:
        """Accept and serve until a ``drain`` message lands."""
        flusher = threading.Thread(
            target=self._flush_loop, name=f"shard{self._shard}-flush", daemon=True
        )
        flusher.start()
        try:
            while True:
                try:
                    connection, _ = self._listener.accept()
                except OSError:
                    break  # listener shut down by _begin_drain
                threading.Thread(
                    target=self._serve_connection,
                    args=(connection,),
                    name=f"shard{self._shard}-conn",
                    daemon=True,
                ).start()
        finally:
            self._listener.close()
            if self._draining.is_set():
                # A drain woke the acceptor.  The caller's next stop is
                # os._exit, so hold here until the drain_ack frame is on
                # the wire (bounded: _begin_drain's own wait is).
                self._drain_acked.wait()
            self._draining.set()
            flusher.join(timeout=FLUSH_INTERVAL_SECONDS * 4)

    def _flush_loop(self) -> None:
        # A crashed worker can only lose events emitted since the last
        # flush; this bounds that window without putting a flush on the
        # request path.
        recorder = self._client.recorder
        if recorder is None:
            return
        while not self._draining.wait(FLUSH_INTERVAL_SECONDS):
            recorder.flush()
        recorder.flush()

    def _serve_connection(self, connection: socket.socket) -> None:
        connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            with connection, connection.makefile("rb") as stream:
                while True:
                    try:
                        message = protocol.read_frame(stream)
                    except ClusterProtocolError as error:
                        # The stream may be desynced; answer and hang up.
                        self._send(connection, protocol.error_response(-1, error))
                        return
                    if message is None:
                        return
                    if not self._dispatch(connection, message):
                        return
        except OSError:
            return

    def _dispatch(self, connection, message: dict[str, Any]) -> bool:
        """Answer one frame; returns False when the connection should close."""
        request_id = message.get("id", -1)
        message_type = message.get("type")
        if message_type == "drain":
            try:
                self._begin_drain()
                self._send(
                    connection, protocol.drain_response(request_id, self._shard)
                )
            finally:
                self._drain_acked.set()  # releases serve_forever's exit
            return False
        if message_type == "health":
            response = protocol.health_response(request_id, self._health_payload())
        elif message_type not in ("estimate", "estimate_batch"):
            response = protocol.error_response(
                request_id,
                ClusterProtocolError(f"unknown message type {message_type!r}"),
            )
        elif self._draining.is_set():
            response = protocol.error_response(
                request_id, ClusterError(f"shard {self._shard} is draining")
            )
        else:
            with self._active_lock:
                self._active += 1
            self._handle_request(connection, message)
            return True
        self._send(connection, response)
        return True

    def _handle_request(self, connection, message: dict[str, Any]) -> None:
        """Serve one estimate frame on the connection thread that read it."""
        request_id = message.get("id", -1)
        try:
            with self._handlers:
                options = protocol.options_from_payload(message.get("options"))
                if message["type"] == "estimate":
                    query = protocol.decode_query(message["query"])
                    result = self._client.estimate(query, options=options)
                    response = protocol.result_response(request_id, result)
                else:
                    queries = [
                        protocol.decode_query(item) for item in message["queries"]
                    ]
                    results = self._client.estimate_many(queries, options=options)
                    response = protocol.batch_response(request_id, results)
        except BaseException as error:  # noqa: BLE001 — everything must answer typed
            response = protocol.error_response(request_id, error)
        try:
            self._send(connection, response)
        except OSError:
            pass  # caller hung up; the retry on its side re-asks elsewhere
        finally:
            with self._idle:
                self._active -= 1
                self._idle.notify_all()

    @staticmethod
    def _send(connection, message: dict[str, Any]) -> None:
        connection.sendall(protocol.encode_frame(message))

    # ------------------------------------------------------------------ #
    # health / drain

    def _health_payload(self) -> dict[str, Any]:
        # stats() flushes the recorder, so a health probe doubles as a
        # provenance checkpoint — events emitted so far are durable after it.
        stats = self._client.stats()
        recorder = self._client.recorder
        return {
            "shard": self._shard,
            "pid": os.getpid(),
            "generation": self._generation,
            "source": recorder.source if recorder is not None else None,
            "requests": stats.get("requests", 0.0),
            "queue_depth": stats.get("dispatcher_queue_depth", 0.0),
        }

    def _begin_drain(self) -> None:
        """Stop accepting, wait for in-flight requests (bounded)."""
        self._draining.set()
        try:
            # shutdown(), not close(): on Linux closing a listener from
            # another thread leaves the acceptor blocked in accept() forever,
            # while shutdown wakes it with an OSError.  serve_forever closes
            # the socket itself once it is out of accept().
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # a second drain: the listener is already down
        with self._idle:
            self._idle.wait_for(
                lambda: self._active == 0, timeout=self._drain_timeout
            )


def run_worker(spec: WorkerSpec, ready_pipe) -> None:
    """Forked-child entry: boot, announce, serve, ``os._exit``.

    The ready handshake is ``("ready", port, generation)`` on success or
    ``("error", message)`` on a boot failure; either way the pipe closes
    afterwards.  The child never returns — ``os._exit`` skips interpreter
    teardown of state inherited from the parent (its sockets, its SQLite
    connections), which the child must not touch.
    """
    exit_code = 0
    try:
        client, generation = boot_worker_client(spec)
        try:
            server = WorkerServer(
                client.__enter__(),
                shard=spec.shard,
                generation=generation,
                host=spec.config.cluster.host,
                max_handlers=spec.config.cluster.worker_threads,
                drain_timeout_seconds=spec.config.cluster.drain_timeout_seconds,
            )
            ready_pipe.send(("ready", server.port, generation))
            ready_pipe.close()
            server.serve_forever()
        finally:
            client.shutdown()
    except BaseException as error:  # noqa: BLE001 — the parent needs the reason
        exit_code = 1
        try:
            ready_pipe.send(("error", f"{type(error).__name__}: {error}"))
            ready_pipe.close()
        except (OSError, ValueError):
            pass
    finally:
        os._exit(exit_code)
