"""The cluster supervisor: spawn, monitor, restart, drain.

The supervisor owns the worker processes.  It forks one per shard
(``fork``, not ``spawn`` — the config's runtime objects (model, pool,
featurizer, estimator instances) have no pickle form, and fork hands the
child the parent's memory image for free), waits for each ready handshake,
then watches liveness on a poll loop.  A worker that dies is re-forked with
a bumped incarnation counter — and because :func:`~repro.cluster.worker
.boot_worker_client` consults the artifact store *at boot time*, the
restarted worker serves whatever generation is **promoted then**, not a
stale memory image.  Per-shard restarts are bounded by
``ClusterConfig.max_restarts``; past that the shard is marked failed and the
router's retries surface :class:`repro.serving.WorkerUnavailableError`.

Graceful drain sends the wire protocol's ``drain`` frame: the worker shuts
its listener down (waking its acceptor), finishes in-flight requests, acks,
then leaves its serving loop, flushes its recorder and exits with code 0 on
its own.  The supervisor joins the process — which returns as soon as the
worker is gone, well inside ``drain_timeout_seconds`` — and marks the shard
drained (a drained shard is intentionally *not* restarted).  ``terminate()``
is the fallback for a worker that did not answer the drain or did not exit
in time; every use of it is counted in ``cluster_drain_timeouts``
(:meth:`ClusterSupervisor.stats_snapshot`), and a non-zero count in a normal
run is a bug.

For operators, the supervisor also runs a tiny control server speaking the
same framed protocol (``control`` messages: ``status`` / ``drain`` /
``restart``) and writes a runtime file (``cluster.json``) with the control
address and worker map — which is how ``scripts/cluster_tool.py`` finds a
running cluster without sharing any Python state with it.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import socket
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

from repro.cluster import protocol
from repro.cluster.worker import WorkerSpec, assign_shards, run_worker
from repro.serving.config import ServingConfig
from repro.serving.errors import ClusterError, WorkerUnavailableError

__all__ = ["ClusterSupervisor", "RUNTIME_FILENAME"]

#: The runtime file the supervisor maintains under ``cluster.runtime_dir``.
RUNTIME_FILENAME = "cluster.json"

#: Cap on one TCP connect to a worker: a health probe's, and each of the
#: router's (within what is left of the request's deadline).
CONNECT_TIMEOUT_SECONDS = 5.0

#: Shard lifecycle states, as reported by :meth:`ClusterSupervisor.status`.
STATE_BOOTING = "booting"
STATE_READY = "ready"
STATE_RESTARTING = "restarting"
STATE_DRAINING = "draining"
STATE_DRAINED = "drained"
STATE_FAILED = "failed"


@dataclass
class _WorkerHandle:
    spec: WorkerSpec
    process: Any = None
    address: tuple[str, int] | None = None
    generation: int | None = None
    state: str = STATE_BOOTING
    restarts: int = 0
    last_error: str = ""


class ClusterSupervisor:
    """Spawns and keeps alive one worker process per shard."""

    def __init__(self, config: ServingConfig) -> None:
        if not config.cluster.enabled:
            raise ClusterError("supervisor needs a config with cluster.mode='cluster'")
        self.config = config
        self.cluster = config.cluster
        try:
            self._context = multiprocessing.get_context("fork")
        except ValueError as error:  # pragma: no cover — non-POSIX platforms
            raise ClusterError(
                "cluster mode needs the 'fork' start method: the config's "
                "runtime objects (model, pool, estimators) have no pickle "
                "form, so spawn/forkserver cannot carry them"
            ) from error
        #: FROM-signature → shard, shared with the router.
        self.assignment = assign_shards(
            config.pool.from_signatures(), self.cluster.num_workers
        )
        shard_signatures: dict[int, list] = {
            shard: [] for shard in range(self.cluster.num_workers)
        }
        for signature in sorted(self.assignment):
            shard_signatures[self.assignment[signature]].append(signature)
        self._handles = {
            shard: _WorkerHandle(
                WorkerSpec(shard, tuple(signatures), config)
            )
            for shard, signatures in shard_signatures.items()
        }
        self._lock = threading.RLock()
        self._stop = threading.Event()
        #: Times stop/drain had to fall through to ``terminate()``.
        self._drain_timeouts = 0
        self._monitor: threading.Thread | None = None
        self._control: socket.socket | None = None
        self._control_thread: threading.Thread | None = None
        self._runtime_path: Path | None = None
        if self.cluster.runtime_dir is not None:
            self._runtime_path = Path(self.cluster.runtime_dir) / RUNTIME_FILENAME

    # ------------------------------------------------------------------ #
    # lifecycle

    def start(self) -> None:
        """Fork every worker, wait for all ready handshakes, start watching."""
        spawned = []
        for shard, handle in self._handles.items():
            spawned.append((shard, handle, *self._spawn(handle.spec)))
        failures = []
        for shard, handle, process, pipe in spawned:
            try:
                self._await_ready(handle, process, pipe)
            except ClusterError as error:
                failures.append(f"shard {shard}: {error}")
        if failures:
            self.stop()
            raise ClusterError(
                "cluster boot failed — " + "; ".join(failures)
            )
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="cluster-monitor", daemon=True
        )
        self._monitor.start()
        self._start_control_server()
        self._write_runtime()

    def stop(self) -> None:
        """Drain what answers, terminate what does not.  Idempotent."""
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=self.cluster.poll_interval_seconds * 8)
            self._monitor = None
        with self._lock:
            handles = list(self._handles.values())
        for handle in handles:
            self._shutdown_worker(handle)
        if self._control is not None:
            try:
                # As in the worker: shutdown wakes the control thread out of
                # accept(); close alone would leave it (and the port) behind.
                self._control.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._control.close()
            self._control = None
        self._write_runtime()

    def _shutdown_worker(self, handle: _WorkerHandle) -> None:
        with self._lock:
            process, address, state = handle.process, handle.address, handle.state
        if process is None or not process.is_alive():
            return
        acked = False
        if state == STATE_READY and address is not None:
            try:
                protocol.roundtrip(
                    address,
                    protocol.drain_request(0),
                    timeout=self.cluster.drain_timeout_seconds,
                )
                acked = True
            except (OSError, ClusterError):
                pass
        self._reap(process, acked)
        with self._lock:
            handle.state = STATE_DRAINED
            handle.address = None

    def _reap(self, process, acked: bool) -> None:
        """Join a worker that acked its drain; terminate one that did not
        (or that outlives ``drain_timeout_seconds``) and count the fallback."""
        if acked:
            process.join(timeout=self.cluster.drain_timeout_seconds)
        if process.is_alive():
            with self._lock:
                self._drain_timeouts += 1
            process.terminate()
            process.join(timeout=self.cluster.drain_timeout_seconds)

    # ------------------------------------------------------------------ #
    # spawn / handshake

    def _spawn(self, spec: WorkerSpec):
        parent_pipe, child_pipe = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=run_worker,
            args=(spec, child_pipe),
            name=f"repro-worker-{spec.shard}",
            daemon=True,
        )
        process.start()
        child_pipe.close()
        return process, parent_pipe

    def _await_ready(self, handle: _WorkerHandle, process, pipe) -> None:
        deadline = time.monotonic() + self.cluster.boot_timeout_seconds
        try:
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not pipe.poll(min(remaining, 0.1)):
                    if remaining <= 0:
                        self._abort_boot(handle, process, "ready handshake timed out")
                        return
                    if not process.is_alive():
                        self._abort_boot(
                            handle, process,
                            f"worker exited during boot (code {process.exitcode})",
                        )
                        return
                    continue
                message = pipe.recv()
                break
        except (EOFError, OSError):
            self._abort_boot(handle, process, "ready pipe closed during boot")
            return
        finally:
            pipe.close()
        if message[0] == "ready":
            _, port, generation = message
            with self._lock:
                handle.process = process
                handle.address = (self.cluster.host, port)
                handle.generation = generation
                handle.state = STATE_READY
                handle.last_error = ""
            return
        self._abort_boot(handle, process, str(message[1]))

    def _abort_boot(self, handle: _WorkerHandle, process, reason: str) -> None:
        if process.is_alive():
            process.terminate()
            process.join(timeout=self.cluster.drain_timeout_seconds)
        with self._lock:
            handle.process = process
            handle.address = None
            handle.state = STATE_FAILED
            handle.last_error = reason
        raise ClusterError(f"worker boot failed: {reason}")

    # ------------------------------------------------------------------ #
    # monitoring / restart

    def _monitor_loop(self) -> None:
        while not self._stop.wait(self.cluster.poll_interval_seconds):
            for shard, handle in self._handles.items():
                with self._lock:
                    dead = (
                        handle.state == STATE_READY
                        and handle.process is not None
                        and not handle.process.is_alive()
                    )
                if dead:
                    self._restart_dead(shard, handle)

    def _restart_dead(self, shard: int, handle: _WorkerHandle) -> None:
        with self._lock:
            handle.address = None
            if handle.restarts >= self.cluster.max_restarts:
                handle.state = STATE_FAILED
                handle.last_error = (
                    f"gave up after {handle.restarts} restarts"
                )
                self._write_runtime()
                return
            handle.state = STATE_RESTARTING
            handle.restarts += 1
            # A fresh incarnation gets a fresh event source — the restarted
            # recorder's sequences restart at zero, and reusing the old
            # source would have the store dedup the new lifetime away.
            handle.spec = replace(handle.spec, incarnation=handle.restarts)
        try:
            process, pipe = self._spawn(handle.spec)
            self._await_ready(handle, process, pipe)
        except ClusterError:
            pass  # state/last_error already recorded by _abort_boot
        self._write_runtime()

    # ------------------------------------------------------------------ #
    # the router's view

    def address(self, shard: int) -> tuple[str, int] | None:
        """Where the shard's worker listens; ``None`` while it restarts.

        Raises:
            WorkerUnavailableError: the shard is drained or failed — no
                amount of retrying will bring it back without an operator.
        """
        with self._lock:
            handle = self._handles.get(shard)
            if handle is None:
                raise WorkerUnavailableError(f"no such shard {shard}")
            if handle.state == STATE_READY:
                return handle.address
            if handle.state in (STATE_BOOTING, STATE_RESTARTING):
                return None
            raise WorkerUnavailableError(
                f"shard {shard} is {handle.state}"
                + (f" ({handle.last_error})" if handle.last_error else "")
            )

    # ------------------------------------------------------------------ #
    # operator surface

    def status(self, probe: bool = False) -> dict[str, Any]:
        """Per-shard state map; ``probe=True`` adds live health roundtrips."""
        workers = []
        with self._lock:
            snapshot = [
                (shard, handle.spec, handle.process, handle.address,
                 handle.generation, handle.state, handle.restarts,
                 handle.last_error)
                for shard, handle in sorted(self._handles.items())
            ]
        for shard, spec, process, address, generation, state, restarts, last_error in snapshot:
            entry: dict[str, Any] = {
                "shard": shard,
                "state": state,
                "pid": process.pid if process is not None else None,
                "alive": bool(process is not None and process.is_alive()),
                "exitcode": process.exitcode if process is not None else None,
                "address": list(address) if address is not None else None,
                "generation": generation,
                "restarts": restarts,
                "signatures": len(spec.signatures),
            }
            if last_error:
                entry["last_error"] = last_error
            if probe and state == STATE_READY and address is not None:
                try:
                    reply = protocol.roundtrip(
                        address,
                        protocol.health_request(0),
                        timeout=CONNECT_TIMEOUT_SECONDS,
                    )
                    entry["healthy"] = reply.get("type") == "health_result"
                    entry.update(
                        {
                            f"health_{key}": value
                            for key, value in reply.get("health", {}).items()
                            if key not in ("shard",)
                        }
                    )
                except (OSError, ClusterError):
                    entry["healthy"] = False
            workers.append(entry)
        return {
            "num_workers": self.cluster.num_workers,
            "signatures": len(self.assignment),
            "workers": workers,
        }

    def drain(self, shard: int) -> dict[str, Any]:
        """Gracefully stop one shard's worker (it is not restarted)."""
        with self._lock:
            handle = self._handles.get(shard)
            if handle is None:
                raise ClusterError(f"no such shard {shard}")
            if handle.state != STATE_READY or handle.address is None:
                raise ClusterError(
                    f"shard {shard} is {handle.state}; only a ready shard drains"
                )
            handle.state = STATE_DRAINING
            address, process = handle.address, handle.process
        try:
            reply = protocol.roundtrip(
                address,
                protocol.drain_request(0),
                timeout=self.cluster.drain_timeout_seconds,
            )
            if reply.get("type") != "drain_ack":
                raise ClusterError(f"unexpected drain reply {reply.get('type')!r}")
        except (OSError, ClusterError) as error:
            with self._lock:
                handle.state = STATE_FAILED
                handle.last_error = f"drain failed: {error}"
                handle.address = None
            self._write_runtime()
            raise ClusterError(f"drain of shard {shard} failed: {error}") from error
        self._reap(process, acked=True)
        with self._lock:
            handle.state = STATE_DRAINED
            handle.address = None
        self._write_runtime()
        return self.status()

    def restart(self, shard: int) -> dict[str, Any]:
        """Operator restart: drain (when ready), then boot a fresh process.

        Unlike crash recovery this does not count against ``max_restarts`` —
        it is deliberate, not a crash loop — but it *does* bump the
        incarnation so the fresh lifetime gets a fresh event source.
        """
        with self._lock:
            handle = self._handles.get(shard)
            if handle is None:
                raise ClusterError(f"no such shard {shard}")
            state = handle.state
        if state == STATE_READY:
            self.drain(shard)
        with self._lock:
            if handle.state not in (STATE_DRAINED, STATE_FAILED):
                raise ClusterError(
                    f"shard {shard} is {handle.state}; cannot restart mid-transition"
                )
            handle.state = STATE_RESTARTING
            handle.last_error = ""
            handle.spec = replace(
                handle.spec, incarnation=handle.spec.incarnation + 1
            )
        process, pipe = self._spawn(handle.spec)
        self._await_ready(handle, process, pipe)
        self._write_runtime()
        return self.status()

    def stats_snapshot(self) -> dict[str, float]:
        """Float gauges for the cluster client's merged ``stats()``."""
        with self._lock:
            states = [handle.state for handle in self._handles.values()]
            restarts = sum(handle.restarts for handle in self._handles.values())
            drain_timeouts = self._drain_timeouts
        return {
            "cluster_workers": float(len(states)),
            "cluster_workers_ready": float(states.count(STATE_READY)),
            "cluster_workers_failed": float(states.count(STATE_FAILED)),
            "cluster_worker_restarts": float(restarts),
            "cluster_drain_timeouts": float(drain_timeouts),
            "cluster_signatures": float(len(self.assignment)),
        }

    # ------------------------------------------------------------------ #
    # control server + runtime file

    def _start_control_server(self) -> None:
        self._control = socket.create_server((self.cluster.host, 0))
        self._control_thread = threading.Thread(
            target=self._control_loop, name="cluster-control", daemon=True
        )
        self._control_thread.start()

    @property
    def control_address(self) -> tuple[str, int] | None:
        if self._control is None:
            return None
        return (self.cluster.host, self._control.getsockname()[1])

    def _control_loop(self) -> None:
        listener = self._control
        while True:
            try:
                connection, _ = listener.accept()
            except OSError:
                return  # listener shut down by stop()
            threading.Thread(
                target=self._serve_control_connection,
                args=(connection,),
                name="cluster-control-conn",
                daemon=True,
            ).start()

    def _serve_control_connection(self, connection: socket.socket) -> None:
        try:
            with connection, connection.makefile("rb") as stream:
                while True:
                    message = protocol.read_frame(stream)
                    if message is None:
                        return
                    request_id = message.get("id", -1)
                    try:
                        payload = self._run_control_op(message)
                        response = protocol.control_response(request_id, payload)
                    except BaseException as error:  # noqa: BLE001 — answer typed
                        response = protocol.error_response(request_id, error)
                    connection.sendall(protocol.encode_frame(response))
        except (OSError, ClusterError):
            return

    def _run_control_op(self, message: dict[str, Any]) -> dict[str, Any]:
        if message.get("type") != "control":
            raise ClusterError(
                f"control server only speaks 'control' messages, "
                f"got {message.get('type')!r}"
            )
        op = message.get("op")
        if op == "status":
            return self.status(probe=True)
        shard = message.get("shard")
        if not isinstance(shard, int):
            raise ClusterError(f"control op {op!r} needs an integer shard")
        if op == "drain":
            return self.drain(shard)
        if op == "restart":
            return self.restart(shard)
        raise ClusterError(f"unknown control op {op!r}")

    def _write_runtime(self) -> None:
        if self._runtime_path is None:
            return
        control = self.control_address
        payload = {
            "schema_version": 1,
            "supervisor_pid": os.getpid(),
            "control": list(control) if control is not None else None,
            "status": self.status(),
        }
        self._runtime_path.parent.mkdir(parents=True, exist_ok=True)
        staging = self._runtime_path.with_suffix(".tmp")
        staging.write_text(json.dumps(payload, indent=2) + "\n")
        os.replace(staging, self._runtime_path)
