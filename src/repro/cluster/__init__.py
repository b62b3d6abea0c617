"""Sharded multi-process serving: workers, wire protocol, router, supervisor.

The in-process stack — coalescing dispatcher, compiled inference plans,
generation-versioned artifacts — still serializes CPU-bound slab math on one
GIL.  This package scales it out across processes, sharded by the key the
pool already buckets on: the **FROM-signature**.  Cnt2Crd only compares a
request against pool queries with the identical FROM clause (Section 2), so
a worker holding a signature's complete bucket computes exactly the bits the
full-pool stack would — which is what makes cluster-mode estimates
bit-identical to local mode in reference (float64) inference.

* :mod:`repro.cluster.protocol` — length-prefixed JSON frames, versioned
  message schema, and :class:`repro.serving.ServingError`-taxonomy
  round-tripping (a worker-side ``DeadlineExceededError`` arrives as the
  same class, message preserved).
* :mod:`repro.cluster.worker` — the long-lived worker process: cold-boots
  its shard from the promoted artifact generation
  (:meth:`repro.serving.ServingClient.from_artifact`) or from the forked
  config, owns the pool slice of its assigned signatures, serves the wire
  protocol (a thread per connection, one request at a time on each) with its
  own dispatcher/caches/recorder (``worker-<shard>@gen<N>`` event source).
* :mod:`repro.cluster.router` — the blocking front-end (a round trip is one
  socket exchange on the caller's thread over a pooled connection): routes
  each request to the shard owning its FROM-signature, fans
  ``estimate_many`` out across shards and reassembles in order, enforces
  per-request deadlines, and turns worker death into bounded retries +
  :class:`repro.serving.WorkerUnavailableError`.
* :mod:`repro.cluster.supervisor` — spawns/monitors/restarts workers
  (restarts re-boot from the *promoted* artifact generation), graceful
  drain, a control server for ``scripts/cluster_tool.py``, and the
  ``cluster.json`` runtime file.

Callers never import this package directly: setting
``ServingConfig.cluster.mode = "cluster"`` makes
:class:`repro.serving.ServingClient` drive it transparently — same
``estimate`` / ``estimate_many`` / ``estimate_future`` surface, same error
taxonomy, same config object.  See the "Cluster serving" section of
``docs/architecture.md`` and ``examples/cluster_serving.py``.
"""

from repro.cluster.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    decode_frame,
    encode_frame,
    error_from_payload,
    error_to_payload,
    options_from_payload,
    options_to_payload,
    read_frame,
    result_from_payload,
    result_to_payload,
)
from repro.cluster.router import ClusterRouter
from repro.cluster.supervisor import ClusterSupervisor
from repro.cluster.worker import (
    WorkerServer,
    WorkerSpec,
    assign_shards,
    boot_worker_client,
    slice_pool,
    stable_shard,
    worker_source,
)

__all__ = [
    "ClusterRouter",
    "ClusterSupervisor",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "WorkerServer",
    "WorkerSpec",
    "assign_shards",
    "boot_worker_client",
    "decode_frame",
    "encode_frame",
    "error_from_payload",
    "error_to_payload",
    "options_from_payload",
    "options_to_payload",
    "read_frame",
    "result_from_payload",
    "result_to_payload",
    "slice_pool",
    "stable_shard",
    "worker_source",
]
