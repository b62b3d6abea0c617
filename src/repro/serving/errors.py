"""The unified serving error taxonomy.

Every failure the serving layer raises on a request path derives from
:class:`ServingError`, so a caller can wrap any client/service/dispatcher
interaction in one ``except ServingError`` instead of memorizing which layer
raises what.  Each member also keeps its legacy base class
(``TimeoutError`` / ``RuntimeError``), so pre-redesign callers
catching the old types keep working unchanged:

* :class:`DeadlineExceededError` — a caller's per-request deadline
  (:attr:`repro.serving.RequestOptions.timeout_seconds`, or the ``timeout``
  of :meth:`repro.serving.ServingDispatcher.estimate`) expired before the
  dispatcher served the request.  Also a ``TimeoutError``; the abandoned
  request is cancelled at batch pickup when possible and counted under the
  dispatcher's ``timed_out`` stat.
* :class:`DispatcherShutdownError` — a submission raced past
  :meth:`repro.serving.ServingDispatcher.shutdown`.  Also a ``RuntimeError``.
* :class:`ArtifactError` — the durable-artifact subtree
  (:mod:`repro.artifacts`): :class:`ArtifactSchemaError` for a manifest that
  fails validation (also a ``ValueError``), :class:`ArtifactChecksumError`
  for a bundle whose bytes do not match their recorded SHA-256 digests
  (truncation, bit rot, a torn write — never a silent partial boot), and
  :class:`ArtifactNotFoundError` for a missing store root, generation, or
  bundle file (also a ``FileNotFoundError``).
* :class:`ClusterError` — the sharded multi-process subtree
  (:mod:`repro.cluster`): :class:`WorkerUnavailableError` when no healthy
  worker owns a request's shard after the router's bounded retries (also a
  ``ConnectionError``), and :class:`ClusterProtocolError` when a wire frame
  fails protocol validation — framing, version, or message schema (also a
  ``ValueError``).  Errors raised *inside* a worker do not land here: the
  wire protocol round-trips the whole taxonomy by name, so a worker-side
  :class:`DeadlineExceededError` surfaces from the cluster client as a
  :class:`DeadlineExceededError` with the worker's message.
* :class:`repro.core.cnt2crd.NoMatchingPoolQueryError` is re-exported here as
  a taxonomy member: it predates the serving layer (the Cnt2Crd
  technique itself raises it), so it cannot subclass :class:`ServingError`
  without inverting the core → serving dependency — but every serving-layer
  surface that raises it is documented to, and catching it by this module's
  name keeps request handlers on one import.
"""

from __future__ import annotations

from repro.core.cnt2crd import NoMatchingPoolQueryError

__all__ = [
    "ArtifactChecksumError",
    "ArtifactError",
    "ArtifactNotFoundError",
    "ArtifactSchemaError",
    "ClusterError",
    "ClusterProtocolError",
    "DeadlineExceededError",
    "DispatcherShutdownError",
    "NoMatchingPoolQueryError",
    "ServingError",
    "WorkerUnavailableError",
]


class ServingError(Exception):
    """Base class of every error the serving layer itself raises."""


class DeadlineExceededError(ServingError, TimeoutError):
    """A per-request deadline expired before the request was served.

    Subclasses ``TimeoutError`` (which ``concurrent.futures.TimeoutError``
    aliases), so callers waiting on dispatcher futures with plain timeouts
    keep working.
    """


class DispatcherShutdownError(ServingError, RuntimeError):
    """Raised by :meth:`repro.serving.ServingDispatcher.submit` after shutdown began."""


class ArtifactError(ServingError):
    """Base class of every durable-artifact failure (:mod:`repro.artifacts`)."""


class ArtifactSchemaError(ArtifactError, ValueError):
    """An artifact manifest failed schema validation.

    Raised for an unsupported format version, missing or unknown manifest
    fields, and field values of the wrong type — each named in the message.
    Also a ``ValueError``, matching the config layer's validation errors.
    """


class ArtifactChecksumError(ArtifactError):
    """A bundle's bytes do not match the manifest's recorded digests.

    Truncated files, flipped bits, and torn writes all land here — loading
    refuses the whole bundle rather than booting from a partially valid
    snapshot.  The message names the offending file and both digests.
    """


class ArtifactNotFoundError(ArtifactError, FileNotFoundError):
    """A store root, generation, or bundle file does not exist on disk.

    Also a ``FileNotFoundError``, so path-oriented callers (the artifact
    CLI, deployment scripts) can keep their existing handling.
    """


class ClusterError(ServingError):
    """Base class of every sharded-cluster failure (:mod:`repro.cluster`).

    Worker boot failures, drained/failed shards, and worker-raised errors
    whose type the wire protocol does not know all surface as this class;
    the two subtypes below cover the router and the protocol specifically.
    """


class WorkerUnavailableError(ClusterError, ConnectionError):
    """No healthy worker owns the request's shard.

    Raised by the cluster router after its bounded retry budget is exhausted
    — the worker process died and has not been restarted yet, its shard was
    drained, or the supervisor gave up restarting it.  Also a
    ``ConnectionError``, so generic network handling keeps working.
    """


class ClusterProtocolError(ClusterError, ValueError):
    """A wire frame failed protocol validation.

    Covers framing (truncated or oversized frames), a protocol version the
    receiver does not speak, and messages that are not valid JSON objects of
    a known type.  Also a ``ValueError``, matching the config layer's
    validation errors.
    """
