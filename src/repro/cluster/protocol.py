"""The cluster wire protocol: length-prefixed JSON frames, versioned messages.

One frame is a 4-byte big-endian payload length followed by that many bytes
of UTF-8 JSON — the smallest framing that survives TCP's stream semantics.
Every message is a JSON object carrying the protocol version (``"v"``), a
caller-chosen request id (``"id"``, echoed on the response so the caller can
check the reply answers *its* request), and a ``"type"`` from the table below:

==================  =============================================  =========
type                meaning                                        direction
==================  =============================================  =========
``estimate``        one query + :class:`RequestOptions`            → worker
``estimate_batch``  an ordered query list (``estimate_many``)      → worker
``health``          liveness / provenance probe                    → worker
``drain``           finish in-flight work, ack, exit               → worker
``control``         supervisor operation (status/drain/restart)    → control
``result``          one :class:`EstimateResult` (sans query)       ← worker
``batch_result``    ordered result list                            ← worker
``error``           a serialized taxonomy error                    ← worker
``health_result``   shard / generation / source / counters         ← worker
``drain_ack``       drain completed                                ← worker
``control_result``  control operation payload                      ← control
==================  =============================================  =========

Queries cross the wire as the artifact layer's structural JSON
(:func:`repro.artifacts.bundle.query_to_mapping`) — exact by construction,
no SQL re-parsing.  Results cross *without* their query: the router owns the
original :class:`~repro.sql.query.Query` object and re-attaches it, so the
response carries only the provenance fields (including ``model_generation``,
which is how generation provenance propagates across the process boundary).

**Error fidelity** is the protocol's main contract: a worker-side exception
is encoded as its taxonomy class name plus message, and
:func:`error_from_payload` rebuilds the *same class* on the router side — a
``DeadlineExceededError`` raised in a worker is a ``DeadlineExceededError``
(still a ``TimeoutError``) from :meth:`repro.serving.ServingClient.estimate`
in cluster mode, message preserved.  An exception type the registry does not
know is folded to its nearest registered base (ultimately
:class:`repro.serving.ClusterError`) with the original type name kept in the
message.

A version mismatch, an oversized frame, or a malformed message raises
:class:`repro.serving.ClusterProtocolError` at the receiving end — never a
silent misparse.
"""

from __future__ import annotations

import json
import socket
import struct
import time
from typing import Any, BinaryIO, Mapping, Sequence

from repro.artifacts.bundle import query_from_mapping, query_to_mapping
from repro.serving.errors import (
    ArtifactChecksumError,
    ArtifactError,
    ArtifactNotFoundError,
    ArtifactSchemaError,
    ClusterError,
    ClusterProtocolError,
    DeadlineExceededError,
    DispatcherShutdownError,
    NoMatchingPoolQueryError,
    ServingError,
    WorkerUnavailableError,
)
from repro.serving.service import EstimateResult, RequestOptions
from repro.sql.query import Query

__all__ = [
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "decode_frame",
    "encode_frame",
    "error_from_payload",
    "error_to_payload",
    "options_from_payload",
    "options_to_payload",
    "read_frame",
    "result_from_payload",
    "result_to_payload",
    "roundtrip",
]

#: Bumped on any incompatible change to framing or message schema; both ends
#: reject frames from a version they do not speak.
PROTOCOL_VERSION = 1

#: Refuse absurd frame lengths before allocating: a desynced stream (or a
#: stray client speaking another protocol) yields garbage lengths, and 64 MiB
#: comfortably covers any real batch of structural query JSON.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct(">I")

#: The taxonomy classes that round-trip by name.  Every member keeps its
#: stdlib bases (``TimeoutError``, ``ConnectionError``, ...), so rebuilt errors
#: satisfy the same ``except`` clauses as the originals.
ERROR_KINDS: dict[str, type[BaseException]] = {
    cls.__name__: cls
    for cls in (
        ServingError,
        DeadlineExceededError,
        DispatcherShutdownError,
        ArtifactError,
        ArtifactSchemaError,
        ArtifactChecksumError,
        ArtifactNotFoundError,
        ClusterError,
        WorkerUnavailableError,
        ClusterProtocolError,
        NoMatchingPoolQueryError,
    )
}


# ---------------------------------------------------------------------- #
# framing


def encode_frame(message: Mapping[str, Any]) -> bytes:
    """One message as a length-prefixed UTF-8 JSON frame."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ClusterProtocolError(
            f"frame of {len(payload)} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )
    return _LENGTH.pack(len(payload)) + payload


def decode_frame(payload: bytes) -> dict[str, Any]:
    """Parse and version-check one frame's payload bytes."""
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ClusterProtocolError(f"frame payload is not valid JSON: {error}") from error
    if not isinstance(message, dict):
        raise ClusterProtocolError(
            f"frame payload must be a JSON object, got {type(message).__name__}"
        )
    version = message.get("v")
    if version != PROTOCOL_VERSION:
        raise ClusterProtocolError(
            f"protocol version mismatch: peer speaks {version!r}, "
            f"this end speaks {PROTOCOL_VERSION}"
        )
    return message


def read_frame(stream: BinaryIO) -> dict[str, Any] | None:
    """Read one frame from a blocking binary stream; ``None`` on clean EOF.

    EOF *inside* a frame (a torn length prefix or a truncated payload) is a
    protocol error, not a clean close.
    """
    prefix = stream.read(_LENGTH.size)
    if not prefix:
        return None
    if len(prefix) < _LENGTH.size:
        raise ClusterProtocolError("stream ended inside a frame length prefix")
    (length,) = _LENGTH.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise ClusterProtocolError(
            f"incoming frame claims {length} bytes, over the "
            f"{MAX_FRAME_BYTES}-byte cap — desynced or foreign stream"
        )
    payload = stream.read(length)
    if payload is None or len(payload) < length:
        raise ClusterProtocolError(
            f"stream ended inside a frame: wanted {length} bytes, "
            f"got {0 if payload is None else len(payload)}"
        )
    return decode_frame(payload)


class Connection:
    """The cluster's one blocking send-frame / read-frame helper.

    The router pools these per shard; :func:`roundtrip` opens one per call.
    ``send`` and ``receive`` arm the socket with what is left of the
    caller's *monotonic deadline*, so a sequence of operations shares one
    budget; running out raises ``TimeoutError``.  After a failed or timed-out
    exchange close it, never reuse it: a late reply would answer the next
    request written on it.
    """

    def __init__(self, address: tuple[str, int], timeout: float) -> None:
        self._socket = socket.create_connection(address, timeout=timeout)
        self._socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._stream = self._socket.makefile("rb")

    def send(self, message: Mapping[str, Any], deadline: float) -> None:
        frame = encode_frame(message)
        self._arm(deadline)
        self._socket.sendall(frame)

    def receive(self, deadline: float) -> dict[str, Any] | None:
        """The next frame, or ``None`` when the peer closed between frames."""
        self._arm(deadline)
        return read_frame(self._stream)

    def _arm(self, deadline: float) -> None:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("deadline passed before the socket operation")
        self._socket.settimeout(remaining)

    def close(self) -> None:
        for part in (self._stream, self._socket):
            try:
                part.close()
            except OSError:
                pass  # closing a connection the peer already reset


def roundtrip(
    address: tuple[str, int], message: Mapping[str, Any], timeout: float
) -> dict[str, Any]:
    """One connect → send → receive exchange within ``timeout`` seconds.

    The supervisor's drain and health probes and ``scripts/cluster_tool.py``
    use this; request traffic reuses :class:`Connection` objects from the
    router's per-shard pool.
    """
    deadline = time.monotonic() + timeout
    connection = Connection(address, timeout)
    try:
        connection.send(message, deadline)
        reply = connection.receive(deadline)
    finally:
        connection.close()
    if reply is None:
        raise WorkerUnavailableError(
            f"peer at {address[0]}:{address[1]} closed the connection "
            f"without answering"
        )
    return reply


# ---------------------------------------------------------------------- #
# message constructors


def _message(message_type: str, request_id: int, **fields: Any) -> dict[str, Any]:
    return {"v": PROTOCOL_VERSION, "id": request_id, "type": message_type, **fields}


def estimate_request(
    request_id: int,
    query: Query | Mapping[str, Any],
    options: RequestOptions | None,
) -> dict[str, Any]:
    """One single-query request (``query`` may be pre-serialized)."""
    payload = query if isinstance(query, Mapping) else query_to_mapping(query)
    return _message(
        "estimate", request_id, query=payload, options=options_to_payload(options)
    )


def batch_request(
    request_id: int,
    queries: Sequence[Mapping[str, Any]],
    options: RequestOptions | None,
) -> dict[str, Any]:
    """One ``estimate_many`` sub-batch of pre-serialized queries."""
    return _message(
        "estimate_batch",
        request_id,
        queries=list(queries),
        options=options_to_payload(options),
    )


def health_request(request_id: int) -> dict[str, Any]:
    return _message("health", request_id)


def drain_request(request_id: int) -> dict[str, Any]:
    return _message("drain", request_id)


def control_request(
    request_id: int, op: str, shard: int | None = None
) -> dict[str, Any]:
    """A supervisor control operation (``status`` / ``drain`` / ``restart``)."""
    return _message("control", request_id, op=op, shard=shard)


def result_response(request_id: int, result: EstimateResult) -> dict[str, Any]:
    return _message("result", request_id, result=result_to_payload(result))


def batch_response(
    request_id: int, results: Sequence[EstimateResult]
) -> dict[str, Any]:
    return _message(
        "batch_result",
        request_id,
        results=[result_to_payload(result) for result in results],
    )


def error_response(request_id: int, error: BaseException) -> dict[str, Any]:
    return _message("error", request_id, error=error_to_payload(error))


def health_response(request_id: int, payload: Mapping[str, Any]) -> dict[str, Any]:
    return _message("health_result", request_id, health=dict(payload))


def drain_response(request_id: int, shard: int) -> dict[str, Any]:
    return _message("drain_ack", request_id, shard=shard)


def control_response(request_id: int, payload: Mapping[str, Any]) -> dict[str, Any]:
    return _message("control_result", request_id, payload=dict(payload))


# ---------------------------------------------------------------------- #
# typed payload encode/decode


def options_to_payload(options: RequestOptions | None) -> dict[str, Any] | None:
    """A :class:`RequestOptions` as plain JSON (``None`` stays ``None``)."""
    if options is None:
        return None
    return {
        "timeout_seconds": options.timeout_seconds,
        "tags": [list(pair) for pair in options.tags],
    }


def options_from_payload(payload: Mapping[str, Any] | None) -> RequestOptions | None:
    """Rebuild :class:`RequestOptions`; its own validation re-runs here."""
    if payload is None:
        return None
    try:
        return RequestOptions(
            timeout_seconds=payload.get("timeout_seconds"),
            tags=tuple(
                (str(key), str(value)) for key, value in payload.get("tags", ())
            ),
        )
    except (TypeError, ValueError) as error:
        raise ClusterProtocolError(f"invalid request options: {error}") from error


#: EstimateResult fields that cross the wire verbatim (everything except the
#: query, re-attached router-side, and ``tags``, which need list↔tuple help).
_RESULT_SCALARS = (
    "estimate",
    "estimator_name",
    "latency_seconds",
    "pool_matches",
    "pairs_scored",
    "used_fallback",
    "resolution",
    "model_generation",
    "featurization_cache_hits",
    "encoding_cache_hits",
    "queue_wait_seconds",
)


def result_to_payload(result: EstimateResult) -> dict[str, Any]:
    """An :class:`EstimateResult` sans query as plain JSON.

    The float fields ride as JSON numbers, which ``repr``-round-trip
    bit-exactly — the cluster's bit-identity contract holds across the wire.
    """
    payload = {name: getattr(result, name) for name in _RESULT_SCALARS}
    payload["tags"] = [list(pair) for pair in result.tags]
    return payload


def result_from_payload(
    payload: Mapping[str, Any], query: Query
) -> EstimateResult:
    """Re-attach the router's original ``query`` to a wire result."""
    try:
        return EstimateResult(
            query=query,
            tags=tuple(
                (str(key), str(value)) for key, value in payload.get("tags", ())
            ),
            **{name: payload[name] for name in _RESULT_SCALARS},
        )
    except (KeyError, TypeError) as error:
        raise ClusterProtocolError(f"invalid result payload: {error}") from error


def error_to_payload(error: BaseException) -> dict[str, Any]:
    """Serialize an exception as its taxonomy kind plus message.

    An unregistered type is folded to its nearest registered ancestor
    (ultimately :class:`ClusterError`), keeping the original type name in
    the message so nothing is silently lost.
    """
    kind = type(error).__name__
    if kind in ERROR_KINDS:
        return {"kind": kind, "message": str(error)}
    for base in type(error).__mro__:
        if base.__name__ in ERROR_KINDS:
            return {
                "kind": base.__name__,
                "message": f"{type(error).__name__}: {error}",
            }
    return {
        "kind": ClusterError.__name__,
        "message": f"worker raised {type(error).__name__}: {error}",
    }


def error_from_payload(payload: Mapping[str, Any]) -> BaseException:
    """Rebuild the taxonomy exception a worker serialized — same class."""
    kind = payload.get("kind")
    message = str(payload.get("message", ""))
    cls = ERROR_KINDS.get(str(kind))
    if cls is None:
        return ClusterError(f"worker raised unknown error kind {kind!r}: {message}")
    return cls(message)


def decode_query(payload: Mapping[str, Any]) -> Query:
    """Rebuild a query, mapping schema failures into the protocol taxonomy."""
    try:
        return query_from_mapping(payload)
    except ArtifactSchemaError as error:
        raise ClusterProtocolError(f"invalid wire query: {error}") from error
