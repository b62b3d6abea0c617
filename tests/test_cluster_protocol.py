"""Unit tests for the cluster wire protocol: framing, versioning, fidelity.

Everything here runs in-process — no sockets, no workers.  The contract
under test is the one the cluster's correctness rests on: frames survive
the stream boundary or fail loudly (never a silent misparse), and typed
payloads — queries, options, results, and above all the error taxonomy —
round-trip without loss.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.artifacts.bundle import query_to_mapping
from repro.cluster import protocol
from repro.serving.errors import (
    ArtifactChecksumError,
    ClusterError,
    ClusterProtocolError,
    DeadlineExceededError,
    NoMatchingPoolQueryError,
    WorkerUnavailableError,
)
from repro.serving.service import EstimateResult, RequestOptions
from repro.sql.builder import QueryBuilder


def sample_query():
    return (
        QueryBuilder()
        .table("movies", "m")
        .table("ratings", "r")
        .join("m.id", "r.movie_id")
        .where("m.year", ">", 2000)
        .build()
    )


class TestFraming:
    def test_encode_read_round_trip(self):
        message = protocol.estimate_request(7, query_to_mapping(sample_query()), None)
        stream = io.BytesIO(protocol.encode_frame(message))
        assert protocol.read_frame(stream) == message

    def test_many_frames_on_one_stream(self):
        messages = [protocol.health_request(i) for i in range(5)]
        stream = io.BytesIO(b"".join(protocol.encode_frame(m) for m in messages))
        for message in messages:
            assert protocol.read_frame(stream) == message
        assert protocol.read_frame(stream) is None  # clean EOF

    def test_torn_length_prefix_is_a_protocol_error(self):
        stream = io.BytesIO(b"\x00\x00")
        with pytest.raises(ClusterProtocolError, match="length prefix"):
            protocol.read_frame(stream)

    def test_truncated_payload_is_a_protocol_error(self):
        frame = protocol.encode_frame(protocol.health_request(1))
        stream = io.BytesIO(frame[:-3])
        with pytest.raises(ClusterProtocolError, match="ended inside a frame"):
            protocol.read_frame(stream)

    def test_oversized_length_is_rejected_before_allocation(self):
        stream = io.BytesIO(b"\xff\xff\xff\xff")
        with pytest.raises(ClusterProtocolError, match="cap"):
            protocol.read_frame(stream)

    def test_version_mismatch_is_rejected(self):
        message = protocol.health_request(1)
        message["v"] = protocol.PROTOCOL_VERSION + 1
        with pytest.raises(ClusterProtocolError, match="version mismatch"):
            protocol.read_frame(io.BytesIO(protocol.encode_frame(message)))

    def test_non_object_payload_is_rejected(self):
        import struct

        payload = b"[1,2,3]"
        frame = struct.pack(">I", len(payload)) + payload
        with pytest.raises(ClusterProtocolError, match="JSON object"):
            protocol.read_frame(io.BytesIO(frame))

    def test_garbage_payload_is_rejected(self):
        import struct

        payload = b"\xfe\xfd not json"
        frame = struct.pack(">I", len(payload)) + payload
        with pytest.raises(ClusterProtocolError, match="not valid JSON"):
            protocol.read_frame(io.BytesIO(frame))


class TestQueryPayloads:
    def test_query_survives_the_wire_exactly(self):
        query = sample_query()
        rebuilt = protocol.decode_query(query_to_mapping(query))
        assert query_to_mapping(rebuilt) == query_to_mapping(query)
        assert rebuilt.from_signature() == query.from_signature()

    def test_invalid_wire_query_is_a_protocol_error(self):
        with pytest.raises(ClusterProtocolError, match="invalid wire query"):
            protocol.decode_query({"tables": "nonsense"})

    def test_nan_predicate_value_is_a_protocol_error(self):
        payload = query_to_mapping(sample_query())
        payload["predicates"] = [["m", "year", ">", float("nan")]]
        with pytest.raises(ClusterProtocolError, match="NaN"):
            protocol.decode_query(payload)


class TestOptionsPayloads:
    def test_payload_carries_the_deadline_and_the_tags_only(self):
        payload = protocol.options_to_payload(RequestOptions(timeout_seconds=1.0, tags={"a": "b"}))
        assert payload == {"timeout_seconds": 1.0, "tags": [["a", "b"]]}

    def test_none_stays_none(self):
        assert protocol.options_to_payload(None) is None
        assert protocol.options_from_payload(None) is None

    def test_full_options_round_trip(self):
        options = RequestOptions(timeout_seconds=2.5, tags={"trace": "t-17", "tenant": "a"})
        rebuilt = protocol.options_from_payload(protocol.options_to_payload(options))
        assert rebuilt == options
        assert rebuilt.tags == options.tags  # sorted-tuple normalization held
        # An older peer's estimator key names the one served estimator.
        older = {"estimator": "crn", **protocol.options_to_payload(options)}
        assert protocol.options_from_payload(older) == options

    def test_invalid_options_are_a_protocol_error(self):
        for timeout in (-3.0, float("nan"), float("inf")):
            with pytest.raises(ClusterProtocolError, match="invalid request options"):
                protocol.options_from_payload({"timeout_seconds": timeout})

    def test_a_json_true_timeout_is_a_protocol_error(self):
        # JSON true decodes to a Python bool, which is an int: it used to be
        # accepted as a 1-second deadline.
        payload = json.loads('{"estimator": "crn", "timeout_seconds": true}')
        with pytest.raises(ClusterProtocolError, match="timeout_seconds"):
            protocol.options_from_payload(payload)


class TestResultPayloads:
    def make_result(self, **overrides):
        fields = dict(
            query=sample_query(),
            estimate=1234.5678901234567,
            estimator_name="crn",
            latency_seconds=0.0042,
            pool_matches=3,
            pairs_scored=9,
            used_fallback=False,
            resolution="indexed_slab",
            model_generation=2,
            featurization_cache_hits=1,
            encoding_cache_hits=4,
            tags=(("trace", "t-1"),),
            queue_wait_seconds=0.0003,
        )
        fields.update(overrides)
        return EstimateResult(**fields)

    def test_every_provenance_field_round_trips(self):
        result = self.make_result()
        payload = protocol.result_to_payload(result)
        assert "query" not in payload  # the router re-attaches its own
        rebuilt = protocol.result_from_payload(payload, result.query)
        assert rebuilt == result

    def test_floats_round_trip_bit_exactly(self):
        # JSON numbers repr-round-trip doubles exactly; the bit-identity
        # contract depends on it, so pin it against awkward values.
        import json

        for value in (0.1, 1 / 3, 2.0**-52, 1e300, 123456789.000000001):
            result = self.make_result(estimate=value)
            payload = json.loads(json.dumps(protocol.result_to_payload(result)))
            rebuilt = protocol.result_from_payload(payload, result.query)
            assert rebuilt.estimate == value
            assert rebuilt.estimate.hex() == value.hex()

    def test_missing_field_is_a_protocol_error(self):
        payload = protocol.result_to_payload(self.make_result())
        del payload["model_generation"]
        with pytest.raises(ClusterProtocolError, match="invalid result payload"):
            protocol.result_from_payload(payload, sample_query())


class TestErrorFidelity:
    @pytest.mark.parametrize("cls", sorted(protocol.ERROR_KINDS.values(), key=repr))
    def test_every_taxonomy_member_round_trips_as_itself(self, cls):
        original = cls(f"synthetic {cls.__name__} message")
        rebuilt = protocol.error_from_payload(protocol.error_to_payload(original))
        assert type(rebuilt) is cls
        assert str(rebuilt) == str(original)

    def test_stdlib_bases_survive_the_round_trip(self):
        cases = [
            (DeadlineExceededError("late"), TimeoutError),
            (WorkerUnavailableError("gone"), ConnectionError),
            (ClusterProtocolError("torn"), ValueError),
            (NoMatchingPoolQueryError("empty bucket"), LookupError),
            (ArtifactChecksumError("bad digest"), Exception),
        ]
        for original, stdlib_base in cases:
            rebuilt = protocol.error_from_payload(protocol.error_to_payload(original))
            assert isinstance(rebuilt, stdlib_base)
            assert isinstance(rebuilt, type(original))

    def test_unregistered_subclass_folds_to_nearest_registered_base(self):
        class CustomDeadline(DeadlineExceededError):
            pass

        payload = protocol.error_to_payload(CustomDeadline("too slow"))
        assert payload["kind"] == "DeadlineExceededError"
        assert "CustomDeadline" in payload["message"]
        rebuilt = protocol.error_from_payload(payload)
        assert type(rebuilt) is DeadlineExceededError

    def test_foreign_exception_folds_to_cluster_error(self):
        payload = protocol.error_to_payload(ZeroDivisionError("1/0"))
        assert payload["kind"] == "ClusterError"
        assert "ZeroDivisionError" in payload["message"]
        rebuilt = protocol.error_from_payload(payload)
        assert type(rebuilt) is ClusterError

    def test_unknown_wire_kind_folds_to_cluster_error(self):
        rebuilt = protocol.error_from_payload(
            {"kind": "FutureError", "message": "from a newer peer"}
        )
        assert type(rebuilt) is ClusterError
        assert "FutureError" in str(rebuilt)


class TestRoundtripHelper:
    def test_roundtrip_against_a_live_socket(self):
        import socket
        import threading

        server = socket.create_server(("127.0.0.1", 0))

        def echo_once():
            connection, _ = server.accept()
            with connection, connection.makefile("rb") as stream:
                message = protocol.read_frame(stream)
                connection.sendall(
                    protocol.encode_frame(
                        protocol.drain_response(message["id"], shard=0)
                    )
                )

        thread = threading.Thread(target=echo_once, daemon=True)
        thread.start()
        address = ("127.0.0.1", server.getsockname()[1])
        reply = protocol.roundtrip(address, protocol.drain_request(11), timeout=5.0)
        assert reply["type"] == "drain_ack"
        assert reply["id"] == 11
        thread.join(timeout=5.0)
        server.close()

    def test_unanswered_close_is_worker_unavailable(self):
        import socket
        import threading

        server = socket.create_server(("127.0.0.1", 0))

        def hang_up():
            connection, _ = server.accept()
            with connection, connection.makefile("rb") as stream:
                protocol.read_frame(stream)  # consume the request, answer nothing

        thread = threading.Thread(target=hang_up, daemon=True)
        thread.start()
        address = ("127.0.0.1", server.getsockname()[1])
        with pytest.raises(WorkerUnavailableError, match="without answering"):
            protocol.roundtrip(address, protocol.health_request(1), timeout=5.0)
        thread.join(timeout=5.0)
        server.close()

    def test_connection_operations_share_one_deadline(self):
        import socket
        import threading
        import time

        server = socket.create_server(("127.0.0.1", 0))
        answer = threading.Event()

        def answer_late():
            connection, _ = server.accept()
            with connection, connection.makefile("rb") as stream:
                message = protocol.read_frame(stream)
                answer.wait(10.0)  # long past the caller's deadline
                connection.sendall(
                    protocol.encode_frame(protocol.drain_response(message["id"], 0))
                )

        thread = threading.Thread(target=answer_late, daemon=True)
        thread.start()
        connection = protocol.Connection(
            ("127.0.0.1", server.getsockname()[1]), timeout=5.0
        )
        try:
            deadline = time.monotonic() + 0.2
            connection.send(protocol.drain_request(3), deadline)
            with pytest.raises(TimeoutError):
                connection.receive(deadline)
            # The 5 s connect timeout does not linger on the socket: the
            # read was armed with what was left of the 0.2 s.
            assert time.monotonic() - deadline < 2.0
            # Past the deadline nothing touches the socket any more.
            with pytest.raises(TimeoutError, match="deadline passed"):
                connection.send(protocol.drain_request(4), deadline)
            with pytest.raises(TimeoutError, match="deadline passed"):
                connection.receive(deadline)
        finally:
            connection.close()
            answer.set()
            thread.join(timeout=5.0)
            server.close()
        assert not thread.is_alive()
