"""The five serving workloads.

Each workload is a closed loop driven by one generator thread: the next
request is sent only after the previous one completed.  A round is a fixed
number of requests, so counts repeat exactly from run to run; the runner
decides how many rounds to measure.  ``why`` records the reason each
workload exists (which layers do its work); ``bench/README.md`` expands it.

The program is driven only through its public surface: ``parse_query``,
``ServingClient`` / ``ServingConfig`` and its sections, ``QueriesPool``.
"""

from __future__ import annotations

import io
import math
import os
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core import QueriesPool
from repro.serving import (
    ArtifactConfig,
    ClusterConfig,
    InferenceConfig,
    ObservabilityConfig,
    ServingClient,
    ServingConfig,
    TracingConfig,
)
from repro.sql import format_query, parse_query

from bench.world import World, bucket_queries, bucket_requests, generated_queries

#: Requests compared with the reference client after the timed rounds.
VERIFY_SAMPLES = 64
#: Relative tolerance of compiled-float32 estimates against reference float64.
F32_TOLERANCE = 1e-3

_COMPILED_F32 = InferenceConfig(mode="compiled", slab_dtype="float32")
_clock = time.perf_counter


@dataclass
class Round:
    """What one timed round observed."""

    wall_s: float
    #: Seconds per operation (a request; a 32-request burst in session_burst).
    latencies: list[float]
    #: ``(request index, EstimateResult)`` of every answered request.
    results: list[tuple[int, object]]
    #: Operations that raised.
    raised: int = 0
    first_error: str = ""
    #: Named extra samples (seconds), e.g. add latencies.
    extra: dict[str, list[float]] = field(default_factory=dict)

    @property
    def requests(self) -> int:
        return len(self.results) + self.raised

    @property
    def completed(self) -> int:
        """Requests answered plus pool adds — the numerator of ``throughput_qps``."""
        return len(self.results) + len(self.extra.get("add", ()))


class Workload:
    """Set-up, one timed round, verification and teardown of a workload."""

    name = ""
    why = ""
    #: Whether requests carry oracle-true cardinalities (q-error is defined).
    has_truth = False
    #: Verification must match the reference bit for bit (else F32_TOLERANCE).
    exact = False
    #: Requests in one round (at full scale).
    ROUND_REQUESTS = 0

    def __init__(self) -> None:
        self.world: World | None = None
        self.client: ServingClient | None = None
        self.pool: QueriesPool | None = None
        self.requests: list[str] = []
        self.truths: list[int] = []
        self.stages: dict[str, float] = {}

    # -- lifecycle ------------------------------------------------------ #

    def setup(self, world: World, workdir: str) -> None:
        raise NotImplementedError

    def run_round(
        self, index: int, parse: Callable = parse_query, tag: Callable | None = None
    ) -> Round:
        """One timed round: this round's slice of the endless cycle over the
        requests, one synchronous ``estimate`` each.  ``parse`` and ``tag``
        are the traced run's hooks: a span-wrapped parser and the recorder's
        request-id setter."""
        return self._serve(self._round_indices(index), parse, tag)

    def flush(self) -> float | None:
        """Flush buffered telemetry between rounds, outside every timed
        window; returns the seconds it took, ``None`` with nothing to flush."""
        return None

    def probes(self) -> dict[str, float | None]:
        """Per-layer measurements taken once, outside the timed rounds."""
        return {}

    def reference_client(self) -> ServingClient:
        """A freshly built local reference-float64 client over the same pool."""
        return ServingClient(
            ServingConfig(
                model=self.world.model,
                featurizer=self.world.featurizer,
                pool=self.pool,
            )
        )

    def answer(self, sql: str):
        """One request through the workload's own request path."""
        return self.client.estimate(parse_query(sql))

    def verify(self) -> tuple[int, int, str]:
        """``(checked, mismatched, first mismatch)`` on sampled requests."""
        rng = random.Random(self.world.seed * 1000 + 999)
        sample = rng.sample(
            range(len(self.requests)), min(VERIFY_SAMPLES, len(self.requests))
        )
        reference = self.reference_client()
        mismatched, first = 0, ""
        try:
            for index in sample:
                sql = self.requests[index]
                got = self.answer(sql).estimate
                want = reference.estimate(parse_query(sql)).estimate
                if self.exact:
                    same = got == want
                else:
                    same = math.isclose(got, want, rel_tol=F32_TOLERANCE, abs_tol=1e-9)
                if not same:
                    mismatched += 1
                    first = first or f"{sql!r}: got {got!r}, reference {want!r}"
        finally:
            reference.shutdown()
        return len(sample), mismatched, first

    def teardown(self) -> None:
        if self.client is not None:
            self.client.shutdown()
            self.client = None

    # -- shared pieces --------------------------------------------------- #

    def _generated_pool(self, pool_size: int, request_count: int) -> None:
        """Generator-made pool and requests, both with oracle-true labels."""
        started = _clock()
        scale = self.world.scale
        pool = generated_queries(self.world, scale.count(pool_size, 40), 1, True)
        requests = generated_queries(
            self.world, scale.count(request_count, 40), 2, False
        )
        self.stages["db.oracle.label_s"] = _clock() - started
        self.pool = QueriesPool.from_labeled_queries(pool)
        self.requests = [format_query(item.query) for item in requests]
        self.truths = [item.cardinality for item in requests]

    def _bucket_pool(self, pool_size: int, request_count: int, spare: int = 0) -> list:
        """Two-signature synthetic pool; returns ``spare`` unused pool queries."""
        scale = self.world.scale
        size = scale.count(pool_size, 64)
        rng = random.Random(self.world.seed * 1000 + 5)
        queries = [
            parse_query(sql) for sql in bucket_queries(self.world, size + spare, 3)
        ]
        self.pool = QueriesPool()
        for query in queries[:size]:
            self.pool.add(query, rng.randint(1, 1000))
        self.requests = bucket_requests(self.world, scale.count(request_count, 8), 4)
        return [(query, rng.randint(1, 1000)) for query in queries[size:]]

    def _build(self, **sections) -> ServingClient:
        started = _clock()
        client = ServingClient(
            ServingConfig(
                model=self.world.model,
                featurizer=self.world.featurizer,
                pool=self.pool,
                **sections,
            )
        )
        self.stages["serving.client.build_s"] = _clock() - started
        return client

    def _round_indices(self, index: int) -> list[int]:
        count = self.world.scale.count(self.ROUND_REQUESTS, 8)
        total = len(self.requests)
        return [(index * count + offset) % total for offset in range(count)]

    def _serve(
        self,
        indices: Sequence[int],
        parse: Callable,
        tag: Callable | None,
        before: Callable[[int], None] | None = None,
    ) -> Round:
        """Closed loop over ``indices``: SQL text in, ``EstimateResult`` out."""
        requests, estimate = self.requests, self.client.estimate
        latencies: list[float] = []
        results: list[tuple[int, object]] = []
        raised, first_error = 0, ""
        round_started = _clock()
        for position, index in enumerate(indices):
            if tag is not None:
                tag(position)
            if before is not None:
                before(position)
            started = _clock()
            try:
                result = estimate(parse(requests[index]))
            except Exception as error:  # a failed request is a counted outcome
                raised += 1
                first_error = first_error or f"{type(error).__name__}: {error}"
                continue
            latencies.append(_clock() - started)
            results.append((index, result))
        wall = _clock() - round_started
        return Round(
            wall_s=wall,
            latencies=latencies,
            results=results,
            raised=raised,
            first_error=first_error,
        )


class PaperPool(Workload):
    name = "paper_pool"
    why = (
        "the paper's deployment on the default config: per-request Python glue "
        "and the reference pair head do the work, BLAS does little"
    )
    has_truth = True
    exact = True
    ROUND_REQUESTS = 1000

    def setup(self, world: World, workdir: str) -> None:
        self.world = world
        self._generated_pool(300, 400)
        root = os.path.join(workdir, "artifacts")
        self.built = self._build(artifacts=ArtifactConfig(root=root))
        started = _clock()
        self.client = ServingClient.from_artifact(root, database=world.database)
        self.stages["artifacts.boot_s"] = _clock() - started

    def reference_client(self) -> ServingClient:
        # The client the artifact was saved from: booted vs built, bit for bit.
        return self.built

    def teardown(self) -> None:
        self.built.shutdown()
        super().teardown()


class BigBucket(Workload):
    name = "big_bucket"
    why = (
        "two FROM signatures with 4096-entry buckets on compiled float32: the "
        "kernel and the collapse are the request, glue is a few percent"
    )
    ROUND_REQUESTS = 200

    def setup(self, world: World, workdir: str) -> None:
        self.world = world
        self._bucket_pool(8192, 95)
        self.client = self._build(inference=_COMPILED_F32)



class SessionBurst(Workload):
    name = "session_burst"
    why = (
        "optimizer sessions submit 32-request bursts with repeats through the "
        "dispatcher with observability and tracing on: coalescing, dedup, "
        "the fused slab run and the event log do the work"
    )
    has_truth = True
    ROUND_BURSTS = 70
    DRAWN, REPEATED = 24, 8

    def setup(self, world: World, workdir: str) -> None:
        self.world = world
        self._generated_pool(2000, 400)
        self.client = self._build(
            inference=_COMPILED_F32,
            observability=ObservabilityConfig(enabled=True),
            tracing=TracingConfig(enabled=True),
        ).__enter__()

    def answer(self, sql: str):
        return self.client.estimate_future(parse_query(sql)).result()

    def run_round(self, index, parse=parse_query, tag=None) -> Round:
        rng = random.Random(self.world.seed * 1000 + 100 + index)
        total = len(self.requests)
        bursts = []
        for _ in range(self.world.scale.count(self.ROUND_BURSTS, 3)):
            drawn = [rng.randrange(total) for _ in range(self.DRAWN)]
            burst = drawn + [rng.choice(drawn) for _ in range(self.REPEATED)]
            rng.shuffle(burst)
            bursts.append(burst)
        requests, submit = self.requests, self.client.estimate_future
        latencies: list[float] = []
        results: list[tuple[int, object]] = []
        raised, first_error = 0, ""
        round_started = _clock()
        for position, burst in enumerate(bursts):
            if tag is not None:
                tag(position)
            started = _clock()
            futures = [submit(parse(requests[request])) for request in burst]
            failed = False
            for request, future in zip(burst, futures):
                try:
                    results.append((request, future.result()))
                except Exception as error:  # a failed request is a counted outcome
                    raised += 1
                    failed = True
                    first_error = first_error or f"{type(error).__name__}: {error}"
            if not failed:
                latencies.append(_clock() - started)
        wall = _clock() - round_started
        return Round(
            wall_s=wall,
            latencies=latencies,
            results=results,
            raised=raised,
            first_error=first_error,
        )

    def flush(self) -> float:
        started = _clock()
        self.client.recorder.flush()
        return _clock() - started


class PoolChurn(Workload):
    name = "pool_churn"
    why = (
        "big_bucket's layers with writes beside reads: a pool add before every "
        "4th estimate exercises index appends and slab-token invalidation"
    )
    ROUND_REQUESTS = 320
    ADD_EVERY = 4

    def setup(self, world: World, workdir: str) -> None:
        self.world = world
        self.adds = self._bucket_pool(4096, 95, spare=world.scale.count(4000, 40))
        self.next_add = 0
        self.client = self._build(inference=_COMPILED_F32)

    def run_round(self, index, parse=parse_query, tag=None) -> Round:
        add_seconds: list[float] = []
        add = self.pool.add

        def before(position: int) -> None:
            if position % self.ADD_EVERY == 0:
                query, cardinality = self.adds[self.next_add % len(self.adds)]
                self.next_add += 1
                started = _clock()
                add(query, cardinality)
                add_seconds.append(_clock() - started)

        sample = self._serve(self._round_indices(index), parse, tag, before)
        sample.extra["add"] = add_seconds
        # Latencies line up with positions only when nothing raised.
        if not sample.raised:
            sample.extra["read_after_add"] = sample.latencies[:: self.ADD_EVERY]
        return sample


class ClusterRoundtrip(Workload):
    name = "cluster_roundtrip"
    why = (
        "single requests through the router to two worker processes: the only "
        "workload where the wire protocol, router and workers run"
    )
    has_truth = True
    ROUND_REQUESTS = 250
    BATCH_CALLS, BATCH_SIZE = 50, 32

    def setup(self, world: World, workdir: str) -> None:
        self.world = world
        self._generated_pool(2000, 400)
        client = self._build(
            inference=_COMPILED_F32,
            cluster=ClusterConfig(
                mode="cluster", num_workers=2, drain_timeout_seconds=2.0
            ),
        )
        started = _clock()
        self.client = client.__enter__()
        self.stages["cluster.supervisor.boot_s"] = _clock() - started

    def run_round(self, index, parse=parse_query, tag=None) -> Round:
        sample = super().run_round(index, parse, tag)
        if not sample.raised:
            served = [result.latency_seconds for _, result in sample.results]
            sample.extra["worker_service"] = served
            sample.extra["wire_overhead"] = [
                total - inside for total, inside in zip(sample.latencies, served)
            ]
        return sample

    def probes(self) -> dict[str, float | None]:
        calls = self.world.scale.count(self.BATCH_CALLS, 2)
        total = len(self.requests)
        started = _clock()
        for call in range(calls):
            batch = [
                parse_query(self.requests[(call * self.BATCH_SIZE + k) % total])
                for k in range(self.BATCH_SIZE)
            ]
            self.client.estimate_many(batch)
        rate = calls * self.BATCH_SIZE / (_clock() - started)
        measured: dict[str, float | None] = {"cluster.router.batch32_qps": rate}
        measured.update(self._frame_costs())
        return measured

    def teardown(self) -> None:
        if self.client is not None:
            started = _clock()
            super().teardown()
            self.stages["cluster.supervisor.shutdown_s"] = _clock() - started

    def _frame_costs(self) -> dict[str, float | None]:
        """Encode/decode cost and size of this run's own wire payloads.

        One round trip encodes and decodes one request and one response
        frame (router and worker between them), so both are timed here, in
        this process, on the messages the run itself produced.
        """
        names = (
            "cluster.protocol.encode.self_ms",
            "cluster.protocol.decode.self_ms",
            "cluster.protocol.request_bytes",
            "cluster.protocol.response_bytes",
        )
        try:
            from repro.cluster import protocol

            build_request = protocol.estimate_request
            build_response = protocol.result_response
            encode, read = protocol.encode_frame, protocol.read_frame
        except (ImportError, AttributeError):
            return dict.fromkeys(names)
        encode_s = decode_s = 0.0
        sizes = [0, 0]
        sample = self.requests[:VERIFY_SAMPLES]
        for index, sql in enumerate(sample):
            query = parse_query(sql)
            result = self.client.estimate(query)
            messages = (
                build_request(index, query, None),
                build_response(index, result),
            )
            for kind, message in enumerate(messages):
                started = _clock()
                frame = encode(message)
                encoded = _clock()
                read(io.BytesIO(frame))
                decode_s += _clock() - encoded
                encode_s += encoded - started
                sizes[kind] += len(frame)
        per_trip = (encode_s * 1000.0, decode_s * 1000.0, sizes[0], sizes[1])
        return {name: value / len(sample) for name, value in zip(names, per_trip)}


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload
    for workload in (PaperPool, BigBucket, SessionBurst, PoolChurn, ClusterRoundtrip)
}
