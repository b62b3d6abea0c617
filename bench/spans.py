"""Outside-in span recorder: wraps public callables of the program.

The traced run patches a fixed table of *public* callables with wrappers
that record ``(name, start, end, parent, request id)`` in memory.  Nothing in
``src/`` knows about it; program-internal spans are a later issue.  A wrap
point that a refactor removed is reported as missing (its metric reads
``null``) and never fails the run.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Sequence

#: ``(span name, module, attribute path)`` — the layer boundaries of a
#: request, outermost first.  Several callables may share one span name.
REQUEST_WRAP_POINTS: tuple[tuple[str, str, str], ...] = (
    ("serving.service.submit_batch", "repro.serving.service", "EstimationService.submit_batch"),
    ("serving.planner.plan", "repro.serving.planner", "BatchPlanner.plan"),
    ("serving.pool_index.resolve", "repro.serving.pool_index", "PoolEncodingIndex.resolve"),
    ("core.featurization.featurize", "repro.serving.cache", "FeaturizationCache.featurize"),
    ("core.crn.encode_query", "repro.core.crn", "CRNEstimator.encode_query"),
    ("core.crn.pair_head", "repro.core.crn", "CRNEstimator.rates_against_pools"),
    ("serving.inference_plan.kernel", "repro.serving.inference_plan", "InferencePlan.rates_against_slab"),
    ("serving.inference_plan.kernel", "repro.serving.inference_plan", "InferencePlan.rates_from_encodings"),
    ("core.cnt2crd.collapse", "repro.core.cnt2crd", "Cnt2CrdEstimator.estimate_values_from_rates"),
    ("core.cnt2crd.collapse", "repro.core.cnt2crd", "Cnt2CrdEstimator.collapse_values"),
    ("core.queries_pool.add", "repro.core.queries_pool", "QueriesPool.add"),
    ("cluster.protocol.encode_frame", "repro.cluster.protocol", "encode_frame"),
    ("cluster.protocol.decode_frame", "repro.cluster.protocol", "decode_frame"),
)

#: Wrapped during set-up only, to split ``setup_s`` into its stages.
SETUP_WRAP_POINTS: tuple[tuple[str, str, str], ...] = (
    ("serving.client.warm", "repro.serving.service", "EstimationService.warm"),
    ("serving.client.warm", "repro.serving.pool_index", "PoolEncodingIndex.warm"),
    ("artifacts.save", "repro.artifacts.store", "ArtifactStore.save"),
)


class SpanRecorder:
    """In-memory spans with a per-thread parent stack."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: ``[name, start, end, parent record or None, request id]`` each.
        self.spans: list[list[Any]] = []
        #: Span names none of whose wrap points could be resolved.
        self.missing: set[str] = set()
        self._local = threading.local()

    def set_request(self, request_id: int | None) -> None:
        """Tag spans opened by the calling thread with ``request_id``."""
        self._local.request = request_id

    def wrap(self, name: str, function: Callable) -> Callable:
        """``function`` with a span of ``name`` recorded around every call."""
        spans, local, clock = self.spans, self._local, self.clock

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            record = [
                name,
                clock(),
                None,
                stack[-1] if stack else None,
                getattr(local, "request", None),
            ]
            spans.append(record)
            stack.append(record)
            try:
                return function(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    @contextmanager
    def installed(self, points: Sequence[tuple[str, str, str]]) -> Iterator[None]:
        """Patch every resolvable wrap point; restore all of them on exit."""
        patched: list[tuple[Any, str, Any]] = []
        found: set[str] = set()
        names = {name for name, _, _ in points}
        try:
            for name, module_name, path in points:
                try:
                    owner: Any = importlib.import_module(module_name)
                    *parents, attribute = path.split(".")
                    for part in parents:
                        owner = getattr(owner, part)
                    original = owner.__dict__[attribute]
                except (ImportError, AttributeError, KeyError):
                    continue
                setattr(owner, attribute, self.wrap(name, original))
                patched.append((owner, attribute, original))
                found.add(name)
            self.missing |= names - found
            yield
        finally:
            for owner, attribute, original in reversed(patched):
                setattr(owner, attribute, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total and self seconds.

        A span's self time is its duration minus the part of it its child
        spans cover; children run inside their parent on one thread, so that
        part is the sum of their durations.
        """
        finished = [record for record in self.spans if record[2] is not None]
        child_seconds: dict[int, float] = defaultdict(float)
        for record in finished:
            if record[3] is not None:
                child_seconds[id(record[3])] += record[2] - record[1]
        totals: dict[str, dict[str, float]] = {}
        for record in finished:
            duration = record[2] - record[1]
            entry = totals.setdefault(
                record[0], {"count": 0, "total_s": 0.0, "self_s": 0.0}
            )
            entry["count"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_seconds.get(id(record), 0.0)
        return totals

    def rows(self) -> list[dict[str, Any]]:
        """Every finished span as a JSON-ready row (parents by index)."""
        index = {id(record): position for position, record in enumerate(self.spans)}
        return [
            {
                "id": position,
                "name": record[0],
                "start": record[1],
                "end": record[2],
                "parent": index[id(record[3])] if record[3] is not None else None,
                "request": record[4],
            }
            for position, record in enumerate(self.spans)
            if record[2] is not None
        ]
