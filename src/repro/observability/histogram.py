"""Fixed-memory log-bucketed latency histograms.

The live serving stats used to answer quantile questions by scanning every
recorded value (the feedback window's numpy sort, the event store's
ORDER-BY-OFFSET query) — exact, but O(n) per question and unbounded in
memory when the caller wants quantiles over *everything ever served*.
:class:`LatencyHistogram` trades a bounded, documented error for O(1)
memory and O(1) recording: values land in geometrically spaced buckets
(each ``growth``× wider than the last), so any quantile is answerable from
the bucket counts alone with at most **one bucket width** of error — with
the default ``growth = 2 ** 0.25``, every answer is within ±19% of the
exact value, at any traffic volume, forever.

Three shapes live here:

* :class:`LatencyHistogram` — the mutable, thread-safe accumulator the
  serving components hold (``record()`` is a bucket-index computation plus
  one locked increment);
* :class:`HistogramSnapshot` — a frozen copy with the same read surface,
  safe to hand across threads;
* the quantile contract — ``quantile(q)`` returns the geometric midpoint of
  the bucket holding rank ``round(q * (count - 1))``, the same rank
  convention as :meth:`repro.observability.EventStore.latency_quantile`, so
  the two agree within one bucket width (pinned by
  ``tests/test_observability_histogram.py``).

Values below ``min_value`` land in an underflow bucket (reported as the
exact minimum seen), values at or above ``max_value`` in an overflow bucket
(reported as the exact maximum seen) — no value is ever dropped, and the
true min/max are tracked exactly regardless of bucketing.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
from dataclasses import dataclass

__all__ = ["HistogramSnapshot", "LatencyHistogram"]

#: Default bucket growth factor: four buckets per doubling (±~9% half-width,
#: ≤19% worst-case quantile error).
DEFAULT_GROWTH = 2.0 ** 0.25


def _bucket_count(min_value: float, max_value: float, growth: float) -> int:
    """Interior buckets covering [min_value, max_value) at ``growth`` spacing."""
    return max(1, math.ceil(math.log(max_value / min_value) / math.log(growth)))


@dataclass(frozen=True)
class HistogramSnapshot:
    """A frozen view of a :class:`LatencyHistogram`.

    ``counts`` has ``len == interior buckets + 2``: index 0 is the underflow
    bucket (< ``min_value``), the last index is the overflow bucket
    (>= ``max_value``), and interior index ``i`` covers
    ``[min_value * growth**(i-1), min_value * growth**i)``.
    """

    min_value: float
    max_value: float
    growth: float
    counts: tuple[int, ...]
    total_sum: float
    min_seen: float
    max_seen: float

    @property
    def count(self) -> int:
        """Total recorded observations."""
        return sum(self.counts)

    @property
    def mean(self) -> float:
        """Exact mean of every recorded value (NaN when empty)."""
        n = self.count
        return self.total_sum / n if n else float("nan")

    def bucket_bounds(self, index: int) -> tuple[float, float]:
        """The ``[low, high)`` value range of bucket ``index``."""
        if index <= 0:
            return 0.0, self.min_value
        if index >= len(self.counts) - 1:
            return self.max_value, float("inf")
        return (
            self.min_value * self.growth ** (index - 1),
            self.min_value * self.growth ** index,
        )

    def _quantile_bucket(self, q: float) -> int:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must lie in [0, 1], got {q!r}")
        n = self.count
        if not n:
            raise ValueError("histogram is empty")
        # Same rank convention as EventStore._value_quantile: the value at
        # offset round(q * (n - 1)) of the sorted sequence.
        rank = min(n - 1, max(0, round(q * (n - 1))))
        cumulative = 0
        for index, bucket in enumerate(self.counts):
            cumulative += bucket
            if rank < cumulative:
                return index
        return len(self.counts) - 1  # pragma: no cover - unreachable

    def quantile(self, q: float) -> float:
        """The ``q`` quantile, within one bucket width of exact (NaN if empty).

        Interior buckets answer with their geometric midpoint, clamped to
        the exact ``[min_seen, max_seen]`` range (a p99 reported above the
        exact maximum reads as a contradiction in a stats table); the
        underflow and overflow buckets answer with the exact min/max seen
        (those are tracked exactly, so the extremes never suffer bucket
        rounding).
        """
        if not self.count:
            return float("nan")
        index = self._quantile_bucket(q)
        if index == 0:
            return self.min_seen
        if index == len(self.counts) - 1:
            return self.max_seen
        low, high = self.bucket_bounds(index)
        return min(max(math.sqrt(low * high), self.min_seen), self.max_seen)

    def quantile_upper_bound(self, q: float) -> float:
        """The exclusive upper edge of the bucket holding the ``q`` quantile.

        A value at or above this edge is strictly slower than anything the
        quantile bucket can hold.  This is the tracer's tail-exemplar
        threshold: requiring a keeper to clear the whole quantile bucket
        means a degenerate distribution (every observation landing in one
        bucket, e.g. a single coalesced batch stamping the identical
        latency on all its members) produces no tail keepers beyond the
        running maximum.  ``inf`` when empty or when the quantile falls in
        the overflow bucket (only a new maximum can qualify there).
        """
        if not self.count:
            return math.inf
        _, high = self.bucket_bounds(self._quantile_bucket(q))
        return high


class LatencyHistogram:
    """A thread-safe fixed-memory accumulator of positive durations.

    Args:
        min_value: lower edge of the first interior bucket.  The default
            (1 microsecond) is below anything the serving path can measure.
        max_value: lower edge of the overflow bucket.  The default (64
            seconds) is far beyond any sane request latency; slower values
            are still counted (overflow) and still reported exactly as the
            max.
        growth: bucket width ratio.  The quantile error bound is one bucket
            width, i.e. a factor of ``growth`` — the default is four buckets
            per doubling (±~9%).
    """

    def __init__(
        self,
        min_value: float = 1e-6,
        max_value: float = 64.0,
        growth: float = DEFAULT_GROWTH,
    ) -> None:
        if min_value <= 0:
            raise ValueError(f"min_value must be positive, got {min_value!r}")
        if max_value <= min_value:
            raise ValueError(
                f"max_value must exceed min_value, got {max_value!r} <= {min_value!r}"
            )
        if growth <= 1.0:
            raise ValueError(f"growth must exceed 1, got {growth!r}")
        self.min_value = float(min_value)
        self.max_value = float(max_value)
        self.growth = float(growth)
        self._interior = _bucket_count(self.min_value, self.max_value, self.growth)
        # Interior lower edges, same expression :meth:`bucket_bounds` uses,
        # so a bisect against them is float-exactly consistent with the
        # bounds the snapshot reports (no log/pow rounding at the edges).
        self._edges = [
            self.min_value * self.growth**power for power in range(self._interior)
        ]
        self._counts = [0] * (self._interior + 2)
        self._total_sum = 0.0
        self._min_seen = float("inf")
        self._max_seen = float("-inf")
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._counts)

    @property
    def count(self) -> int:
        """Total recorded observations."""
        with self._lock:
            return sum(self._counts)

    def _index(self, value: float) -> int:
        # bisect against the precomputed edges: values below min_value fall
        # to 0 (underflow) because they sit left of every edge; interior
        # values land in the bucket whose [low, high) contains them.
        if value >= self.max_value:
            return self._interior + 1
        return bisect_right(self._edges, value)

    def record(self, value: float, count: int = 1) -> None:
        """Record ``count`` observations of ``value`` (NaN is ignored)."""
        value = float(value)
        if math.isnan(value) or count <= 0:
            return
        value = max(value, 0.0)
        index = self._index(value)
        with self._lock:
            self._counts[index] += count
            self._total_sum += value * count
            if value < self._min_seen:
                self._min_seen = value
            if value > self._max_seen:
                self._max_seen = value

    def snapshot(self) -> HistogramSnapshot:
        """A frozen copy of the current state."""
        with self._lock:
            return HistogramSnapshot(
                min_value=self.min_value,
                max_value=self.max_value,
                growth=self.growth,
                counts=tuple(self._counts),
                total_sum=self._total_sum,
                min_seen=self._min_seen,
                max_seen=self._max_seen,
            )

    # Read-side conveniences delegate to a snapshot: one lock acquisition,
    # then lock-free math.

    def quantile(self, q: float) -> float:
        """See :meth:`HistogramSnapshot.quantile`."""
        return self.snapshot().quantile(q)

    @property
    def mean(self) -> float:
        """Exact mean of every recorded value (NaN when empty)."""
        return self.snapshot().mean

    @property
    def max_seen(self) -> float:
        """Exact maximum recorded value (-inf when empty)."""
        with self._lock:
            return self._max_seen

    @property
    def min_seen(self) -> float:
        """Exact minimum recorded value (inf when empty)."""
        with self._lock:
            return self._min_seen
