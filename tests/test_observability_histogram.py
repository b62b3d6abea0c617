"""Log-bucketed latency histograms: the one-bucket-width quantile contract,
mergeability, and the edge buckets."""

from __future__ import annotations

import math
import threading

import numpy as np
import pytest

from repro.observability import HistogramSnapshot, LatencyHistogram
from repro.observability.histogram import DEFAULT_GROWTH


def exact_quantile(values, q):
    """The store's rank convention: sorted value at round(q * (n - 1))."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))]


class TestBucketing:
    def test_construction_validation(self):
        with pytest.raises(ValueError):
            LatencyHistogram(min_value=0.0)
        with pytest.raises(ValueError):
            LatencyHistogram(min_value=1.0, max_value=0.5)
        with pytest.raises(ValueError):
            LatencyHistogram(growth=1.0)

    def test_every_value_lands_in_the_bucket_that_bounds_it(self):
        histogram = LatencyHistogram(min_value=1e-4, max_value=10.0)
        rng = np.random.default_rng(7)
        values = rng.uniform(1e-4, 10.0, size=500)
        snapshot_template = histogram.snapshot()
        for value in values:
            index = histogram._index(float(value))
            low, high = snapshot_template.bucket_bounds(index)
            assert low <= value < high

    def test_exact_bucket_edges_are_stable(self):
        histogram = LatencyHistogram(min_value=1e-3, max_value=1.0, growth=2.0)
        snapshot = histogram.snapshot()
        for index in range(1, len(snapshot.counts) - 1):
            low, high = snapshot.bucket_bounds(index)
            assert histogram._index(low) == index
            # Just below the upper edge stays inside; the edge itself moves
            # on.  The last interior bucket is truncated by max_value (values
            # at/above it overflow), so probe below that cap.
            inside = math.nextafter(min(high, histogram.max_value), 0.0)
            assert histogram._index(inside) == index

    def test_nan_and_nonpositive_counts_are_ignored(self):
        histogram = LatencyHistogram()
        histogram.record(float("nan"))
        histogram.record(0.5, count=0)
        histogram.record(0.5, count=-3)
        assert histogram.count == 0
        assert math.isnan(histogram.quantile(0.5))

    def test_underflow_and_overflow_report_exact_extremes(self):
        histogram = LatencyHistogram(min_value=1e-3, max_value=1.0)
        histogram.record(1e-7)   # underflow
        histogram.record(123.0)  # overflow
        assert histogram.quantile(0.0) == 1e-7
        assert histogram.quantile(1.0) == 123.0
        assert histogram.min_seen == 1e-7
        assert histogram.max_seen == 123.0


class TestQuantileContract:
    @pytest.mark.parametrize("q", [0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0])
    def test_quantile_within_one_bucket_width_of_exact(self, q):
        histogram = LatencyHistogram()
        rng = np.random.default_rng(11)
        values = rng.lognormal(mean=-6.0, sigma=1.2, size=4000)
        for value in values:
            histogram.record(float(value))
        exact = exact_quantile(values, q)
        answer = histogram.quantile(q)
        # One bucket width of error: the answer and the exact value lie in
        # the same bucket, so their ratio is bounded by the growth factor.
        assert exact / DEFAULT_GROWTH <= answer <= exact * DEFAULT_GROWTH

    def test_single_value_every_quantile(self):
        histogram = LatencyHistogram()
        histogram.record(0.25)
        for q in (0.0, 0.5, 1.0):
            assert histogram.quantile(q) == pytest.approx(0.25, rel=0.2)

    def test_quantile_never_exceeds_exact_max(self):
        # A bucket's geometric midpoint can land above the largest value in
        # it; the answer clamps to the exactly-tracked max so a p99 gauge
        # never reads higher than the max gauge beside it.
        histogram = LatencyHistogram()
        # 0.00175 is the max AND sits in the lower half of its bucket
        # [0.001722, 0.002048), whose geometric midpoint is ~0.001878.
        for value in (0.001, 0.00175, 0.00173):
            histogram.record(value)
        assert histogram.quantile(1.0) == 0.00175
        for q in (0.9, 0.99):
            assert histogram.quantile(q) <= 0.00175
        assert histogram.quantile(0.0) >= 0.001

    def test_quantile_validation(self):
        histogram = LatencyHistogram()
        histogram.record(0.1)
        with pytest.raises(ValueError):
            histogram.quantile(1.5)
        with pytest.raises(ValueError):
            histogram.quantile(-0.1)

    def test_mean_is_exact(self):
        histogram = LatencyHistogram()
        values = [0.001, 0.002, 0.004, 0.25]
        for value in values:
            histogram.record(value)
        assert histogram.mean == pytest.approx(sum(values) / len(values))


class TestSnapshots:
    def test_snapshot_is_frozen_and_detached(self):
        histogram = LatencyHistogram()
        histogram.record(0.01)
        snapshot = histogram.snapshot()
        histogram.record(0.02)
        assert snapshot.count == 1
        assert histogram.count == 2
        with pytest.raises(Exception):
            snapshot.counts = ()

    def test_concurrent_recording_loses_nothing(self):
        histogram = LatencyHistogram()
        threads = [
            threading.Thread(
                target=lambda: [histogram.record(0.001 * (i + 1)) for i in range(500)]
            )
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert histogram.count == 8 * 500

    def test_snapshot_roundtrips_dataclass_fields(self):
        histogram = LatencyHistogram()
        histogram.record(0.5)
        snapshot = histogram.snapshot()
        clone = HistogramSnapshot(**{
            "min_value": snapshot.min_value,
            "max_value": snapshot.max_value,
            "growth": snapshot.growth,
            "counts": snapshot.counts,
            "total_sum": snapshot.total_sum,
            "min_seen": snapshot.min_seen,
            "max_seen": snapshot.max_seen,
        })
        assert clone == snapshot
