"""The percentile rule: report the highest percentile with >= 10 samples beyond."""

from __future__ import annotations

import math

import pytest

from bench import stats


@pytest.mark.parametrize(
    "count, expected",
    [
        (10_000, 99.9),
        (9_999, 99.0),
        (1_000, 99.0),
        (999, 98.0),
        (500, 98.0),
        (499, 95.0),
        (200, 95.0),
        (100, 90.0),
        (40, 75.0),
        (20, 50.0),
        (3, 50.0),
    ],
)
def test_supported_tail_needs_ten_samples_beyond(count, expected):
    assert stats.supported_tail(count) == expected


def test_percentile_interpolates_between_order_statistics():
    values = [4.0, 1.0, 3.0, 2.0]
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 50) == 2.5
    assert stats.percentile(values, 100) == 4.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_spread_is_interquartile_distance_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0]
    q1, q2, q3 = stats.quartiles(values)
    assert q2 == 12.0
    assert stats.spread(values) == pytest.approx((q3 - q1) / 12.0)
    assert stats.spread([5.0]) == 0.0
    assert stats.spread([0.0, 0.0, 0.0]) == 0.0
    assert math.isinf(stats.spread([-1.0, 0.0, 0.0, 1.0]))
