"""Order statistics shared by the runner and ``compare``."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a percentile before it is reported.
MIN_SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile of ``values`` (linear interpolation)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def supported_tail(count: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it."""
    for pct in TAIL_LADDER:
        # Whole per-mille arithmetic: 10000 * (100 - 99.9) / 100 is not 10.0.
        if count * (1000 - round(pct * 10)) >= MIN_SAMPLES_BEYOND * 1000:
            return pct
    return TAIL_LADDER[-1]


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for a constant)."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(q2)
