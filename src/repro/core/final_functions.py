"""Final functions ``F`` for the cardinality estimation technique (Section 5.3.1).

The Cnt2Crd technique produces one cardinality estimate per matching pool
query; the final function collapses that list into a single estimate.  The
paper examines the median, the mean and a 25%-trimmed mean, and settles on the
median.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

#: Signature of a final function: a non-empty 1-D float64 array or sequence of
#: estimates -> one estimate.  :meth:`Cnt2CrdEstimator.collapse_values` passes
#: the array.
FinalFunction = Callable[[Sequence[float] | np.ndarray], float]


def median_final(results: Sequence[float]) -> float:
    """The median of the per-pool-query estimates (the paper's choice).

    ``np.median`` of the flattened input, bit for bit, without its wrappers:
    the same partition at the middle index (or indices) **and at -1**, which
    moves a NaN, if there is one, to the end, where one look finds it.  The
    ``0.0 +`` is ``np.mean``'s sum identity (a ``-0.0`` median reads ``0.0``).
    """
    _require_non_empty(results)
    values = np.array(results, dtype=np.float64).reshape(-1)  # a copy: partitioned in place
    size = values.shape[0]
    middle = size // 2
    if size % 2:
        values.partition((middle, -1))
        median = 0.0 + float(values[middle])
    else:
        values.partition((middle - 1, middle, -1))
        median = (0.0 + float(values[middle - 1]) + float(values[middle])) / 2.0
    last = float(values[-1])
    return last if last != last else median


def mean_final(results: Sequence[float]) -> float:
    """The mean of the per-pool-query estimates."""
    _require_non_empty(results)
    return float(np.mean(np.asarray(results, dtype=np.float64)))


def trimmed_mean_final(results: Sequence[float], trim_fraction: float = 0.25) -> float:
    """The trimmed mean: drop the largest/smallest ``trim_fraction`` before averaging."""
    _require_non_empty(results)
    if not 0.0 <= trim_fraction < 0.5:
        raise ValueError("trim_fraction must lie in [0, 0.5)")
    values = np.sort(np.asarray(results, dtype=np.float64))
    trim = int(len(values) * trim_fraction)
    trimmed = values[trim : len(values) - trim] if len(values) > 2 * trim else values
    return float(trimmed.mean())


FINAL_FUNCTIONS: dict[str, FinalFunction] = {
    "median": median_final,
    "mean": mean_final,
    "trimmed_mean": trimmed_mean_final,
}


def get_final_function(name: str) -> FinalFunction:
    """Look up a final function by name (``median``, ``mean`` or ``trimmed_mean``)."""
    if name not in FINAL_FUNCTIONS:
        raise KeyError(f"unknown final function {name!r}; available: {sorted(FINAL_FUNCTIONS)}")
    return FINAL_FUNCTIONS[name]


def _require_non_empty(results: Sequence[float]) -> None:
    if len(results) == 0:
        raise ValueError("final functions require at least one estimate")
