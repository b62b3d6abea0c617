"""The q-error metric and the percentile summaries used throughout the paper.

Every table in the paper's evaluation reports the 50th/75th/90th/95th/99th
percentiles, the maximum and the mean of the q-error over a workload
(Section 3.2.4 and Tables 3-13).  :class:`ErrorSummary` reproduces exactly
those rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

#: The percentiles reported by the paper's tables.
REPORTED_PERCENTILES: tuple[int, ...] = (50, 75, 90, 95, 99)


def q_error(estimate: float, truth: float, epsilon: float = 1e-9) -> float:
    """The q-error ``max(estimate/truth, truth/estimate)`` of a single estimate.

    Both operands are clamped away from zero with ``epsilon`` so that an exact
    zero (empty result, zero containment rate) produces a large-but-finite
    error instead of a division by zero, matching how learned-cardinality
    papers evaluate in practice.
    """
    estimate = max(float(estimate), epsilon)
    truth = max(float(truth), epsilon)
    return estimate / truth if estimate > truth else truth / estimate


def q_errors(estimates: Sequence[float], truths: Sequence[float], epsilon: float = 1e-9) -> np.ndarray:
    """Vectorized q-errors for aligned sequences of estimates and truths."""
    estimates_array = np.maximum(np.asarray(estimates, dtype=np.float64), epsilon)
    truths_array = np.maximum(np.asarray(truths, dtype=np.float64), epsilon)
    if estimates_array.shape != truths_array.shape:
        raise ValueError(
            f"estimates and truths must align, got {estimates_array.shape} vs {truths_array.shape}"
        )
    ratio = estimates_array / truths_array
    return np.maximum(ratio, 1.0 / ratio)


@dataclass(frozen=True)
class ErrorSummary:
    """Percentile / max / mean summary of a set of q-errors (one paper table row)."""

    name: str
    count: int
    percentiles: dict[int, float]
    max: float
    mean: float
    median: float

    @classmethod
    def from_errors(cls, name: str, errors: Iterable[float]) -> "ErrorSummary":
        """Summarize an iterable of q-errors."""
        values = np.asarray(list(errors), dtype=np.float64)
        if values.size == 0:
            raise ValueError("cannot summarize an empty error list")
        percentiles = {p: float(np.percentile(values, p)) for p in REPORTED_PERCENTILES}
        return cls(
            name=name,
            count=int(values.size),
            percentiles=percentiles,
            max=float(values.max()),
            mean=float(values.mean()),
            median=float(np.median(values)),
        )

    def row(self) -> dict[str, float]:
        """The summary as a flat dict matching the paper's column layout."""
        row: dict[str, float] = {f"{p}th": self.percentiles[p] for p in REPORTED_PERCENTILES}
        row["max"] = self.max
        row["mean"] = self.mean
        return row

    def __str__(self) -> str:
        cells = "  ".join(f"{p}th={self.percentiles[p]:.4g}" for p in REPORTED_PERCENTILES)
        return f"{self.name}: {cells}  max={self.max:.4g}  mean={self.mean:.4g}  (n={self.count})"


def summarize_by_group(
    name: str,
    estimates: Sequence[float],
    truths: Sequence[float],
    groups: Sequence[int],
    epsilon: float = 1e-9,
) -> dict[int, ErrorSummary]:
    """Summarize q-errors separately for each group key (e.g. per join count).

    Used for Table 9 / Figure 11, which report the mean and median q-error for
    every join count separately.  ``epsilon`` is the same zero floor as in
    :func:`q_errors` (use 1.0 for cardinalities so empty results count as one
    row).
    """
    if not (len(estimates) == len(truths) == len(groups)):
        raise ValueError("estimates, truths and groups must have the same length")
    errors = q_errors(estimates, truths, epsilon=epsilon)
    per_group: dict[int, list[float]] = {}
    for error, group in zip(errors, groups):
        per_group.setdefault(int(group), []).append(float(error))
    return {
        group: ErrorSummary.from_errors(f"{name}[{group}]", values)
        for group, values in sorted(per_group.items())
    }
