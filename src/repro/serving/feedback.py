"""Feedback collection: closing the loop between estimates and ground truth.

A served estimate is a prediction; the database eventually knows the truth —
either because the DBMS executes the query anyway (the paper's queries-pool
construction assumes exactly that) or because the caller can report the
actual row count later.  :class:`FeedbackCollector` records those
``(query, estimate, true cardinality)`` observations into a bounded,
thread-safe rolling window and exposes per-estimator q-error quantiles over
it.  The window is what the adaptation subsystem
(:mod:`repro.serving.lifecycle`) watches for drift: when the database changes
under a live service, the rolling q-error of the stale model degrades, a
drift policy fires, and a background retrain/hot-swap restores accuracy.

Ground truth can be supplied two ways:

* **caller-supplied actuals** — ``record(query, estimate, truth)`` or
  ``record_served(served, true_cardinality=...)`` with the executed count;
* **executor ground truth** — construct the collector with an ``oracle``
  (anything with a ``cardinality(query)`` method, e.g.
  :class:`repro.db.TrueCardinalityOracle` over ``db.executor``) and call
  ``record_served(served)``; the collector executes the query exactly.

Every mutation holds the collector lock, so serving threads, the dispatcher
thread, and the lifecycle worker can share one collector.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core.metrics import q_errors
from repro.serving.service import EstimateResult
from repro.sql.query import Query


@dataclass(frozen=True)
class FeedbackObservation:
    """One closed-loop observation: an estimate and the truth it met.

    Attributes:
        query: the estimated query.
        estimate: the cardinality the service answered with.
        true_cardinality: the actual cardinality (executed or reported).
        estimator_name: the name stamped on the answer (``"crn"`` or
            ``"fallback"``; empty when recorded outside the service).
        q_error: ``max(estimate, truth) / min(estimate, truth)`` with the
            collector's zero-guard epsilon.
        sequence: monotonically increasing arrival index (survives window
            eviction, so gaps reveal how much history rolled off).
    """

    query: Query
    estimate: float
    true_cardinality: float
    estimator_name: str
    q_error: float
    sequence: int


@dataclass(frozen=True)
class FeedbackSummary:
    """Percentile summary of one (filtered) feedback window."""

    count: int
    mean_q_error: float
    p50: float
    p90: float
    max: float


class FeedbackCollector:
    """A bounded, thread-safe rolling window of served-estimate feedback.

    Args:
        max_observations: window bound; the oldest observation is evicted
            when a new one arrives at capacity.
        epsilon: q-error zero-guard (1.0 keeps empty-result queries finite
            without distorting non-empty ones).
        oracle: optional ground-truth source with a ``cardinality(query)``
            method, used by :meth:`record_served` when the caller does not
            supply the actual count.
    """

    def __init__(
        self,
        max_observations: int = 1024,
        epsilon: float = 1.0,
        oracle=None,
        recorder=None,
    ) -> None:
        if max_observations <= 0:
            raise ValueError("max_observations must be positive")
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        self.max_observations = max_observations
        self.epsilon = epsilon
        self.oracle = oracle
        # Optional repro.observability.EventRecorder: when set, every
        # recorded observation also emits a FeedbackRecorded event — the
        # q-error signal behind the store's per-estimator views.
        self.recorder = recorder
        self._window: deque[FeedbackObservation] = deque(maxlen=max_observations)
        self._lock = threading.Lock()
        self._sequence = 0

    # ------------------------------------------------------------------ #
    # recording

    def record(
        self,
        query: Query,
        estimate: float,
        true_cardinality: float,
        estimator_name: str = "",
    ) -> FeedbackObservation:
        """Record one observation with a caller-supplied actual cardinality."""
        error = float(q_errors([estimate], [true_cardinality], epsilon=self.epsilon)[0])
        with self._lock:
            observation = FeedbackObservation(
                query=query,
                estimate=float(estimate),
                true_cardinality=float(true_cardinality),
                estimator_name=estimator_name,
                q_error=error,
                sequence=self._sequence,
            )
            self._sequence += 1
            self._window.append(observation)
        recorder = self.recorder
        if recorder is not None:
            from repro.observability.events import FeedbackRecorded

            recorder.emit(
                FeedbackRecorded(
                    estimator_name=observation.estimator_name,
                    estimate=observation.estimate,
                    true_cardinality=observation.true_cardinality,
                    q_error=observation.q_error,
                    sequence=observation.sequence,
                )
            )
        return observation

    def record_served(
        self, served: EstimateResult, true_cardinality: float | None = None
    ) -> FeedbackObservation:
        """Record a :class:`~repro.serving.EstimateResult` against the truth.

        When ``true_cardinality`` is omitted the collector's ``oracle``
        executes the query for the exact count; supplying the actual keeps
        execution out of the serving path entirely.
        """
        if true_cardinality is None:
            if self.oracle is None:
                raise ValueError(
                    "no true_cardinality supplied and the collector has no oracle; "
                    "pass the executed count or construct with oracle="
                )
            true_cardinality = self.oracle.cardinality(served.query)
        return self.record(
            served.query,
            served.estimate,
            true_cardinality,
            estimator_name=served.estimator_name,
        )

    # ------------------------------------------------------------------ #
    # window views

    def observations(self, estimator: str | None = None) -> list[FeedbackObservation]:
        """A snapshot of the window, oldest first (optionally one estimator's).

        Observations recorded without an estimator name (the caller-supplied
        :meth:`record` path) are *unattributed* and match every filter:
        excluding them would silently disarm any consumer filtering by name —
        the drift monitor and the accept gate both do — in the common
        single-estimator deployment that never labels its feedback.
        """
        with self._lock:
            snapshot = list(self._window)
        if estimator is None:
            return snapshot
        return [
            item
            for item in snapshot
            if item.estimator_name == estimator or not item.estimator_name
        ]

    def window_errors(self, estimator: str | None = None) -> list[float]:
        """The q-errors currently in the window, oldest first."""
        return [item.q_error for item in self.observations(estimator)]

    def holdout(
        self, count: int, estimator: str | None = None
    ) -> list[FeedbackObservation]:
        """The most recent ``count`` observations (the candidate-gate slice).

        The lifecycle validates retrained candidates on this slice: recent
        observations carry post-update ground truth, so they are the freshest
        available labels for an accept/reject decision.
        """
        if count <= 0:
            raise ValueError("holdout count must be positive")
        return self.observations(estimator)[-count:]

    def __len__(self) -> int:
        with self._lock:
            return len(self._window)

    # ------------------------------------------------------------------ #
    # statistics

    def quantile(self, q: float, estimator: str | None = None) -> float:
        """The ``q`` quantile of the window's q-errors (NaN on an empty window)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must lie in [0, 1]")
        errors = self.window_errors(estimator)
        if not errors:
            return float("nan")
        return float(np.quantile(np.asarray(errors, dtype=np.float64), q))

    def mean_q_error(self, estimator: str | None = None) -> float:
        """The arithmetic mean of the window's q-errors (NaN on an empty window)."""
        errors = self.window_errors(estimator)
        if not errors:
            return float("nan")
        return float(np.mean(errors))

    def summary(self, estimator: str | None = None) -> FeedbackSummary:
        """Count / mean / p50 / p90 / max of the (filtered) window."""
        errors = self.window_errors(estimator)
        if not errors:
            nan = float("nan")
            return FeedbackSummary(count=0, mean_q_error=nan, p50=nan, p90=nan, max=nan)
        values = np.asarray(errors, dtype=np.float64)
        return FeedbackSummary(
            count=int(values.size),
            mean_q_error=float(values.mean()),
            p50=float(np.quantile(values, 0.5)),
            p90=float(np.quantile(values, 0.9)),
            max=float(values.max()),
        )

    def clear(self) -> None:
        """Drop the window (sequence numbers keep counting).

        The lifecycle clears the window after a hot swap so the old model's
        errors do not keep the drift policy firing against the new model.
        """
        with self._lock:
            self._window.clear()
