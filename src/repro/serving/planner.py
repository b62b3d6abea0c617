"""The batch-planning entry point's old name, kept for ``bench/spans.py``.

Batched Cnt2Crd scoring is one routine in the core,
:meth:`repro.core.cnt2crd.Cnt2CrdEstimator.slab_values`, which
:class:`repro.serving.EstimationService` calls directly.  The repo
benchmark's span table still wraps ``BatchPlanner.plan`` by this module path
(its ``serving.planner.plan`` span), so the name stays importable and
callable; nothing in the program calls it, and that span records nothing.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.cnt2crd import Cnt2CrdEstimator
from repro.sql.query import Query


class BatchPlanner:
    """:meth:`Cnt2CrdEstimator.slab_values` under its old planning name."""

    def __init__(self, estimator: Cnt2CrdEstimator) -> None:
        self.estimator = estimator

    def plan(self, queries: Sequence[Query]):
        """``self.estimator.slab_values(queries)``."""
        return self.estimator.slab_values(queries)
