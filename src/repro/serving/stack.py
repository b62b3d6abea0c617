"""How a :class:`repro.serving.ServingConfig` becomes a wired serving stack.

Boot (:func:`build_service_stack`) and every adaptation candidate
(:class:`repro.serving.AdaptationManager`) build their estimator with
:func:`wire_estimator`, so a retrained model is served the way the booted
one was.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cnt2crd import Cnt2CrdEstimator
from repro.core.crn import CRNEstimator, CRNModel
from repro.core.featurization import QueryFeaturizer
from repro.core.queries_pool import QueriesPool
from repro.observability.recorder import EventRecorder
from repro.observability.tracing import Tracer
from repro.serving.cache import EncodingCache, FeaturizationCache
from repro.serving.config import ServingConfig
from repro.serving.inference_plan import compile_and_attach
from repro.serving.pool_index import PoolEncodingIndex
from repro.serving.service import ESTIMATOR_NAME, EstimationService

__all__ = ["ServiceStack", "build_service_stack", "wire_estimator"]


@dataclass(frozen=True)
class ServiceStack:
    """The wired (but unstarted) core of a deployment.

    What :func:`build_service_stack` hands back: the config it was wired
    from and the service.  :attr:`estimator` is the served Cnt2Crd estimator
    as the service holds it now — the booted one until an adaptation
    promote replaces it — and carries everything derived from its model:
    the request caches, the plan and the pool index.
    """

    config: ServingConfig
    service: EstimationService

    @property
    def estimator(self) -> Cnt2CrdEstimator:
        """The live served estimator."""
        return self.service.estimator


def wire_estimator(
    config: ServingConfig,
    model: CRNModel,
    featurizer: QueryFeaturizer,
    pool: QueriesPool,
    *,
    recorder: EventRecorder | None = None,
    tracer: Tracer | None = None,
    generation: int | None = None,
) -> Cnt2CrdEstimator:
    """The serving estimator ``config`` describes, over ``model`` and ``pool``.

    Everything a model serves with is built fresh for it: a featurization
    cache and an encoding cache under the config's LRU bounds, a CRN
    estimator, a compiled plan when the config is compiled, a
    :class:`PoolEncodingIndex` over ``pool`` for that CRN, and the Cnt2Crd
    estimator.  Nothing is shared with another model's estimator, so a hot
    swap replaces all of it at once.  The CRN's slab batch size and
    Cnt2Crd's final function and epsilon guard are the estimators' own
    defaults (``PASS_ROWS``, the median, ``1e-3``).  No slab is built here:
    the caller warms the index or lets requests build it.

    Args:
        recorder: receives the ``plan_compile`` event and the index's
            ``index_build`` events.
        tracer: records the index's ``index_build`` spans.
        generation: the model generation the estimator will serve under,
            which a compiled plan is compiled for.  ``None`` compiles no plan:
            the adaptation shadow serves only the accept gate's holdout, and
            a rejected candidate should not pay for a compile.
    """
    crn = CRNEstimator(
        model,
        FeaturizationCache(featurizer, max_entries=config.caches.max_featurization_entries),
        encoding_cache=EncodingCache(max_entries=config.caches.resolved_encoding_entries()),
    )
    if generation is not None and config.inference.mode == "compiled":
        compile_and_attach(
            crn, recorder=recorder, estimator_name=ESTIMATOR_NAME, generation=generation
        )
    pool_index = PoolEncodingIndex(pool, crn)
    pool_index.recorder = recorder
    pool_index.tracer = tracer
    return Cnt2CrdEstimator(crn, pool, pool_index=pool_index)


def build_service_stack(
    config: ServingConfig,
    recorder: EventRecorder | None = None,
    tracer: Tracer | None = None,
    generation: int = 1,
) -> ServiceStack:
    """Wire an :class:`EstimationService` exactly as ``config`` describes.

    The estimator (through :func:`wire_estimator`), the service around it
    and its fallback, and the warm-up all come from here.  ``generation`` is
    the model generation served (1, or the one an artifact was saved at):
    the plan is compiled for it and the service stamps it.  ``recorder`` and ``tracer`` attach,
    and the plan compiles, *before* the warm-up, so the initial slab builds
    are on the record (as ``index_build`` spans) and build the float32 slabs
    a plan reads.
    """
    estimator = wire_estimator(
        config,
        config.model,
        config.featurizer,
        config.pool,
        recorder=recorder,
        tracer=tracer,
        generation=generation,
    )
    service = EstimationService(
        estimator,
        config.fallback_estimator,
        generation=generation,
        recorder=recorder,
        tracer=tracer,
    )
    if config.pool_options.warm:
        estimator.pool_index.warm()  # fills the slabs; the request caches stay empty
    return ServiceStack(config=config, service=service)
