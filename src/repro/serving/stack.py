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
from repro.serving.config import ESTIMATOR_NAME, FALLBACK_NAME, ServingConfig
from repro.serving.inference_plan import InferencePlan, compile_and_attach
from repro.serving.pool_index import PoolEncodingIndex
from repro.serving.service import EstimationService

__all__ = ["ServiceStack", "build_service_stack", "wire_estimator"]


@dataclass(frozen=True)
class ServiceStack:
    """The wired (but unstarted) core of a deployment.

    What :func:`build_service_stack` hands back: the config it was wired
    from, the service, and the shared components it was wired with.  The
    record describes the stack as built: an adaptation promote serves a new
    estimator from the same service, encoding cache and pool index (both
    rebound to the new model), while ``estimator``, ``featurization_cache``
    and ``inference_plan`` keep naming the booted ones.
    """

    config: ServingConfig
    service: EstimationService
    estimator: Cnt2CrdEstimator
    featurization_cache: FeaturizationCache
    encoding_cache: EncodingCache
    pool_index: PoolEncodingIndex
    inference_plan: InferencePlan | None = None


def wire_estimator(
    config: ServingConfig,
    model: CRNModel,
    featurizer: QueryFeaturizer,
    pool: QueriesPool,
    *,
    encoding_cache: EncodingCache | None = None,
    pool_index: PoolEncodingIndex | None = None,
    recorder: EventRecorder | None = None,
    generation: int | None = None,
) -> Cnt2CrdEstimator:
    """The serving estimator ``config`` describes, over ``model`` and ``pool``.

    A featurization cache under the config's LRU bound, a CRN estimator, a
    compiled plan when the config is compiled, and a Cnt2Crd estimator.  The
    CRN's slab batch size and Cnt2Crd's final function and epsilon guard are
    the estimators' own defaults (``PASS_ROWS``, the median, ``1e-3``).

    Args:
        encoding_cache / pool_index: the stack's shared components, already
            bound (or rebound) to ``model``; omitted for a private estimator.
        recorder: receives the ``plan_compile`` event.
        generation: the registry generation the estimator will serve under,
            which a compiled plan is compiled for.  ``None`` compiles no plan:
            the adaptation shadow serves only the accept gate's holdout, and
            a rejected candidate should not pay for a compile.
    """
    crn = CRNEstimator(
        model,
        FeaturizationCache(featurizer, max_entries=config.caches.max_featurization_entries),
        encoding_cache=encoding_cache,
    )
    if generation is not None and config.inference.mode == "compiled":
        compile_and_attach(
            crn, recorder=recorder, estimator_name=ESTIMATOR_NAME, generation=generation
        )
    return Cnt2CrdEstimator(crn, pool, pool_index=pool_index)


def build_service_stack(
    config: ServingConfig,
    recorder: EventRecorder | None = None,
    tracer: Tracer | None = None,
    generation: int = 1,
) -> ServiceStack:
    """Wire an :class:`EstimationService` exactly as ``config`` describes.

    The shared encoding cache and pool encoding index, the estimator, the
    registry entries and the warm-up all come from here.  ``generation`` is
    the model generation served (1, or the one an artifact was saved at): the
    plan is compiled for it and the registry stamps it.  ``recorder`` and
    ``tracer`` attach, and the plan compiles, *before* the warm-up, so the
    initial slab builds are on the record (as ``index_build`` spans) and
    build the float32 slabs a plan reads.
    """
    fallback = config.fallback_estimator
    encoding_cache = EncodingCache(max_entries=config.caches.resolved_encoding_entries())
    pool_index = PoolEncodingIndex(config.pool)
    pool_index.recorder = recorder
    pool_index.tracer = tracer
    estimator = wire_estimator(
        config,
        config.model,
        config.featurizer,
        config.pool,
        encoding_cache=encoding_cache,
        pool_index=pool_index,
        recorder=recorder,
        generation=generation,
    )
    crn = estimator.containment_estimator
    service = EstimationService(
        fallback=FALLBACK_NAME if fallback is not None else None,
        featurization_cache=crn.featurizer,
        encoding_cache=encoding_cache,
        pool_index=pool_index,
        recorder=recorder,
        tracer=tracer,
    )
    service.register(ESTIMATOR_NAME, estimator, default=True)
    service.set_generation(ESTIMATOR_NAME, generation)
    if fallback is not None:
        service.register(FALLBACK_NAME, fallback)
    for name, extra in config.extra_estimators.items():
        service.register(name, extra)
    if config.pool_options.warm:
        pool_index.warm(estimator)  # fills the slabs; the request caches stay empty
    return ServiceStack(
        config=config,
        service=service,
        estimator=estimator,
        featurization_cache=crn.featurizer,
        encoding_cache=encoding_cache,
        pool_index=pool_index,
        inference_plan=crn.inference_plan,
    )
