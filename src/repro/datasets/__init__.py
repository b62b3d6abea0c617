"""Synthetic IMDb-like data and the paper's workload generators.

The paper trains and evaluates on the real IMDb database (Section 3.1.1),
which is not redistributable here; :mod:`repro.datasets.imdb` builds a
synthetic substitute on the JOB join schema with deliberately injected
join-crossing correlations and skew (that module's docstring gives the
substitution rationale).  The remaining modules implement the paper's query generator
(Section 3.1.2), pair labelling, and the evaluation workloads (Sections 4.2
and 6.1).
"""

from repro.datasets.generator import GeneratorConfig, QueryGenerator
from repro.datasets.imdb import IMDB_SCHEMA, SyntheticIMDbConfig, build_synthetic_imdb
from repro.datasets.pairs import (
    LabeledQuery,
    QueryPair,
    label_pairs,
    label_queries,
    mscn_training_set,
)
from repro.datasets.scale import ScaleGeneratorConfig, ScaleWorkloadGenerator
from repro.datasets.workloads import (
    CNT_TEST1_DISTRIBUTION,
    CNT_TEST2_DISTRIBUTION,
    CRD_TEST1_DISTRIBUTION,
    CRD_TEST2_DISTRIBUTION,
    SCALE_DISTRIBUTION,
    PairWorkload,
    Workload,
    WorkloadSpec,
    build_cnt_test1,
    build_cnt_test2,
    build_crd_test1,
    build_crd_test2,
    build_pair_workload,
    build_queries_pool_queries,
    build_query_workload,
    build_scale_workload,
    build_training_pairs,
    join_distribution,
)

__all__ = [
    "CNT_TEST1_DISTRIBUTION",
    "CNT_TEST2_DISTRIBUTION",
    "CRD_TEST1_DISTRIBUTION",
    "CRD_TEST2_DISTRIBUTION",
    "GeneratorConfig",
    "IMDB_SCHEMA",
    "LabeledQuery",
    "PairWorkload",
    "QueryGenerator",
    "QueryPair",
    "SCALE_DISTRIBUTION",
    "ScaleGeneratorConfig",
    "ScaleWorkloadGenerator",
    "SyntheticIMDbConfig",
    "Workload",
    "WorkloadSpec",
    "build_cnt_test1",
    "build_cnt_test2",
    "build_crd_test1",
    "build_crd_test2",
    "build_pair_workload",
    "build_queries_pool_queries",
    "build_query_workload",
    "build_scale_workload",
    "build_synthetic_imdb",
    "build_training_pairs",
    "join_distribution",
    "label_pairs",
    "label_queries",
    "mscn_training_set",
]
