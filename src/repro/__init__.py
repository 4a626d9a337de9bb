"""repro — reproduction of METIS: Fast Quality-Aware RAG Systems with
Configuration Adaptation (SOSP 2025).

Quickstart::

    from repro import (
        build_dataset, poisson_arrivals, default_engine_config,
        ExperimentRunner, MetisPolicy,
    )
    from repro.experiments.common import make_metis

    bundle = build_dataset("finsec", n_queries=50)
    runner = ExperimentRunner(bundle, default_engine_config())
    result = runner.run(make_metis(bundle),
                        poisson_arrivals(bundle.queries, rate_qps=1.4))
    print(result.summary())

See docs/README.md for the design documents, one per subsystem.
"""

from repro.baselines import (
    AdaptiveRAGPolicy,
    FixedConfigPolicy,
    MedianConfigPolicy,
    ParrotPolicy,
)
from repro.config import (
    ConfigurationSpace,
    PrunedSpace,
    RAGConfig,
    SynthesisMethod,
    full_grid,
)
from repro.core import (
    JointScheduler,
    LLMProfiler,
    MetisConfig,
    MetisPolicy,
    QueryProfile,
    map_profile_to_space,
)
from repro.data import (
    DATASET_NAMES,
    DatasetBundle,
    Query,
    build_dataset,
    poisson_arrivals,
    sequential_arrivals,
)
from repro.evaluation.pipeline import QueryRecord
from repro.evaluation.runner import ExperimentRunner, RunResult
from repro.experiments.common import (
    DEFAULT_RATES,
    default_engine_config,
    make_adaptive_rag,
    make_metis,
)
from repro.llm import (
    A40,
    ClusterSpec,
    GPUSpec,
    LLAMA3_70B_AWQ,
    MISTRAL_7B_AWQ,
    ModelSpec,
    RooflineCostModel,
    SimTokenizer,
)
from repro.retrieval import FlatL2Index, HashedEmbedding, ShardedVectorStore
from repro.serving import EngineConfig, ServingEngine
from repro.workload import (
    Autoscaler,
    Workload,
    diurnal_workload,
    make_workload,
)

__version__ = "1.0.0"

__all__ = [
    "A40",
    "AdaptiveRAGPolicy",
    "Autoscaler",
    "ClusterSpec",
    "ConfigurationSpace",
    "DATASET_NAMES",
    "DEFAULT_RATES",
    "DatasetBundle",
    "EngineConfig",
    "ExperimentRunner",
    "FixedConfigPolicy",
    "FlatL2Index",
    "GPUSpec",
    "HashedEmbedding",
    "JointScheduler",
    "LLAMA3_70B_AWQ",
    "LLMProfiler",
    "MISTRAL_7B_AWQ",
    "MedianConfigPolicy",
    "MetisConfig",
    "MetisPolicy",
    "ModelSpec",
    "ParrotPolicy",
    "PrunedSpace",
    "Query",
    "QueryProfile",
    "QueryRecord",
    "RAGConfig",
    "RooflineCostModel",
    "RunResult",
    "ServingEngine",
    "ShardedVectorStore",
    "SimTokenizer",
    "SynthesisMethod",
    "Workload",
    "build_dataset",
    "default_engine_config",
    "diurnal_workload",
    "full_grid",
    "make_adaptive_rag",
    "make_metis",
    "make_workload",
    "map_profile_to_space",
    "poisson_arrivals",
    "sequential_arrivals",
    "__version__",
]
