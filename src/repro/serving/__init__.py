"""Discrete-event simulator of a continuous-batching LLM serving engine.

Stands in for vLLM on the paper's A40 testbed: paged KV-cache block
manager, iteration-level (continuous) batching, chunked prefill,
admission control against KV memory, and pluggable scheduling policies
(FCFS like vLLM; app-aware grouping like Parrot). The ``cluster``
module replicates the engine N-fold behind a load-aware router for
multi-instance serving experiments.
"""

from repro.serving.cluster import (
    ClusterEngine,
    LeastKVLoadRouter,
    LeastOutstandingRouter,
    PowerOfTwoRouter,
    ReplicaSnapshot,
    RoundRobinRouter,
    Router,
    ROUTER_NAMES,
    make_router,
)
from repro.serving.engine import EngineConfig, ServingEngine
from repro.serving.kv_cache import BlockManager
from repro.serving.memory import GPUMemoryModel
from repro.serving.policies import (
    AppAwarePolicy,
    FCFSPolicy,
    SchedulingPolicy,
    make_policy,
)
from repro.serving.request import InferenceRequest, RequestPhase
from repro.serving.speculation import (
    DeadlineRisk,
    HedgeAfterDelay,
    HedgeContext,
    NoSpeculation,
    SPECULATION_NAMES,
    SpeculationPolicy,
    make_speculation,
)

__all__ = [
    "AppAwarePolicy",
    "BlockManager",
    "ClusterEngine",
    "DeadlineRisk",
    "EngineConfig",
    "FCFSPolicy",
    "GPUMemoryModel",
    "HedgeAfterDelay",
    "HedgeContext",
    "InferenceRequest",
    "LeastKVLoadRouter",
    "LeastOutstandingRouter",
    "NoSpeculation",
    "PowerOfTwoRouter",
    "ReplicaSnapshot",
    "RequestPhase",
    "RoundRobinRouter",
    "Router",
    "ROUTER_NAMES",
    "SPECULATION_NAMES",
    "SchedulingPolicy",
    "ServingEngine",
    "SpeculationPolicy",
    "make_policy",
    "make_router",
    "make_speculation",
]
