"""Multi-tier query/retrieval caching with cost-aware eviction.

``repro.caching`` owns the semantic hot-path optimization layered in
front of the staged pipeline: a query-**result** cache (exact or
embedding-similarity keys; hits bypass Retrieve/Rerank/Synthesize
entirely) and a **retrieval** cache (memoized top-k chunk ids; hits
skip scatter-gather but still synthesize), both contended on a shared
``cache`` resource so hit-path latency is honest, plus a **profile**
cache in front of the profiler (a repeat query reuses its profile and
skips the profiler call), with pluggable LRU/LFU/GDSF eviction whose
cost-aware benefit scores are priced from the run's dollar ledger.
See ``docs/CACHING.md``.

Disabled (the default) is free: ``make_cache_config`` returns ``None``
and the pipeline's event schedule is byte-identical to a cacheless
build — pinned by the golden-fingerprint tests.
"""

from repro.caching.cache import (
    CACHE_INSERT_SECONDS,
    CACHE_LOOKUP_SECONDS,
    CachedAnswer,
    CachedProfile,
    CacheEntry,
    CacheStats,
    CostAwareCache,
    ProfileCache,
    ResultCache,
    RetrievalCache,
    SEMANTIC_SCAN_SECONDS_PER_ENTRY,
    TIME_VALUE_DOLLARS_PER_S,
    normalize_query_text,
)
from repro.caching.config import (
    CacheConfig,
    RESULT_CACHE_MODES,
    make_cache_config,
)
from repro.caching.eviction import (
    EVICTION_NAMES,
    EvictionPolicy,
    GDSFPolicy,
    LFUPolicy,
    LRUPolicy,
    make_eviction,
)

__all__ = [
    "CACHE_INSERT_SECONDS",
    "CACHE_LOOKUP_SECONDS",
    "CacheConfig",
    "CacheEntry",
    "CacheStats",
    "CachedAnswer",
    "CachedProfile",
    "CostAwareCache",
    "EVICTION_NAMES",
    "EvictionPolicy",
    "GDSFPolicy",
    "LFUPolicy",
    "LRUPolicy",
    "ProfileCache",
    "RESULT_CACHE_MODES",
    "ResultCache",
    "RetrievalCache",
    "SEMANTIC_SCAN_SECONDS_PER_ENTRY",
    "TIME_VALUE_DOLLARS_PER_S",
    "make_cache_config",
    "make_eviction",
    "normalize_query_text",
]
