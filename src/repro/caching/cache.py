"""The cooperating cache tiers and their shared cost-aware core.

The result and retrieval tiers run as deterministic contended objects
on the sim loop (the pipeline charges every lookup/insert as a hold on
a shared ``cache`` :class:`~repro.sim.resource.Resource`, so hit-path
latency is honest):

* :class:`ResultCache` — the query-result tier. Exact key on
  normalized query text + the effective config label; the optional
  *semantic* mode additionally serves near-duplicate queries whose
  embedding cosine-similarity to a cached entry clears
  ``semantic_threshold``. A hit answers the query directly, bypassing
  Retrieve/Rerank/Synthesize entirely. Entries are corpus-version
  tagged: a hit whose entry predates the store's current corpus
  version is still served but marked *stale*, so staleness is a
  measurable quality effect rather than a silent one.
* :class:`RetrievalCache` — memoizes final top-k chunk ids per
  (canonical query id, shard config, fetch-k). A hit skips the
  scatter-gather shard resources (and the reranker) but still
  synthesizes — fresh answers over cached context.

The third tier sits in front of the profiler instead, off the
``cache`` resource:

* :class:`ProfileCache` — the profile one profiler call returned, per
  normalized query text. A hit skips the profiler call and its
  dollars; the decision still runs. An entry made against an older
  corpus version, or at another profiler accuracy, is a miss.

Eviction is pluggable (:mod:`repro.caching.eviction`): LRU, LFU, and
the cost-aware GDSF policy whose benefit score is the actual
dollars+seconds the entry saved, priced from the run's
:class:`~repro.evaluation.costs.CostLedger` model by the pipeline at
insert time.

Determinism: no RNG anywhere; iteration orders are dict insertion
order, every eviction tie-break ends in the global insertion sequence,
and the semantic scan picks the *highest* similarity with earliest-
inserted winning ties.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.caching.eviction import EvictionPolicy, make_eviction
from repro.util.validation import check_count, check_positive

__all__ = [
    "CacheEntry",
    "CacheStats",
    "CachedAnswer",
    "CachedProfile",
    "CostAwareCache",
    "ProfileCache",
    "ResultCache",
    "RetrievalCache",
    "normalize_query_text",
    "CACHE_LOOKUP_SECONDS",
    "CACHE_INSERT_SECONDS",
    "SEMANTIC_SCAN_SECONDS_PER_ENTRY",
    "TIME_VALUE_DOLLARS_PER_S",
]

#: Deterministic micro-costs charged on the ``cache`` resource: an
#: exact-key probe, one insert, and the per-entry cost of a semantic
#: similarity scan (linear in the resident entry count, as a real
#: ANN-less embedding sweep would be at these capacities).
CACHE_LOOKUP_SECONDS = 2e-4
CACHE_INSERT_SECONDS = 3e-4
SEMANTIC_SCAN_SECONDS_PER_ENTRY = 1e-6

#: Dollar value of one saved wall-clock second when folding seconds
#: into a GDSF benefit score: the A40 on-demand rental rate
#: (``$0.79/hr``) the :class:`~repro.evaluation.costs.DollarCostModel`
#: prices GPU time at — a second saved is a second of fleet not rented.
TIME_VALUE_DOLLARS_PER_S = 0.79 / 3600.0


def normalize_query_text(text: str) -> str:
    """Case-fold and collapse whitespace — the exact-key normalizer.

    >>> normalize_query_text("  What is  the Fee?\\n")
    'what is the fee?'
    """
    return " ".join(text.lower().split())


@dataclass(frozen=True)
class CachedAnswer:
    """The result-tier payload: everything needed to serve a hit.

    ``tokens`` are re-scored against the *current* query's ground
    truth at hit time (identical for exact repeats; a genuine quality
    measurement for semantic near-duplicates), so the payload carries
    the token sequence, not just the original score.
    """

    tokens: tuple[str, ...]
    f1: float
    expected_f1: float
    coverage: float
    chunk_ids: tuple[str, ...]
    chunks_clipped: bool


@dataclass(frozen=True)
class CachedProfile:
    """The profile-tier payload: a profiler call's
    :class:`~repro.core.profiles.QueryProfile` and the profiler
    accuracy it was made at (feedback prompts raise the accuracy, and
    a profile made before them must not outlive them)."""

    profile: object
    accuracy: float


@dataclass
class CacheEntry:
    """One resident entry plus the metadata eviction policies read."""

    key: object
    value: object
    #: Global insertion sequence — the final tie-break everywhere.
    seq: int
    insert_time: float
    #: Access sequence of the most recent hit (insert counts as 0th).
    last_access: int
    hits: int = 0
    size: float = 1.0
    #: What one hit on this entry saves (measured on the miss path).
    saved_seconds: float = 0.0
    saved_dollars: float = 0.0
    #: GDSF benefit score: ``saved_dollars`` + seconds at rental rate.
    benefit: float = 0.0
    corpus_version: int = 0
    #: Query embedding (result tier, semantic mode only).
    embedding: object = None
    #: ``||embedding||``, computed once at insert for the semantic scan
    #: (a stored embedding is never written after insert).
    embedding_norm: float = 0.0
    #: Effective-config label the entry was produced under.
    config_label: str | None = None
    #: GDSF priority (maintained by the policy hooks).
    priority: float = 0.0


@dataclass
class CacheStats:
    """Counters one cache tier accumulates over a run."""

    lookups: int = 0
    hits: int = 0
    inserts: int = 0
    evictions: int = 0
    #: TTL expiries observed at lookup time (counted as misses).
    expirations: int = 0
    #: Hits served from an entry tagged with an older corpus version.
    stale_hits: int = 0
    #: Hits served by embedding similarity rather than the exact key.
    semantic_hits: int = 0
    #: What the hits would have cost: wall seconds and dollars the
    #: cached entries' miss paths actually paid, summed per hit.
    saved_seconds: float = 0.0
    saved_dollars: float = 0.0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class CostAwareCache:
    """Capacity-bounded map with pluggable eviction and TTL expiry.

    The shared core of both tiers: subclasses implement the tier's
    lookup semantics on top of :meth:`_find` / :meth:`_hit` /
    :meth:`insert`. ``capacity`` bounds resident entries (enforced
    after every insert — the count can never exceed it); ``ttl_s``
    expires entries lazily at lookup time.
    """

    def __init__(self, capacity: int, eviction: str | EvictionPolicy = "lru",
                 ttl_s: float | None = None) -> None:
        check_count("cache_capacity", capacity, minimum=1)
        if ttl_s is not None:
            check_positive("cache_ttl", ttl_s)
        self.capacity = int(capacity)
        self.ttl_s = float(ttl_s) if ttl_s is not None else None
        self.policy = make_eviction(eviction)
        self.stats = CacheStats()
        self._entries: dict = {}
        self._seq = 0
        self._access = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        return key in self._entries

    # ------------------------------------------------------------------
    def _expired(self, entry: CacheEntry, now: float) -> bool:
        return self.ttl_s is not None and now - entry.insert_time > self.ttl_s

    def _find(self, key, now: float) -> CacheEntry | None:
        """Exact probe with lazy TTL expiry; no hit accounting."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        if self._expired(entry, now):
            del self._entries[key]
            self.stats.expirations += 1
            return None
        return entry

    def _hit(self, entry: CacheEntry) -> None:
        """Account one served hit (recency, frequency, savings)."""
        self._access += 1
        entry.hits += 1
        entry.last_access = self._access
        self.policy.on_hit(entry)
        self.stats.hits += 1
        self.stats.saved_seconds += entry.saved_seconds
        self.stats.saved_dollars += entry.saved_dollars

    def insert(
        self,
        key,
        value,
        now: float,
        saved_seconds: float = 0.0,
        saved_dollars: float = 0.0,
        corpus_version: int = 0,
        embedding=None,
        config_label: str | None = None,
    ) -> CacheEntry:
        """Insert (or overwrite) an entry, then evict down to capacity.

        The GDSF benefit is derived here: the entry's measured saved
        dollars plus its saved seconds valued at the GPU rental rate.
        """
        if key in self._entries:
            # Refreshed entry: new payload and savings, fresh recency.
            del self._entries[key]
        self._seq += 1
        self._access += 1
        entry = CacheEntry(
            key=key,
            value=value,
            seq=self._seq,
            insert_time=now,
            last_access=self._access,
            saved_seconds=float(saved_seconds),
            saved_dollars=float(saved_dollars),
            benefit=(float(saved_dollars)
                     + float(saved_seconds) * TIME_VALUE_DOLLARS_PER_S),
            corpus_version=int(corpus_version),
            embedding=embedding,
            embedding_norm=(float(np.linalg.norm(embedding))
                            if embedding is not None else 0.0),
            config_label=config_label,
        )
        self.policy.on_insert(entry)
        self._entries[key] = entry
        self.stats.inserts += 1
        while len(self._entries) > self.capacity:
            victim = self.policy.victim_key(self._entries.values())
            del self._entries[victim]
            self.stats.evictions += 1
        return entry

    def evict_stale(self, current_version: int) -> int:
        """Drop every entry older than ``current_version`` (explicit
        invalidation after a corpus re-ingest); returns the count."""
        stale = [k for k, e in self._entries.items()
                 if e.corpus_version < current_version]
        for key in stale:
            del self._entries[key]
        self.stats.evictions += len(stale)
        return len(stale)


class ResultCache(CostAwareCache):
    """Query-result tier: exact (text+config) key, optional semantic
    near-duplicate matching above a cosine-similarity threshold."""

    def __init__(
        self,
        capacity: int,
        eviction: str | EvictionPolicy = "lru",
        ttl_s: float | None = None,
        semantic: bool = False,
        semantic_threshold: float = 0.9,
    ) -> None:
        super().__init__(capacity, eviction=eviction, ttl_s=ttl_s)
        if not 0.0 < semantic_threshold <= 1.0:
            raise ValueError(
                "semantic_threshold must be in (0, 1], got "
                f"{semantic_threshold}"
            )
        self.semantic = bool(semantic)
        self.semantic_threshold = float(semantic_threshold)

    @staticmethod
    def key_for(query_text: str, config_label: str) -> tuple[str, str]:
        return (normalize_query_text(query_text), config_label)

    def lookup_seconds(self) -> float:
        """Deterministic hold for one lookup on the ``cache`` resource
        (the semantic scan is linear in resident entries)."""
        cost = CACHE_LOOKUP_SECONDS
        if self.semantic:
            cost += SEMANTIC_SCAN_SECONDS_PER_ENTRY * len(self._entries)
        return cost

    def lookup(self, key, qvec, now: float,
               corpus_version: int = 0) -> tuple[CacheEntry | None, str | None]:
        """Probe the tier; returns ``(entry, tier_label)``.

        ``tier_label`` is ``"result-exact"`` or ``"result-semantic"``
        (``None`` on miss). Staleness — the entry predating
        ``corpus_version`` — is counted but the hit is still served;
        the caller surfaces it on the record.
        """
        self.stats.lookups += 1
        entry = self._find(key, now)
        tier = "result-exact" if entry is not None else None
        if entry is None and self.semantic and qvec is not None:
            entry = self._semantic_match(key, qvec, now)
            tier = "result-semantic" if entry is not None else None
            if entry is not None:
                self.stats.semantic_hits += 1
        if entry is None:
            return None, None
        self._hit(entry)
        if entry.corpus_version < corpus_version:
            self.stats.stale_hits += 1
        return entry, tier

    def _semantic_match(self, key, qvec, now: float) -> CacheEntry | None:
        """Best embedding match at the same config, above threshold.

        Deterministic: strictly-higher similarity wins, so among ties
        the earliest-scanned (insertion-ordered) entry is kept. The
        similarity is ``dot / (||q|| * ||e||)``, 0.0 when that product
        is not positive; ``||q||`` is taken once per scan and ``||e||``
        once at insert.
        """
        config_label = key[1]
        qnorm = float(np.linalg.norm(qvec))
        best: CacheEntry | None = None
        best_sim = -1.0
        for entry in self._entries.values():
            if entry.embedding is None or entry.config_label != config_label:
                continue
            if self._expired(entry, now):
                continue  # lazy: expiry is charged when probed exactly
            denom = qnorm * entry.embedding_norm
            sim = (0.0 if denom <= 0.0
                   else float(np.dot(qvec, entry.embedding)) / denom)
            if sim > best_sim:
                best, best_sim = entry, sim
        if best is not None and best_sim >= self.semantic_threshold:
            return best
        return None


class RetrievalCache(CostAwareCache):
    """Retrieval tier: final top-k chunk ids per (canonical query id,
    shard config, fetch-k). Hits skip scatter-gather and rerank but
    the answer is still synthesized fresh."""

    @staticmethod
    def key_for(canonical_id: str, n_shards: int, index_label: str,
                fetch_k: int) -> tuple[str, int, str, int]:
        return (canonical_id, int(n_shards), index_label, int(fetch_k))

    def lookup_seconds(self) -> float:
        return CACHE_LOOKUP_SECONDS

    def lookup(self, key, now: float,
               corpus_version: int = 0) -> CacheEntry | None:
        self.stats.lookups += 1
        entry = self._find(key, now)
        if entry is None:
            return None
        self._hit(entry)
        if entry.corpus_version < corpus_version:
            self.stats.stale_hits += 1
        return entry


class ProfileCache(CostAwareCache):
    """Profile tier: the profile a profiler call returned, per
    normalized query text. GDSF prices an entry by the call's seconds
    and dollars, which is what a hit saves."""

    @staticmethod
    def key_for(query_text: str) -> str:
        return normalize_query_text(query_text)

    def lookup(self, key, now: float, corpus_version: int,
               accuracy: float) -> CacheEntry | None:
        """Probe the tier. An entry made against an older corpus
        version or at another profiler accuracy is a miss; the fresh
        call's insert then overwrites it."""
        self.stats.lookups += 1
        entry = self._find(key, now)
        if (entry is None or entry.corpus_version < corpus_version
                or entry.value.accuracy != accuracy):
            return None
        self._hit(entry)
        return entry
