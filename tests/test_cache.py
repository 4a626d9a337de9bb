"""Unit and property tests for the caching subsystem
(``repro.caching``): key normalization, config validation, the
capacity/TTL/staleness invariants of the cost-aware core, the three
eviction policies, semantic matching at the cache level, and the
profile tier's invalidation rules."""

from __future__ import annotations

import numpy as np
import pytest

from repro.caching import (
    CacheConfig,
    CachedProfile,
    CostAwareCache,
    EVICTION_NAMES,
    GDSFPolicy,
    LFUPolicy,
    LRUPolicy,
    ProfileCache,
    RESULT_CACHE_MODES,
    ResultCache,
    RetrievalCache,
    make_cache_config,
    make_eviction,
    normalize_query_text,
)
from repro.util import canonical_query_id
from repro.util.rng import stream


class TestCanonicalQueryId:
    def test_strips_replay_suffix(self):
        assert canonical_query_id("finsec-q12#r3") == "finsec-q12"
        assert canonical_query_id("q0#r127") == "q0"

    def test_plain_id_unchanged(self):
        assert canonical_query_id("finsec-q12") == "finsec-q12"

    def test_only_trailing_suffix_removed(self):
        assert canonical_query_id("q1#r2#r10") == "q1#r2"
        assert canonical_query_id("q1#hedge") == "q1#hedge"


class TestNormalizeQueryText:
    def test_case_and_whitespace_folded(self):
        assert (normalize_query_text("  What is\tthe  Fee?\n")
                == "what is the fee?")

    def test_equivalent_texts_share_a_key(self):
        a = ResultCache.key_for("What is the fee?", "stuff/8")
        b = ResultCache.key_for("  what IS the fee?  ", "stuff/8")
        assert a == b

    def test_config_label_distinguishes_keys(self):
        a = ResultCache.key_for("what is the fee?", "stuff/8")
        b = ResultCache.key_for("what is the fee?", "map_reduce/24")
        assert a != b


class TestMakeCacheConfig:
    def test_disabled_is_none(self):
        assert make_cache_config() is None
        assert make_cache_config(result_cache="off") is None

    def test_enabled_modes(self):
        assert set(RESULT_CACHE_MODES) == {"off", "exact", "semantic"}
        cfg = make_cache_config(result_cache="exact")
        assert cfg is not None and cfg.result_enabled and not cfg.retrieval
        cfg = make_cache_config(retrieval_cache=True)
        assert cfg is not None and cfg.retrieval and not cfg.result_enabled

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown result-cache mode"):
            make_cache_config(result_cache="fuzzy")

    def test_dependent_knobs_without_a_tier_fail_fast(self):
        with pytest.raises(ValueError, match="cache_capacity"):
            make_cache_config(cache_capacity=64)
        with pytest.raises(ValueError, match="cache_eviction"):
            make_cache_config(cache_eviction="gdsf")
        with pytest.raises(ValueError, match="cache_ttl"):
            make_cache_config(cache_ttl=60.0)

    def test_semantic_threshold_requires_semantic_mode(self):
        with pytest.raises(ValueError, match="semantic_threshold"):
            make_cache_config(result_cache="exact", semantic_threshold=0.8)
        cfg = make_cache_config(result_cache="semantic",
                                semantic_threshold=0.8)
        assert cfg.semantic_threshold == 0.8

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            make_cache_config(result_cache="exact", cache_capacity=0)
        with pytest.raises(ValueError):
            make_cache_config(result_cache="semantic",
                              semantic_threshold=1.5)
        with pytest.raises(ValueError):
            make_cache_config(result_cache="exact", cache_ttl=-1.0)
        with pytest.raises(ValueError):
            CacheConfig(eviction="random")


class TestEvictionPolicies:
    def test_registry(self):
        assert EVICTION_NAMES == ("lru", "lfu", "gdsf")
        assert isinstance(make_eviction("lru"), LRUPolicy)
        assert isinstance(make_eviction("lfu"), LFUPolicy)
        assert isinstance(make_eviction("gdsf"), GDSFPolicy)
        with pytest.raises(ValueError, match="unknown cache eviction"):
            make_eviction("mru")

    def test_lru_evicts_stalest(self):
        cache = CostAwareCache(capacity=2, eviction="lru")
        cache.insert("a", 1, now=0.0)
        cache.insert("b", 2, now=1.0)
        cache._hit(cache._find("a", 2.0))  # refresh a
        cache.insert("c", 3, now=3.0)
        assert "b" not in cache and "a" in cache and "c" in cache

    def test_lfu_evicts_least_hit(self):
        cache = CostAwareCache(capacity=2, eviction="lfu")
        cache.insert("a", 1, now=0.0)
        cache.insert("b", 2, now=1.0)
        for _ in range(3):
            cache._hit(cache._find("b", 2.0))
        cache.insert("c", 3, now=3.0)  # a has 0 hits -> victim
        assert "a" not in cache and "b" in cache

    def test_gdsf_keeps_high_benefit_entries(self):
        cache = CostAwareCache(capacity=2, eviction="gdsf")
        cache.insert("cheap", 1, now=0.0, saved_dollars=1e-6)
        cache.insert("costly", 2, now=1.0, saved_dollars=1.0)
        cache.insert("new", 3, now=2.0, saved_dollars=1e-6)
        assert "cheap" not in cache and "costly" in cache

    def test_gdsf_clock_inflates_on_eviction(self):
        cache = CostAwareCache(capacity=1, eviction="gdsf")
        cache.insert("a", 1, now=0.0, saved_dollars=0.5)
        cache.insert("b", 2, now=1.0, saved_dollars=0.5)
        assert cache.policy.clock > 0.0  # inflated to a's priority

    @pytest.mark.parametrize("eviction", EVICTION_NAMES)
    def test_capacity_never_exceeded(self, eviction):
        """Property: under a randomized (but seeded) insert/hit mix
        the resident count never exceeds capacity."""
        rng = stream(7, "test", "cache", eviction)
        cache = CostAwareCache(capacity=16, eviction=eviction)
        for step in range(400):
            key = f"k{int(rng.integers(0, 64))}"
            if rng.random() < 0.3:
                entry = cache._find(key, float(step))
                if entry is not None:
                    cache._hit(entry)
            else:
                cache.insert(key, step, now=float(step),
                             saved_dollars=float(rng.random()),
                             saved_seconds=float(rng.random()))
            assert len(cache) <= 16

    @pytest.mark.parametrize("eviction", EVICTION_NAMES)
    def test_eviction_is_deterministic(self, eviction):
        """Two identical runs leave identical residents and counters."""
        def run():
            rng = stream(3, "test", "cache-det", eviction)
            cache = CostAwareCache(capacity=8, eviction=eviction)
            for step in range(200):
                key = f"k{int(rng.integers(0, 32))}"
                entry = cache._find(key, float(step))
                if entry is not None and rng.random() < 0.5:
                    cache._hit(entry)
                else:
                    cache.insert(key, step, now=float(step),
                                 saved_dollars=float(rng.random()))
            return (sorted(cache._entries), cache.stats.evictions,
                    cache.stats.hits, cache.stats.inserts)

        assert run() == run()


class TestTTLAndStaleness:
    def test_ttl_expires_lazily_at_lookup(self):
        cache = CostAwareCache(capacity=4, ttl_s=10.0)
        cache.insert("a", 1, now=0.0)
        assert cache._find("a", 5.0) is not None
        assert cache._find("a", 10.5) is None  # expired and dropped
        assert cache.stats.expirations == 1
        assert "a" not in cache

    def test_result_tier_expiry_counts_as_miss(self):
        cache = ResultCache(capacity=4, ttl_s=10.0)
        key = ResultCache.key_for("q", "stuff/8")
        cache.insert(key, "answer", now=0.0)
        entry, tier = cache.lookup(key, None, now=20.0)
        assert entry is None and tier is None
        assert cache.stats.hit_rate == 0.0

    def test_stale_hit_is_served_but_counted(self):
        cache = ResultCache(capacity=4)
        key = ResultCache.key_for("q", "stuff/8")
        cache.insert(key, "answer", now=0.0, corpus_version=0)
        entry, tier = cache.lookup(key, None, now=1.0, corpus_version=2)
        assert entry is not None and tier == "result-exact"
        assert cache.stats.stale_hits == 1

    def test_evict_stale_drops_old_versions(self):
        cache = CostAwareCache(capacity=8)
        cache.insert("old", 1, now=0.0, corpus_version=0)
        cache.insert("new", 2, now=1.0, corpus_version=1)
        assert cache.evict_stale(current_version=1) == 1
        assert "old" not in cache and "new" in cache
        assert cache.stats.evictions == 1


def _unit(rng) -> np.ndarray:
    v = rng.normal(size=8)
    return v / np.linalg.norm(v)


class TestSemanticMatching:
    def test_exact_key_wins_before_semantic(self):
        cache = ResultCache(capacity=8, semantic=True,
                            semantic_threshold=0.5)
        key = ResultCache.key_for("q", "stuff/8")
        vec = np.ones(4)
        cache.insert(key, "answer", now=0.0, embedding=vec)
        entry, tier = cache.lookup(key, vec, now=1.0)
        assert tier == "result-exact"
        assert cache.stats.semantic_hits == 0

    def test_semantic_hit_above_threshold_only(self):
        cache = ResultCache(capacity=8, semantic=True,
                            semantic_threshold=0.99)
        cached = ResultCache.key_for("original", "stuff/8")
        cache.insert(cached, "answer", now=0.0,
                     embedding=np.array([1.0, 0.0]),
                     config_label="stuff/8")
        probe = ResultCache.key_for("near duplicate", "stuff/8")
        near = np.array([1.0, 0.05])
        far = np.array([1.0, 1.0])
        entry, tier = cache.lookup(probe, far, now=1.0)
        assert entry is None
        entry, tier = cache.lookup(probe, near, now=2.0)
        assert entry is not None and tier == "result-semantic"
        assert cache.stats.semantic_hits == 1

    def test_semantic_respects_config_label(self):
        cache = ResultCache(capacity=8, semantic=True,
                            semantic_threshold=0.5)
        cache.insert(ResultCache.key_for("original", "stuff/8"),
                     "answer", now=0.0, embedding=np.array([1.0, 0.0]),
                     config_label="stuff/8")
        probe = ResultCache.key_for("near duplicate", "map_reduce/24")
        entry, tier = cache.lookup(probe, np.array([1.0, 0.0]), now=1.0)
        assert entry is None  # same vector, different config

    def test_hits_monotone_in_threshold(self):
        """Property: loosening the threshold never loses hits (the
        satellite's monotonicity contract at the cache level)."""
        rng = stream(11, "test", "semantic-mono")
        cached_vecs = [_unit(rng) for _ in range(12)]
        probe_vecs = [_unit(rng) for _ in range(40)]

        def hits_at(threshold: float) -> int:
            cache = ResultCache(capacity=64, semantic=True,
                                semantic_threshold=threshold)
            for i, vec in enumerate(cached_vecs):
                cache.insert(ResultCache.key_for(f"seed {i}", "stuff/8"),
                             f"answer {i}", now=0.0, embedding=vec,
                             config_label="stuff/8")
            hits = 0
            for j, vec in enumerate(probe_vecs):
                key = ResultCache.key_for(f"probe {j}", "stuff/8")
                entry, _ = cache.lookup(key, vec, now=1.0 + j)
                if entry is not None:
                    hits += 1
            return hits

        thresholds = (0.95, 0.8, 0.6, 0.4, 0.2, 0.05)
        counts = [hits_at(t) for t in thresholds]
        assert counts == sorted(counts)  # monotone as threshold loosens
        assert counts[-1] > counts[0]  # and the sweep actually moves

    def test_semantic_scan_cost_grows_with_residency(self):
        cache = ResultCache(capacity=64, semantic=True)
        empty = cache.lookup_seconds()
        for i in range(10):
            cache.insert(ResultCache.key_for(f"q{i}", "stuff/8"), i,
                         now=float(i), embedding=np.ones(2))
        assert cache.lookup_seconds() > empty
        exact_only = ResultCache(capacity=64)
        assert exact_only.lookup_seconds() == pytest.approx(
            ResultCache(capacity=64).lookup_seconds())

    def test_cached_norms_match_reference_cosine(self):
        """Norms taken once (the probe's per scan, each entry's at
        insert) pick the same entry at the same similarity as the plain
        ``dot / (norm * norm)`` formula, zero vectors included."""
        rng = stream(13, "test", "semantic-norms")
        stored = [rng.normal(size=16).astype(np.float32) for _ in range(24)]
        stored.append(np.zeros(16, dtype=np.float32))
        cache = ResultCache(capacity=64, semantic=True)
        for i, vec in enumerate(stored):
            cache.insert(ResultCache.key_for(f"seed {i}", "stuff/8"), i,
                         now=0.0, embedding=vec, config_label="stuff/8")

        def reference(qvec):
            best, best_sim = None, -1.0
            for i, vec in enumerate(stored):
                denom = (float(np.linalg.norm(qvec))
                         * float(np.linalg.norm(vec)))
                sim = (0.0 if denom <= 0.0
                       else float(np.dot(qvec, vec)) / denom)
                if sim > best_sim:
                    best, best_sim = i, sim
            return best, best_sim

        key = ResultCache.key_for("probe", "stuff/8")
        for _ in range(30):
            near = stored[int(rng.integers(24))]
            probe = near + np.float32(0.3) * rng.normal(size=16).astype(
                np.float32)
            want, sim = reference(probe)
            assert 0.0 < sim < 1.0
            # Matching at threshold == sim but not one ulp above pins
            # the similarity bit for bit, not just the winner.
            cache.semantic_threshold = sim
            assert cache._semantic_match(key, probe, now=1.0).value == want
            cache.semantic_threshold = float(np.nextafter(sim, 2.0))
            assert cache._semantic_match(key, probe, now=1.0) is None
        zero = np.zeros(16, dtype=np.float32)
        assert reference(zero) == (0, 0.0)
        cache.semantic_threshold = 0.5
        assert cache._semantic_match(key, zero, now=1.0) is None


class TestRetrievalCacheTier:
    def test_key_includes_shard_config(self):
        a = RetrievalCache.key_for("q1", 4, "ivf", 20)
        b = RetrievalCache.key_for("q1", 8, "ivf", 20)
        c = RetrievalCache.key_for("q1", 4, "flat", 20)
        assert len({a, b, c}) == 3

    def test_hit_accounts_savings(self):
        cache = RetrievalCache(capacity=4)
        key = RetrievalCache.key_for("q1", 1, "flat", 20)
        cache.insert(key, ("c1", "c2"), now=0.0,
                     saved_seconds=0.4, saved_dollars=0.0)
        assert cache.lookup(key, now=1.0) is not None
        assert cache.stats.saved_seconds == pytest.approx(0.4)
        assert cache.stats.hit_rate == pytest.approx(1.0)


class TestProfileCacheTier:
    def test_key_is_the_normalized_text(self):
        assert ProfileCache.key_for("  What is the Fee?") \
            == ProfileCache.key_for("what is  the fee?")

    def test_hit_accounts_the_call_it_saved(self):
        cache = ProfileCache(capacity=4, eviction="gdsf")
        key = ProfileCache.key_for("q")
        cache.insert(key, CachedProfile("profile", 0.91), now=0.0,
                     saved_seconds=0.15, saved_dollars=3e-4)
        entry = cache.lookup(key, now=1.0, corpus_version=0, accuracy=0.91)
        assert entry is not None and entry.value.profile == "profile"
        assert cache.stats.saved_seconds == pytest.approx(0.15)
        assert cache.stats.saved_dollars == pytest.approx(3e-4)

    def test_older_corpus_version_misses(self):
        cache = ProfileCache(capacity=4)
        key = ProfileCache.key_for("q")
        cache.insert(key, CachedProfile("p", 0.91), now=0.0,
                     corpus_version=0)
        assert cache.lookup(key, 1.0, corpus_version=1, accuracy=0.91) \
            is None
        assert cache.stats.hits == 0 and cache.stats.stale_hits == 0
        # The fresh call's insert overwrites the stale entry in place.
        cache.insert(key, CachedProfile("p2", 0.91), now=2.0,
                     corpus_version=1)
        assert len(cache) == 1
        assert cache.lookup(key, 3.0, corpus_version=1,
                            accuracy=0.91).value.profile == "p2"

    def test_other_accuracy_misses(self):
        cache = ProfileCache(capacity=4)
        key = ProfileCache.key_for("q")
        cache.insert(key, CachedProfile("p", 0.91), now=0.0)
        assert cache.lookup(key, 1.0, corpus_version=0,
                            accuracy=0.928) is None
        assert cache.lookup(key, 1.0, corpus_version=0,
                            accuracy=0.91) is not None

    def test_ttl_expiry_misses(self):
        cache = ProfileCache(capacity=4, ttl_s=10.0)
        key = ProfileCache.key_for("q")
        cache.insert(key, CachedProfile("p", 0.91), now=0.0)
        assert cache.lookup(key, 20.0, corpus_version=0,
                            accuracy=0.91) is None
        assert cache.stats.expirations == 1 and key not in cache

    @pytest.mark.parametrize("eviction", EVICTION_NAMES)
    def test_capacity_holds_after_every_insert(self, eviction):
        cache = ProfileCache(capacity=3, eviction=eviction)
        for i in range(20):
            cache.insert(ProfileCache.key_for(f"q{i % 7}"),
                         CachedProfile(i, 0.91), now=float(i),
                         saved_seconds=0.1 * (i % 3),
                         saved_dollars=1e-4 * (i % 5))
            assert len(cache) <= 3
