"""Pipeline-level tests for the cache tiers: the disabled path is
byte-identical to a cache-free run, exact hits bypass the engine while
retrieval hits still synthesize, cached runs stay deterministic, the
``cache`` resource only exists when a tier is on, cluster runs
release app pins on the hit path, and hedging composes with both
tiers."""

from __future__ import annotations

import math

import pytest

from repro.baselines import FixedConfigPolicy
from repro.caching import CACHE_INSERT_SECONDS, make_cache_config
from repro.config.knobs import RAGConfig, SynthesisMethod
from repro.evaluation.pipeline import CACHE_RESOURCE, QueryPipeline
from repro.evaluation.reports import cache_rows, query_group_rows
from repro.experiments.common import (
    default_engine_config,
    make_metis,
    run_policy,
)
from repro.llm.generation import SimulatedGenerator
from repro.llm.quality import QualityModel
from repro.serving import ClusterEngine, make_speculation
from repro.util import canonical_query_id
from repro.workload import zipfian_workload

STUFF8 = RAGConfig(SynthesisMethod.STUFF, 8)

#: Small repeat-heavy trace: ~45 arrivals over a 6-query pool, so the
#: head repeats enough for every tier to hit.
_TRACE = dict(n_periods=3, period_s=10.0, rate_qps=1.5, pool_size=6,
              zipf_s=1.1, seed=0)


def _fingerprint(result) -> list[tuple]:
    return [
        (r.query_id, r.arrival_time, r.decision_time, r.finish_time,
         r.f1, r.queueing_delay, r.prefill_tokens, r.output_tokens,
         r.replica, r.config, r.cache_hit, r.cache_tier, r.cache_stale,
         r.cache_age_s, r.cache_lookup_seconds)
        for r in result.records
    ]


def _serve(finsec_bundle, **kwargs):
    return run_policy(finsec_bundle, FixedConfigPolicy(STUFF8),
                      workload=zipfian_workload(**_TRACE), seed=0,
                      **kwargs)


class TestDisabledPath:
    def test_default_matches_explicit_off(self, finsec_bundle):
        """No cache kwargs and ``result_cache='off'`` are the same run,
        record for record (the byte-identity vs the *pre-caching*
        pipeline is pinned by the unchanged golden-fingerprint tests)."""
        base = _serve(finsec_bundle)
        off = _serve(finsec_bundle, result_cache="off")
        assert _fingerprint(base) == _fingerprint(off)
        assert base.result_cache is None and base.cache_stats == {}

    def test_disabled_records_carry_defaults(self, finsec_bundle):
        result = _serve(finsec_bundle)
        assert all(not r.cache_hit and r.cache_tier is None
                   for r in result.records)
        assert math.isnan(result.cache_hit_rate) is False
        assert result.cache_hit_rate == 0.0
        assert result.cache_saved_dollars == 0.0

    def test_no_cache_resource_when_disabled(self, finsec_bundle):
        assert CACHE_RESOURCE not in _serve(finsec_bundle).resource_stats
        cached = _serve(finsec_bundle, result_cache="exact")
        assert CACHE_RESOURCE in cached.resource_stats
        # Every arrival probes once; misses also pay the insert.
        assert (cached.resource_stats[CACHE_RESOURCE].n_requests
                >= len(cached.records))


class TestExactResultTier:
    def test_hits_bypass_the_engine(self, finsec_bundle):
        base = _serve(finsec_bundle)
        cached = _serve(finsec_bundle, result_cache="exact")
        hits = [r for r in cached.records if r.cache_hit]
        assert cached.cache_hit_rate > 0.3
        assert hits and all(r.cache_tier == "result-exact" for r in hits)
        # A result hit never touches retrieval or the engine.
        for r in hits:
            assert r.prefill_tokens == 0 and r.output_tokens == 0
            assert r.retrieval_seconds == 0.0
            assert r.cache_lookup_seconds > 0.0
            assert r.cache_age_s >= 0.0
        # The whole point: repeats get cheaper and faster.
        assert cached.mean_delay < base.mean_delay
        assert (cached.ledger.total_dollars < base.ledger.total_dollars)
        assert cached.cache_saved_dollars > 0.0

    def test_exact_repeats_score_identically(self, finsec_bundle):
        """A hit re-scores the cached tokens against the hitting
        query's own ground truth — identical for exact repeats."""
        cached = _serve(finsec_bundle, result_cache="exact")
        by_canonical: dict[str, list] = {}
        for r in cached.records:
            by_canonical.setdefault(
                canonical_query_id(r.query_id), []).append(r)
        for group in by_canonical.values():
            misses = [r.f1 for r in group if not r.cache_hit]
            hits = [r.f1 for r in group
                    if r.cache_tier == "result-exact"]
            if misses and hits:
                assert all(f1 == pytest.approx(misses[-1])
                           for f1 in hits)

    def test_cached_run_is_deterministic(self, finsec_bundle):
        a = _serve(finsec_bundle, result_cache="exact",
                   retrieval_cache=True, cache_eviction="gdsf")
        b = _serve(finsec_bundle, result_cache="exact",
                   retrieval_cache=True, cache_eviction="gdsf")
        assert _fingerprint(a) == _fingerprint(b)

    def test_tiny_capacity_evicts_but_completes(self, finsec_bundle):
        cached = _serve(finsec_bundle, result_cache="exact",
                        cache_capacity=2, cache_eviction="gdsf")
        assert len(cached.records) > 0
        assert cached.cache_stats["result"].evictions > 0
        # Squeezed capacity can only lose hits vs a roomy cache.
        roomy = _serve(finsec_bundle, result_cache="exact",
                       cache_capacity=256, cache_eviction="gdsf")
        assert cached.cache_hit_rate <= roomy.cache_hit_rate

    def test_ttl_expires_entries(self, finsec_bundle):
        """A TTL shorter than the repeat spacing forfeits hits."""
        no_ttl = _serve(finsec_bundle, result_cache="exact")
        short = _serve(finsec_bundle, result_cache="exact",
                       cache_ttl=0.5)
        assert short.cache_stats["result"].expirations > 0
        assert short.cache_hit_rate < no_ttl.cache_hit_rate


class TestRetrievalTier:
    def test_hits_still_synthesize(self, finsec_bundle):
        cached = _serve(finsec_bundle, retrieval_cache=True)
        hits = [r for r in cached.records if r.cache_tier == "retrieval"]
        assert hits
        for r in hits:
            assert r.output_tokens > 0  # fresh answer over cached chunks
            assert r.retrieval_seconds == 0.0  # but no scatter-gather
        # Quality is untouched by construction: identical chunk ids in,
        # identical synthesis out.
        base = _serve(finsec_bundle)
        assert cached.mean_f1 == pytest.approx(base.mean_f1)

    def test_result_tier_shadows_retrieval_tier(self, finsec_bundle):
        both = _serve(finsec_bundle, result_cache="exact",
                      retrieval_cache=True)
        tiers = {r.cache_tier for r in both.records if r.cache_hit}
        assert "result-exact" in tiers


class TestSemanticTier:
    def test_semantic_promotes_and_beats_exact(self, finsec_bundle):
        exact = _serve(finsec_bundle, result_cache="exact")
        semantic = _serve(finsec_bundle, result_cache="semantic",
                          semantic_threshold=0.9)
        assert semantic.cache_hit_rate >= exact.cache_hit_rate
        stats = semantic.cache_stats["result"]
        if stats.semantic_hits:
            # Promotion: each semantic hit re-inserts under the exact
            # key, so inserts exceed the miss count alone.
            assert stats.inserts > len(semantic.records) - stats.hits


class TestClusterHitPath:
    def test_cluster_cache_run_releases_app_pins(self, finsec_bundle):
        """Result hits on a cluster must release the decide-time app
        pin, or draining/retirement (and this run's completion) would
        strand; every arrival completing is the observable contract."""
        cached = _serve(finsec_bundle, result_cache="exact",
                        n_replicas=2, router="least-outstanding")
        base = _serve(finsec_bundle, n_replicas=2,
                      router="least-outstanding")
        assert len(cached.records) == len(base.records)
        assert cached.cache_hit_rate > 0.0
        assert cached.mean_delay < base.mean_delay


class TestHedgedCacheTiers:
    """Cache hits on a hedged two-replica METIS fleet: every path that
    opens a primary lane (retrieval hit, full miss) plans a hedge, and
    a result hit, which opens no lane, never does."""

    def _serve(self, bundle, result_cache: str | None) -> QueryPipeline:
        pipeline = QueryPipeline(
            bundle=bundle,
            policy=make_metis(bundle),
            engine=ClusterEngine(default_engine_config(), n_replicas=2,
                                 seed=0),
            generator=SimulatedGenerator(
                quality=QualityModel(bundle.quality_params), root_seed=0),
            speculation=make_speculation("hedge-after-delay",
                                         hedge_delay=0.5),
            cache_config=make_cache_config(result_cache=result_cache,
                                           retrieval_cache=True),
        )
        # ~64 arrivals over the 30-query pool.
        workload = zipfian_workload(n_periods=4, period_s=10.0,
                                    pool_size=30, seed=0)
        arrivals = workload.materialize(bundle.queries, seed=0)
        pipeline.run(arrivals)
        assert len(pipeline.records) == len(arrivals)
        return pipeline

    @staticmethod
    def _assert_no_pins(pipeline: QueryPipeline) -> None:
        for r in pipeline.records:
            for app_id in (r.query_id, f"{r.query_id}#hedge"):
                assert pipeline.engine.replica_of_app(app_id) is None

    @pytest.mark.parametrize("result_cache", [None, "exact"])
    def test_deterministic_and_pin_free(self, finsec_bundle, result_cache):
        first = self._serve(finsec_bundle, result_cache)
        second = self._serve(finsec_bundle, result_cache)
        assert first.records == second.records
        self._assert_no_pins(first)

    def test_retrieval_hits_are_hedged(self, finsec_bundle):
        records = self._serve(finsec_bundle, None).records
        hits = [r for r in records if r.cache_tier == "retrieval"]
        hedged = [r for r in hits if r.hedged]
        assert hedged
        assert any(r.hedge_won for r in hedged)

    def test_result_hits_are_never_hedged(self, finsec_bundle):
        records = self._serve(finsec_bundle, "exact").records
        hits = [r for r in records if r.cache_tier == "result-exact"]
        assert hits
        for r in hits:
            assert not r.hedged and not r.hedge_won
            assert r.prefill_tokens == r.output_tokens == 0
        assert any(r.hedged for r in records
                   if r.cache_tier == "retrieval")


class TestReports:
    def test_cache_rows_and_query_groups(self, finsec_bundle):
        cached = _serve(finsec_bundle, result_cache="exact",
                        retrieval_cache=True)
        rows = cache_rows(cached)
        assert {r["tier"] for r in rows} == {"result", "retrieval"}
        for row in rows:
            assert row["lookups"] >= row["hits"] >= 0
        groups = query_group_rows(cached)
        assert sum(g["repeats"] for g in groups) == len(cached.records)
        assert any(g["repeats"] > 1 for g in groups)
        assert all("#r" not in g["query"] for g in groups)

    def test_insert_cost_is_charged(self, finsec_bundle):
        cached = _serve(finsec_bundle, result_cache="exact")
        stats = cached.cache_stats["result"]
        busy = cached.resource_stats[CACHE_RESOURCE].busy_seconds
        # At minimum every insert's hold shows up on the resource.
        assert busy >= stats.inserts * CACHE_INSERT_SECONDS - 1e-9
