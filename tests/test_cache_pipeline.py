"""Pipeline-level tests for the cache tiers: the disabled path is
byte-identical to a cache-free run, exact hits bypass the engine while
retrieval hits still synthesize, cached runs stay deterministic, the
``cache`` resource only exists when a tier is on, cluster runs
release app pins on the hit path, hedging composes with both
tiers, and the profile tier spares a repeat query its profiler call
until the corpus, the profiler's accuracy or the TTL says otherwise."""

from __future__ import annotations

import hashlib
import math
from collections import Counter

import pytest

from repro.baselines import FixedConfigPolicy
from repro.caching import CACHE_INSERT_SECONDS, ProfileCache, make_cache_config
from repro.config.knobs import RAGConfig, SynthesisMethod
from repro.core.controller import MetisConfig
from repro.data.workload import Arrival
from repro.evaluation.pipeline import CACHE_RESOURCE, QueryPipeline
from repro.evaluation.reports import cache_rows, format_table
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

from invariants import assert_caches_within_capacity, assert_drained_clean

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


def _run(pipeline: QueryPipeline, arrivals) -> None:
    """Serve ``arrivals``, then check that the run drained clean and
    that no cache tier, the profile tier included, outgrew its
    capacity."""
    pipeline.run(arrivals)
    assert_drained_clean(pipeline)
    assert_caches_within_capacity(pipeline)


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
        _run(pipeline, arrivals)
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
        repeats = Counter(canonical_query_id(r.query_id)
                          for r in cached.records)
        assert max(repeats.values()) > 1
        assert all("#r" not in query for query in repeats)

    def test_insert_cost_is_charged(self, finsec_bundle):
        cached = _serve(finsec_bundle, result_cache="exact")
        stats = cached.cache_stats["result"]
        busy = cached.resource_stats[CACHE_RESOURCE].busy_seconds
        # At minimum every insert's hold shows up on the resource.
        assert busy >= stats.inserts * CACHE_INSERT_SECONDS - 1e-9


def _metis_pipeline(bundle, metis_config: MetisConfig | None = None,
                    store=None, **cache_kwargs) -> QueryPipeline:
    """A one-replica METIS pipeline with the exact result cache on
    (and so the profile tier)."""
    return QueryPipeline(
        bundle=bundle,
        policy=make_metis(bundle, metis_config),
        engine=ClusterEngine(default_engine_config(), n_replicas=1, seed=0),
        generator=SimulatedGenerator(
            quality=QualityModel(bundle.quality_params), root_seed=0),
        store=store,
        cache_config=make_cache_config(result_cache="exact", **cache_kwargs),
    )


def _zipf_arrivals(bundle, n_periods: int = 3) -> list[Arrival]:
    return zipfian_workload(**{**_TRACE, "n_periods": n_periods}) \
        .materialize(bundle.queries, seed=0)


def _texts(arrivals) -> dict[str, str]:
    return {a.query.query_id: a.query.text for a in arrivals}


def _paid(record) -> bool:
    return record.profiler_dollars > 0.0


class TestProfileTier:
    def test_repeats_reuse_the_profile_and_still_decide(self, finsec_bundle):
        arrivals = _zipf_arrivals(finsec_bundle)
        pipeline = _metis_pipeline(finsec_bundle)
        _run(pipeline, arrivals)
        text = _texts(arrivals)
        first: dict[str, object] = {}
        reused = 0
        for r in sorted(pipeline.records, key=lambda r: r.arrival_time):
            if text[r.query_id] not in first:
                first[text[r.query_id]] = r
                assert _paid(r) and r.profiler_seconds > 0.0
                continue
            if _paid(r):
                continue
            reused += 1
            # No profiler hold: the decision runs on arrival, against
            # the scheduling view of that moment, on the same profile.
            assert r.profiler_seconds == 0.0
            assert r.decision_time == r.arrival_time
            assert r.confidence == first[text[r.query_id]].confidence
        assert reused > 0
        stats = pipeline.cache_stats()["profile"]
        assert stats.hits == reused
        assert stats.saved_dollars > 0.0

    def test_ledger_charges_one_call_per_distinct_text(self, finsec_bundle):
        """Capacity above the pool: each text is profiled once, provided
        no repeat arrives while its text's first call is in flight (a
        call in flight has no profile to share yet)."""
        arrivals = _zipf_arrivals(finsec_bundle)
        pipeline = _metis_pipeline(finsec_bundle, cache_capacity=64)
        _run(pipeline, arrivals)
        records = pipeline.records
        text = _texts(arrivals)
        returned: dict[str, float] = {}
        for r in sorted(records, key=lambda r: r.arrival_time):
            t = text[r.query_id]
            if t in returned:
                assert r.arrival_time >= returned[t]
            else:
                returned[t] = (r.arrival_time + r.profiler_queue_delay
                               + r.profiler_seconds)
        ledger = pipeline.ledger
        assert ledger.n_api_calls == len(set(text.values()))
        assert ledger.n_api_calls == sum(1 for r in records if _paid(r))
        assert ledger.api_dollars == pytest.approx(
            sum(r.profiler_dollars for r in records), rel=1e-12)

    def test_corpus_bump_forces_a_fresh_call(self, finsec_bundle):
        # A private store copy: the bump must not reach the shared
        # bundle other tests serve from.
        store = finsec_bundle.store.reshard(1)
        arrivals = _zipf_arrivals(finsec_bundle)
        mid = len(arrivals) // 2
        t_bump = (arrivals[mid - 1].time + arrivals[mid].time) / 2
        pipeline = _metis_pipeline(finsec_bundle, store=store)
        pipeline.loop.schedule(t_bump, "reingest",
                               lambda t, _: store.bump_corpus_version())
        _run(pipeline, arrivals)
        assert store.corpus_version == 1
        text = _texts(arrivals)
        before = {text[a.query.query_id] for a in arrivals[:mid]}
        seen_after: set[str] = set()
        repaid = 0
        for r in sorted(pipeline.records, key=lambda r: r.arrival_time):
            t = text[r.query_id]
            if r.arrival_time < t_bump or t in seen_after:
                continue
            seen_after.add(t)
            if t in before:
                assert _paid(r), f"{r.query_id} reused a pre-bump profile"
                repaid += 1
        assert repaid > 0
        records = pipeline.records
        assert pipeline.ledger.n_api_calls == sum(
            1 for r in records if _paid(r))
        assert pipeline.ledger.api_dollars == pytest.approx(
            sum(r.profiler_dollars for r in records), rel=1e-12)

    def test_feedback_prompt_forces_a_fresh_call(self, finsec_bundle):
        """Closed loop, one client: the 31st query arrives after the
        30th completion's feedback prompt raised the profiler's
        accuracy, so each text's first repeat from there on is
        profiled afresh; without feedback the same repeats reuse."""
        arrivals = [Arrival(query=a.query, time=None)
                    for a in _zipf_arrivals(finsec_bundle, n_periods=6)]
        text = _texts(arrivals)

        def serve(enable_feedback: bool):
            pipeline = _metis_pipeline(
                finsec_bundle, MetisConfig(enable_feedback=enable_feedback))
            _run(pipeline, arrivals)
            assert [r.query_id for r in pipeline.records] \
                == [a.query.query_id for a in arrivals]
            return pipeline

        plain = serve(False)
        boosted = serve(True)
        assert boosted.policy.feedback.events  # a prompt did fire
        early = {text[r.query_id] for r in boosted.records[:30]}
        seen: set[str] = set()
        for fb, no_fb in zip(boosted.records[30:], plain.records[30:]):
            t = text[fb.query_id]
            if t in early and t not in seen:
                assert _paid(fb) and not _paid(no_fb)
            seen.add(t)
        assert plain.ledger.n_api_calls == len(set(text.values()))
        assert boosted.ledger.n_api_calls > plain.ledger.n_api_calls

    def test_ttl_expired_entry_misses(self, finsec_bundle):
        arrivals = _zipf_arrivals(finsec_bundle)
        roomy = _metis_pipeline(finsec_bundle)
        _run(roomy, arrivals)
        short = _metis_pipeline(finsec_bundle, cache_ttl=0.5)
        _run(short, arrivals)
        stats = short.cache_stats()["profile"]
        assert stats.expirations > 0
        assert stats.hits < roomy.cache_stats()["profile"].hits
        assert short.ledger.n_api_calls > roomy.ledger.n_api_calls

    def test_capacity_bounds_the_tier(self, finsec_bundle, monkeypatch):
        sizes: list[int] = []
        insert = ProfileCache.insert

        def counted(cache, *args, **kwargs):
            entry = insert(cache, *args, **kwargs)
            sizes.append(len(cache))
            return entry

        monkeypatch.setattr(ProfileCache, "insert", counted)
        pipeline = _metis_pipeline(finsec_bundle, cache_capacity=2,
                                   cache_eviction="gdsf")
        _run(pipeline, _zipf_arrivals(finsec_bundle))
        assert sizes and max(sizes) <= 2
        assert pipeline.cache_stats()["profile"].evictions > 0

    def test_fixed_config_never_builds_the_tier(self, finsec_bundle):
        """A policy with no profiler call has no profile tier, and its
        cache table renders as it did before the tier existed."""
        cached = _serve(finsec_bundle, result_cache="exact",
                        retrieval_cache=True)
        assert list(cached.cache_stats) == ["result", "retrieval"]
        table = format_table(cache_rows(cached))
        assert hashlib.sha256(table.encode()).hexdigest() == (
            "2d050e646d1a1a5b14b3cc0883b291dca57668326afc5d230d81081900236617")
