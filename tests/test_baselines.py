"""Unit tests for the baseline policies."""

from repro.baselines import (
    AdaptiveRAGPolicy,
    FixedConfigPolicy,
    MedianConfigPolicy,
    ParrotPolicy,
)
from repro.config.knobs import RAGConfig, SynthesisMethod
from repro.core.policy import PrepResult, SchedulingView
from repro.core.profiles import QueryProfile

KV = 131_072


def view() -> SchedulingView:
    return SchedulingView(now=0.0, free_kv_bytes=1e9, available_kv_bytes=1e9,
                          kv_bytes_per_token=KV, chunk_tokens=500,
                          query_tokens=30, answer_tokens=20)


def profile(joint=True, high=True, pieces=3):
    return QueryProfile(complexity_high=high, joint_reasoning=joint,
                        pieces=pieces, summary_range=(60, 120),
                        confidence=0.95)


class TestFixedConfig:
    def test_always_returns_its_config(self, finsec_bundle):
        config = RAGConfig(SynthesisMethod.STUFF, 8)
        policy = FixedConfigPolicy(config)
        for q in finsec_bundle.queries[:5]:
            assert policy.choose(q, PrepResult(), view()).config == config

    def test_no_profiler(self, finsec_bundle):
        prep = FixedConfigPolicy(
            RAGConfig(SynthesisMethod.STUFF, 8)
        ).prepare(finsec_bundle.queries[0])
        assert prep.profile is None
        assert prep.api_seconds == 0.0

    def test_engine_policies(self):
        config = RAGConfig(SynthesisMethod.STUFF, 8)
        assert FixedConfigPolicy(config).engine_policy == "fcfs"
        assert ParrotPolicy(config).engine_policy == "app-aware"

    def test_names(self):
        config = RAGConfig(SynthesisMethod.STUFF, 8)
        assert "stuff" in FixedConfigPolicy(config).name
        assert ParrotPolicy(config).name.startswith("parrot")


class TestAdaptiveRAG:
    def make(self):
        return AdaptiveRAGPolicy(metadata_tokens=40, seed=0)

    def test_profiler_used(self, finsec_bundle):
        prep = self.make().prepare(finsec_bundle.queries[0])
        assert prep.profile is not None
        assert prep.api_seconds > 0

    def test_complexity_class_configs(self, finsec_bundle):
        policy = self.make()
        q = finsec_bundle.queries[0]
        rerank = policy.choose(q, PrepResult(profile=profile(joint=False)),
                               view()).config
        stuff = policy.choose(q, PrepResult(profile=profile(high=False)),
                              view()).config
        mr = policy.choose(q, PrepResult(profile=profile()), view()).config
        assert rerank.synthesis_method is SynthesisMethod.MAP_RERANK
        assert stuff.synthesis_method is SynthesisMethod.STUFF
        assert mr.synthesis_method is SynthesisMethod.MAP_REDUCE
        assert mr.intermediate_length == AdaptiveRAGPolicy.ILEN

    def test_resource_oblivious(self, finsec_bundle):
        """Same decision regardless of available memory."""
        policy = self.make()
        q = finsec_bundle.queries[0]
        rich = policy.choose(q, PrepResult(profile=profile()), view()).config
        poor_view = SchedulingView(
            now=0.0, free_kv_bytes=0.0, available_kv_bytes=0.0,
            kv_bytes_per_token=KV, chunk_tokens=500, query_tokens=30,
            answer_tokens=20,
        )
        poor = policy.choose(q, PrepResult(profile=profile()),
                             poor_view).config
        assert rich == poor

    def test_more_chunks_than_metis(self, finsec_bundle):
        """AdaptiveRAG* retrieves with extra slack (quality-max)."""
        config = self.make().choose(
            finsec_bundle.queries[0], PrepResult(profile=profile(pieces=3)),
            view(),
        ).config
        assert config.num_chunks > 3 * 3  # beyond METIS' 3x upper bound


class TestMedianConfig:
    def test_engine_policy_variants(self):
        plain = MedianConfigPolicy(metadata_tokens=40, chunk_tokens=500)
        batched = MedianConfigPolicy(metadata_tokens=40, chunk_tokens=500,
                                     app_aware_batching=True)
        assert plain.engine_policy == "fcfs"
        assert batched.engine_policy == "app-aware"
        assert plain.name == "median"
        assert batched.name == "median+batching"

    def test_picks_median_of_range(self, finsec_bundle):
        policy = MedianConfigPolicy(metadata_tokens=40, chunk_tokens=500)
        q = finsec_bundle.queries[0]
        decision = policy.choose(q, PrepResult(profile=profile(pieces=4)),
                                 view())
        assert decision.config.num_chunks == 8
