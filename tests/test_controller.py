"""Unit tests for the METIS controller and its ablation switches."""

import pytest

from repro.config.knobs import SynthesisMethod
from repro.core import MetisConfig, MetisPolicy
from repro.core.policy import SchedulingView
from repro.core.profiles import QueryProfile
from repro.core.policy import PrepResult

KV_BYTES = 131_072


def make_view(available_tokens: float, chunk_tokens: int = 500,
              query_tokens: int = 30) -> SchedulingView:
    return SchedulingView(
        now=0.0, free_kv_bytes=available_tokens * KV_BYTES,
        available_kv_bytes=available_tokens * KV_BYTES,
        kv_bytes_per_token=KV_BYTES, chunk_tokens=chunk_tokens,
        query_tokens=query_tokens, answer_tokens=20,
    )


def make_policy(**config_kwargs) -> MetisPolicy:
    return MetisPolicy(metadata_tokens=40, chunk_tokens=500,
                       config=MetisConfig(**config_kwargs), seed=0)


def prep_with(profile: QueryProfile) -> PrepResult:
    return PrepResult(profile=profile, api_seconds=0.1, dollars=1e-4)


def profile(joint=True, high=True, pieces=3, conf=0.95):
    return QueryProfile(complexity_high=high, joint_reasoning=joint,
                        pieces=pieces, summary_range=(60, 120),
                        confidence=conf)


class TestDecisions:
    def test_basic_decision_within_pruned_space(self, finsec_bundle):
        policy = make_policy()
        q = finsec_bundle.queries[0]
        decision = policy.choose(q, prep_with(profile()), make_view(1e6))
        assert decision.pruned_space is not None
        assert decision.pruned_space.contains(decision.config)

    def test_prepare_runs_profiler(self, finsec_bundle):
        policy = make_policy()
        prep = policy.prepare(finsec_bundle.queries[0])
        assert prep.profile is not None
        assert prep.api_seconds > 0

    def test_memory_pressure_shrinks_choice(self, finsec_bundle):
        policy = make_policy()
        q = finsec_bundle.queries[0]
        rich = policy.choose(q, prep_with(profile()), make_view(1e6))
        poor = policy.choose(q, prep_with(profile()), make_view(2_000))
        assert poor.config.num_chunks <= rich.config.num_chunks


class TestConfidenceFallback:
    def test_low_confidence_uses_recent_spaces(self, finsec_bundle):
        policy = make_policy()
        q = finsec_bundle.queries[0]
        # Two confident decisions populate the history.
        policy.choose(q, prep_with(profile(pieces=2, conf=0.99)), make_view(1e6))
        policy.choose(q, prep_with(profile(pieces=3, conf=0.99)), make_view(1e6))
        low = policy.choose(q, prep_with(profile(pieces=9, conf=0.5)),
                            make_view(1e6))
        assert low.used_recent_spaces
        # The merged recent range tops out at 3*3=9 chunks, far below
        # what pieces=9 would have mapped to (27).
        assert low.config.num_chunks <= 9

    def test_low_confidence_without_history_uses_profile(self, finsec_bundle):
        policy = make_policy()
        q = finsec_bundle.queries[0]
        decision = policy.choose(q, prep_with(profile(conf=0.5)),
                                 make_view(1e6))
        assert not decision.used_recent_spaces

    def test_fallback_disabled(self, finsec_bundle):
        policy = make_policy(enable_confidence_fallback=False)
        q = finsec_bundle.queries[0]
        policy.choose(q, prep_with(profile(conf=0.99)), make_view(1e6))
        low = policy.choose(q, prep_with(profile(conf=0.5)), make_view(1e6))
        assert not low.used_recent_spaces

    def test_low_confidence_profiles_not_recorded(self, finsec_bundle):
        policy = make_policy()
        q = finsec_bundle.queries[0]
        policy.choose(q, prep_with(profile(pieces=2, conf=0.5)), make_view(1e6))
        assert len(policy._recent_spaces) == 0


class TestKnobSwitches:
    def test_disable_synthesis_forces_stuff(self, finsec_bundle):
        policy = make_policy(adapt_synthesis=False)
        q = finsec_bundle.queries[0]
        decision = policy.choose(q, prep_with(profile(joint=False)),
                                 make_view(1e6))
        assert decision.config.synthesis_method is SynthesisMethod.STUFF

    def test_disable_chunks_pins_value(self, finsec_bundle):
        policy = make_policy(adapt_num_chunks=False, fixed_num_chunks=7)
        q = finsec_bundle.queries[0]
        decision = policy.choose(q, prep_with(profile(pieces=2)),
                                 make_view(1e6))
        assert decision.config.num_chunks == 7

    def test_disable_ilen_pins_value(self, finsec_bundle):
        policy = make_policy(adapt_intermediate_length=False,
                             fixed_intermediate_length=123)
        q = finsec_bundle.queries[0]
        decision = policy.choose(q, prep_with(profile(high=True)),
                                 make_view(1e6))
        if decision.config.synthesis_method is SynthesisMethod.MAP_REDUCE:
            assert decision.config.intermediate_length == 123


class TestSelectionModes:
    def test_median_mode(self, finsec_bundle):
        policy = make_policy(selection_mode="median", memory_aware=False)
        q = finsec_bundle.queries[0]
        decision = policy.choose(q, prep_with(profile(pieces=4)),
                                 make_view(1e6))
        assert decision.config.num_chunks == 8  # median of [4, 12]

    def test_max_mode(self, finsec_bundle):
        policy = make_policy(selection_mode="max", memory_aware=False)
        q = finsec_bundle.queries[0]
        decision = policy.choose(q, prep_with(profile(pieces=4)),
                                 make_view(1e6))
        assert decision.config.num_chunks == 12

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            make_policy(selection_mode="random")

    def test_describe_mentions_mode(self):
        assert "median" in make_policy(selection_mode="median").describe()


class TestFeedbackIntegration:
    def test_feedback_disabled_by_default(self):
        assert make_policy().feedback is None

    def test_feedback_enabled(self, finsec_bundle):
        policy = make_policy(enable_feedback=True)
        assert policy.feedback is not None
        q = finsec_bundle.queries[0]
        for _ in range(30):
            policy.on_complete(q, 0.5, 1.0)
        assert policy.feedback.n_active_prompts >= 1
