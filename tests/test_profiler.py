"""Unit tests for query profiles and the LLM profiler noise model."""

import numpy as np
import pytest

from repro.core.profiler import (
    GPT4O_PROFILER,
    LLAMA70B_PROFILER,
    LLMProfiler,
)
from repro.core.profiles import MAX_PIECES, QueryProfile, profile_is_good
from repro.data.types import QueryTruth


def truth(pieces=3, high=True, joint=True, summary=(60, 120)) -> QueryTruth:
    return QueryTruth(
        complexity_high=high, joint_reasoning=joint,
        required_fact_ids=tuple(f"f{i}" for i in range(pieces)),
        summary_range=summary,
        answer_template_tokens=("answer",),
    )


def from_truth(t: QueryTruth) -> QueryProfile:
    """The profile a perfect profiler would emit."""
    return QueryProfile(
        complexity_high=t.complexity_high,
        joint_reasoning=t.joint_reasoning,
        pieces=min(MAX_PIECES, t.pieces_of_information),
        summary_range=t.summary_range,
        confidence=1.0,
    )


class TestQueryProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            QueryProfile(True, True, 0, (10, 20), 0.9)
        with pytest.raises(ValueError):
            QueryProfile(True, True, 3, (20, 10), 0.9)
        with pytest.raises(ValueError):
            QueryProfile(True, True, 3, (10, 20), 1.5)


class TestProfileIsGood:
    def test_exact_profile_is_good(self):
        t = truth()
        assert profile_is_good(from_truth(t), t)

    def test_true_pieces_clamped_to_max(self):
        # A truth needing more than MAX_PIECES is matched by a profile
        # at the cap, not judged against the raw count.
        t = truth(pieces=15)
        assert profile_is_good(from_truth(t), t, pieces_tolerance=0)

    def test_pieces_within_tolerance(self):
        t = truth(pieces=3)
        p = QueryProfile(True, True, 4, (60, 120), 0.9)
        assert profile_is_good(p, t)
        p = QueryProfile(True, True, 5, (60, 120), 0.9)
        assert not profile_is_good(p, t)

    def test_flipped_binary_is_bad(self):
        t = truth()
        p = QueryProfile(False, True, 3, (60, 120), 0.9)
        assert not profile_is_good(p, t)
        p = QueryProfile(True, False, 3, (60, 120), 0.9)
        assert not profile_is_good(p, t)

    def test_disjoint_summary_range_is_bad(self):
        t = truth(summary=(60, 120))
        p = QueryProfile(True, True, 3, (200, 300), 0.9)
        assert not profile_is_good(p, t)


class TestLLMProfiler:
    def _query(self, bundle, i=0):
        return bundle.queries[i]

    def test_deterministic_per_query(self, finsec_bundle):
        p1 = LLMProfiler(GPT4O_PROFILER, 40, seed=1)
        p2 = LLMProfiler(GPT4O_PROFILER, 40, seed=1)
        q = self._query(finsec_bundle)
        assert p1.profile(q).profile == p2.profile(q).profile

    def test_seed_changes_outcomes(self, finsec_bundle):
        outcomes = set()
        for seed in range(5):
            profiler = LLMProfiler(GPT4O_PROFILER, 40, seed=seed)
            outcomes.add(profiler.profile(self._query(finsec_bundle)).profile)
        assert len(outcomes) > 1 or len(finsec_bundle.queries) == 0

    def test_accuracy_calibration(self, finsec_bundle, qmsum_bundle):
        """Good-profile rate over many queries ≈ spec.base_accuracy."""
        profiler = LLMProfiler(GPT4O_PROFILER, 40, seed=0)
        queries = finsec_bundle.queries + qmsum_bundle.queries
        good = sum(
            profile_is_good(profiler.profile(q).profile, q.truth)
            for q in queries
        )
        rate = good / len(queries)
        assert abs(rate - GPT4O_PROFILER.base_accuracy) < 0.12

    def test_confidence_discriminates(self, finsec_bundle, qmsum_bundle,
                                      musique_bundle, squad_bundle):
        profiler = LLMProfiler(GPT4O_PROFILER, 40, seed=0)
        queries = (finsec_bundle.queries + qmsum_bundle.queries
                   + musique_bundle.queries + squad_bundle.queries)
        good_conf, bad_conf = [], []
        for q in queries:
            result = profiler.profile(q)
            bucket = (good_conf
                      if profile_is_good(result.profile, q.truth)
                      else bad_conf)
            bucket.append(result.profile.confidence)
        assert np.mean(good_conf) > np.mean(bad_conf)

    def test_llama_profiler_less_accurate(self):
        assert (LLAMA70B_PROFILER.base_accuracy
                < GPT4O_PROFILER.base_accuracy)

    def test_feedback_boost_raises_accuracy(self):
        profiler = LLMProfiler(GPT4O_PROFILER, 40)
        base = profiler.accuracy
        profiler.set_accuracy_boost(0.05)
        assert profiler.accuracy == pytest.approx(base + 0.05)

    def test_higher_accuracy_only_turns_bad_profiles_good(
            self, finsec_bundle, qmsum_bundle, musique_bundle,
            squad_bundle):
        """Every accuracy draws from the same per-query stream, so the
        good profiles at one accuracy are a subset of the good profiles
        at any higher one (feedback pairs its draws)."""
        queries = (finsec_bundle.queries + qmsum_bundle.queries
                   + musique_bundle.queries + squad_bundle.queries)
        profiler = LLMProfiler(GPT4O_PROFILER, 40, seed=0)
        good_sets = []
        for boost in (0.0, 0.02, 0.04, 0.075):
            profiler.set_accuracy_boost(boost)
            good_sets.append({
                q.query_id for q in queries
                if profile_is_good(profiler.profile(q).profile, q.truth)})
        for lower, higher in zip(good_sets, good_sets[1:]):
            assert lower <= higher
        assert good_sets[0] < good_sets[-1]

    def test_boost_capped(self):
        profiler = LLMProfiler(GPT4O_PROFILER, 40)
        profiler.set_accuracy_boost(0.5)
        assert profiler.accuracy <= 0.985

    def test_negative_boost_rejected(self):
        profiler = LLMProfiler(GPT4O_PROFILER, 40)
        with pytest.raises(ValueError):
            profiler.set_accuracy_boost(-0.1)

    def test_latency_and_cost_positive(self, finsec_bundle):
        profiler = LLMProfiler(GPT4O_PROFILER, 40)
        result = profiler.profile(self._query(finsec_bundle))
        assert result.api_seconds > 0
        assert result.dollars > 0
        assert result.input_tokens > finsec_bundle.queries[0].n_tokens

    def test_metadata_tokens_increase_input(self, finsec_bundle):
        q = self._query(finsec_bundle)
        small = LLMProfiler(GPT4O_PROFILER, 10).profile(q)
        large = LLMProfiler(GPT4O_PROFILER, 500).profile(q)
        assert large.input_tokens > small.input_tokens
        assert large.api_seconds > small.api_seconds

    def test_bad_metadata_rejected(self):
        with pytest.raises(ValueError):
            LLMProfiler(GPT4O_PROFILER, -1)
