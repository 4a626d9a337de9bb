"""Unit tests for the golden-configuration feedback loop (§5)."""

import pytest

from repro.core.feedback import (
    ACCURACY_BOOST_PER_PROMPT,
    FEEDBACK_EVERY,
    FEEDBACK_KEEP,
    FeedbackLoop,
    GOLDEN_CONFIG,
)
from repro.core.profiler import GPT4O_PROFILER, LLMProfiler


@pytest.fixture()
def loop(finsec_bundle):
    profiler = LLMProfiler(GPT4O_PROFILER, 40)
    return FeedbackLoop(
        profiler=profiler,
        chunk_tokens=finsec_bundle.chunk_tokens,
    ), profiler


def complete(fb, bundle, n, offset=0):
    """Feed ``n`` completions (cycling the bundle's queries); return the
    last event."""
    queries = bundle.queries
    event = None
    for i in range(offset, offset + n):
        event = fb.on_query_complete(queries[i % len(queries)])
    return event


class TestGoldenConfig:
    def test_matches_paper(self):
        assert GOLDEN_CONFIG.num_chunks == 30
        assert GOLDEN_CONFIG.intermediate_length == 300
        assert GOLDEN_CONFIG.synthesis_method.value == "map_reduce"


class TestFeedbackLoop:
    def test_fires_every_nth_query(self, loop, finsec_bundle):
        fb, _ = loop
        queries = finsec_bundle.queries
        events = [
            fb.on_query_complete(queries[i % len(queries)])
            for i in range(60)
        ]
        fired = [i + 1 for i, e in enumerate(events) if e is not None]
        assert fired == [30, 60]

    def test_keeps_last_k_prompts(self, loop, finsec_bundle):
        fb, _ = loop
        complete(fb, finsec_bundle, 6 * FEEDBACK_EVERY)
        assert fb.events[-1].n_active_prompts == FEEDBACK_KEEP == 4

    def test_boost_applied_to_profiler(self, loop, finsec_bundle):
        fb, profiler = loop
        base = profiler.accuracy
        complete(fb, finsec_bundle, 30)
        assert profiler.accuracy == pytest.approx(base + 0.018)
        complete(fb, finsec_bundle, 30, offset=30)
        assert profiler.accuracy == pytest.approx(base + 0.036)

    def test_boost_saturates_at_keep(self, loop, finsec_bundle):
        fb, profiler = loop
        base_accuracy = GPT4O_PROFILER.base_accuracy
        complete(fb, finsec_bundle, 6 * 30)
        assert profiler.accuracy == pytest.approx(base_accuracy + 4 * 0.018)

    def test_event_costs_recorded(self, loop, finsec_bundle):
        fb, _ = loop
        event = complete(fb, finsec_bundle, 30)
        assert event is not None
        assert event.golden_prefill_tokens > GOLDEN_CONFIG.num_chunks * 1000
        assert event.golden_output_tokens > 0
        assert fb.events == [event]

    def test_config_validation(self):
        """Cadence and strength hold the ranges the loop relies on: a
        full prompt budget's boost stays under the profiler's accuracy
        cap, so the boost saturates at FEEDBACK_KEEP, not at the cap."""
        assert FEEDBACK_EVERY >= 1 and FEEDBACK_KEEP >= 1
        assert 0.0 <= ACCURACY_BOOST_PER_PROMPT <= 0.1
        assert (GPT4O_PROFILER.base_accuracy
                + FEEDBACK_KEEP * ACCURACY_BOOST_PER_PROMPT) < 0.985
