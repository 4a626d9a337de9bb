"""Unit tests for synthesis planners and plan footprints."""

import pytest

from repro.config.knobs import RAGConfig, SynthesisMethod
from repro.synthesis import (
    MapReduceSynthesizer,
    MapRerankSynthesizer,
    PromptOverheads,
    StuffSynthesizer,
    make_synthesizer,
)
from repro.synthesis.plans import LLMCall, SynthesisPlan

CHUNKS = [400, 420, 380]
QUERY_TOKENS = 30
ANSWER_TOKENS = 20


def build(method, k=3, ilen=100):
    config = RAGConfig(method, k, ilen if method.uses_intermediate_length else 0)
    return make_synthesizer(method).build_plan(
        query_tokens=QUERY_TOKENS, chunk_tokens=CHUNKS,
        answer_tokens=ANSWER_TOKENS, config=config,
    )


class TestStuff:
    def test_single_call(self):
        plan = build(SynthesisMethod.STUFF)
        assert len(plan.calls) == 1
        assert plan.n_stages == 1

    def test_prompt_includes_everything(self):
        plan = build(SynthesisMethod.STUFF)
        call = plan.calls[0]
        overhead = PromptOverheads().wrapper_tokens(3)
        assert call.prompt_tokens == QUERY_TOKENS + sum(CHUNKS) + overhead
        assert call.output_tokens == ANSWER_TOKENS


class TestMapRerank:
    def test_one_call_per_chunk_single_stage(self):
        plan = build(SynthesisMethod.MAP_RERANK)
        assert len(plan.calls) == 3
        assert plan.n_stages == 1

    def test_each_call_sees_one_chunk(self):
        plan = build(SynthesisMethod.MAP_RERANK)
        for call, n in zip(plan.calls, CHUNKS):
            assert call.prompt_tokens == (
                QUERY_TOKENS + n + PromptOverheads().wrapper_tokens(1)
            )


class TestMapReduce:
    def test_mappers_plus_reduce(self):
        plan = build(SynthesisMethod.MAP_REDUCE, ilen=100)
        assert len(plan.calls) == 4
        assert plan.n_stages == 2
        assert len(plan.stage_calls(0)) == 3
        assert len(plan.stage_calls(1)) == 1

    def test_mapper_outputs_are_ilen(self):
        plan = build(SynthesisMethod.MAP_REDUCE, ilen=77)
        for call in plan.stage_calls(0):
            assert call.output_tokens == 77

    def test_reduce_prompt_holds_summaries(self):
        plan = build(SynthesisMethod.MAP_REDUCE, ilen=100)
        reduce_call = plan.stage_calls(1)[0]
        assert reduce_call.prompt_tokens == (
            QUERY_TOKENS + 3 * 100 + PromptOverheads().wrapper_tokens(3)
        )


class TestFootprints:
    def test_stuff_fit_equals_cost(self):
        plan = build(SynthesisMethod.STUFF)
        assert plan.fit_tokens == plan.cost_tokens

    def test_map_reduce_unit_smaller_than_total(self):
        plan = build(SynthesisMethod.MAP_REDUCE)
        assert plan.fit_tokens < plan.cost_tokens

    def test_fig8_property(self):
        """map_reduce's schedulable unit fits where stuff's doesn't."""
        big_chunks = [2000] * 10
        stuff = make_synthesizer(SynthesisMethod.STUFF).build_plan(
            30, big_chunks, 20, RAGConfig(SynthesisMethod.STUFF, 10))
        mr = make_synthesizer(SynthesisMethod.MAP_REDUCE).build_plan(
            30, big_chunks, 20,
            RAGConfig(SynthesisMethod.MAP_REDUCE, 10, 100))
        assert mr.fit_tokens < stuff.fit_tokens

    def test_prefill_totals(self):
        plan = build(SynthesisMethod.MAP_REDUCE)
        assert plan.total_prefill_tokens == sum(c.prompt_tokens
                                                for c in plan.calls)
        assert plan.total_output_tokens == sum(c.output_tokens
                                               for c in plan.calls)

    def test_stage_peak(self):
        plan = build(SynthesisMethod.MAP_REDUCE)
        stage0 = sum(c.total_tokens for c in plan.stage_calls(0))
        stage1 = sum(c.total_tokens for c in plan.stage_calls(1))
        assert plan.stage_peak_tokens == max(stage0, stage1)


class TestValidation:
    def test_wrong_method_rejected(self):
        with pytest.raises(ValueError, match="cannot plan"):
            StuffSynthesizer().build_plan(
                30, CHUNKS, 20,
                RAGConfig(SynthesisMethod.MAP_RERANK, 3))

    def test_too_many_chunks_rejected(self):
        with pytest.raises(ValueError, match="num_chunks"):
            StuffSynthesizer().build_plan(
                30, CHUNKS, 20, RAGConfig(SynthesisMethod.STUFF, 2))

    def test_fewer_chunks_than_config_allowed(self):
        # The store may run short; planners accept fewer chunks.
        plan = StuffSynthesizer().build_plan(
            30, CHUNKS[:2], 20, RAGConfig(SynthesisMethod.STUFF, 10))
        assert len(plan.calls) == 1

    def test_empty_chunks_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            StuffSynthesizer().build_plan(
                30, [], 20, RAGConfig(SynthesisMethod.STUFF, 3))


class TestPlanValidation:
    def test_non_contiguous_stages_rejected(self):
        calls = (LLMCall(10, 5, stage=0), LLMCall(10, 5, stage=2))
        with pytest.raises(ValueError, match="contiguous"):
            SynthesisPlan(calls=calls)

    def test_empty_plan_rejected(self):
        with pytest.raises(ValueError):
            SynthesisPlan(calls=())
