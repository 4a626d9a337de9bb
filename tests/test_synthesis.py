"""Unit tests for synthesis planners and plan footprints."""

import random

import pytest

from repro.config.knobs import RAGConfig, SynthesisMethod
from repro.llm.costs import RooflineCostModel
from repro.llm.gpu import A40, ClusterSpec
from repro.llm.model import MISTRAL_7B_AWQ
from repro.synthesis import (
    MapReduceSynthesizer,
    MapRerankSynthesizer,
    StuffSynthesizer,
    SynthesisPlan,
    make_synthesizer,
)
from repro.synthesis.base import wrapper_tokens

CHUNKS = [400, 420, 380]
QUERY_TOKENS = 30
ANSWER_TOKENS = 20
METHODS = tuple(SynthesisMethod)


def build(method, k=3, ilen=100, chunks=CHUNKS):
    config = RAGConfig(method, k, ilen if method.uses_intermediate_length else 0)
    return make_synthesizer(method).build_plan(
        query_tokens=QUERY_TOKENS, chunk_tokens=chunks,
        answer_tokens=ANSWER_TOKENS, config=config,
    )


def expand(plan: SynthesisPlan) -> list[tuple[int, int, int]]:
    """One ``(prompt_tokens, output_tokens, stage)`` per call, in the
    order the pipeline submits them."""
    return [
        (prompt, output, stage)
        for stage, groups in enumerate(plan.stages)
        for prompt, output, n in groups
        for _ in range(n)
    ]


def per_call(method, query_tokens, chunks, answer_tokens, ilen):
    """Each method's calls written out one by one, independently of the
    planners' grouping."""
    k = len(chunks)
    if method is SynthesisMethod.STUFF:
        return [(query_tokens + sum(chunks) + wrapper_tokens(k),
                 answer_tokens, 0)]
    single = [query_tokens + n + wrapper_tokens(1) for n in chunks]
    if method is SynthesisMethod.MAP_RERANK:
        return [(p, answer_tokens + 4, 0) for p in single]
    return [(p, ilen, 0) for p in single] + [
        (query_tokens + k * ilen + wrapper_tokens(k), answer_tokens, 1)
    ]


class TestStuff:
    def test_single_call(self):
        plan = build(SynthesisMethod.STUFF)
        assert plan.n_calls == 1
        assert plan.n_stages == 1

    def test_prompt_includes_everything(self):
        plan = build(SynthesisMethod.STUFF)
        ((prompt, output, _),) = expand(plan)
        overhead = wrapper_tokens(3)
        assert prompt == QUERY_TOKENS + sum(CHUNKS) + overhead
        assert output == ANSWER_TOKENS


class TestMapRerank:
    def test_one_call_per_chunk_single_stage(self):
        plan = build(SynthesisMethod.MAP_RERANK)
        assert plan.n_calls == 3
        assert plan.n_stages == 1

    def test_each_call_sees_one_chunk(self):
        plan = build(SynthesisMethod.MAP_RERANK)
        for (prompt, _, _), n in zip(expand(plan), CHUNKS, strict=True):
            assert prompt == (
                QUERY_TOKENS + n + wrapper_tokens(1)
            )


class TestMapReduce:
    def test_mappers_plus_reduce(self):
        plan = build(SynthesisMethod.MAP_REDUCE, ilen=100)
        assert plan.n_calls == 4
        assert plan.n_stages == 2
        assert [stage for _, _, stage in expand(plan)] == [0, 0, 0, 1]

    def test_mapper_outputs_are_ilen(self):
        plan = build(SynthesisMethod.MAP_REDUCE, ilen=77)
        assert {output for _, output, _ in plan.stages[0]} == {77}

    def test_reduce_prompt_holds_summaries(self):
        plan = build(SynthesisMethod.MAP_REDUCE, ilen=100)
        ((prompt, _, n),) = plan.stages[1]
        assert n == 1
        assert prompt == (
            QUERY_TOKENS + 3 * 100 + wrapper_tokens(3)
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
        calls = expand(plan)
        assert plan.total_prefill_tokens == sum(p for p, _, _ in calls)
        assert plan.total_output_tokens == sum(o for _, o, _ in calls)

    def test_stage_peak(self):
        plan = build(SynthesisMethod.MAP_REDUCE)
        stage_totals = [sum(p + o for p, o, s in expand(plan) if s == stage)
                        for stage in range(plan.n_stages)]
        assert plan.stage_peak_tokens == max(stage_totals)


class TestCallOrder:
    """The grouped plan is the call sequence the engine is sent: runs
    of identical consecutive calls, never merged across a gap, because
    the pipeline submits groups in order and admission order shapes
    the records."""

    @staticmethod
    def _chunk_lists(seed):
        rng = random.Random(seed)
        # Repeats that are not adjacent, from the grouping example on.
        lists = [[500, 500, 700, 500], [500, 700, 500, 700, 700]]
        for _ in range(60):
            lists.append([rng.choice((300, 500, 700))
                          for _ in range(rng.randint(1, 16))])
        return lists

    @staticmethod
    def _config(method, k, ilen=120):
        return RAGConfig(method, k,
                         ilen if method.uses_intermediate_length else 0)

    @pytest.mark.parametrize("method", METHODS, ids=str)
    def test_stages_expand_to_per_call_formula(self, method):
        for chunks in self._chunk_lists(f"order-{method}"):
            config = self._config(method, len(chunks))
            plan = make_synthesizer(method).build_plan(
                QUERY_TOKENS, chunks, ANSWER_TOKENS, config)
            assert expand(plan) == per_call(
                method, QUERY_TOKENS, chunks, ANSWER_TOKENS,
                config.intermediate_length), chunks
            for groups in plan.stages:
                # Run-length: neighbouring groups never share a shape.
                shapes = [(p, o) for p, o, _ in groups]
                assert all(a != b for a, b in zip(shapes, shapes[1:]))

    def test_run_length_groups_keep_call_order(self):
        plan = build(SynthesisMethod.MAP_RERANK, k=4,
                     chunks=[500, 500, 700, 500])
        wrapper = wrapper_tokens(1)
        out = ANSWER_TOKENS + 4
        assert plan.stages == ((
            (QUERY_TOKENS + 500 + wrapper, out, 2),
            (QUERY_TOKENS + 700 + wrapper, out, 1),
            (QUERY_TOKENS + 500 + wrapper, out, 1),
        ),)
        assert plan.n_calls == 4

    @pytest.mark.parametrize("method", METHODS, ids=str)
    def test_uniform_chunks_one_group_per_stage(self, method):
        rng = random.Random(f"uniform-{method}")
        for k in range(1, 33):
            chunks = [rng.randint(1, 2000)] * k
            plan = make_synthesizer(method).build_plan(
                QUERY_TOKENS, chunks, ANSWER_TOKENS,
                self._config(method, k))
            assert all(len(groups) == 1 for groups in plan.stages)

    @pytest.mark.parametrize("method", METHODS, ids=str)
    def test_service_seconds_is_per_call_max_then_sum(self, method):
        cost = RooflineCostModel(MISTRAL_7B_AWQ, ClusterSpec(A40))
        for chunks in self._chunk_lists(f"seconds-{method}"):
            plan = make_synthesizer(method).build_plan(
                QUERY_TOKENS, chunks, ANSWER_TOKENS,
                self._config(method, len(chunks)))
            calls = expand(plan)
            expected = 0.0
            for stage in range(plan.n_stages):
                slowest = 0.0
                for prompt, output, s in calls:
                    if s == stage:
                        slowest = max(slowest,
                                      cost.request_seconds(prompt, output))
                expected += slowest
            assert plan.service_seconds(cost) == expected


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
        assert plan.n_calls == 1

    def test_empty_chunks_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            StuffSynthesizer().build_plan(
                30, [], 20, RAGConfig(SynthesisMethod.STUFF, 3))

    @pytest.mark.parametrize("synthesizer", [
        StuffSynthesizer(), MapRerankSynthesizer(), MapReduceSynthesizer(),
    ], ids=lambda s: str(s.method))
    def test_non_positive_sizes_rejected(self, synthesizer):
        config = RAGConfig(synthesizer.method, 3,
                           100 if synthesizer.method.uses_intermediate_length
                           else 0)
        for q, chunks, a in [(30, [400, 0, 380], 20), (0, CHUNKS, 20),
                             (30, CHUNKS, 0)]:
            with pytest.raises(ValueError, match="positive"):
                synthesizer.build_plan(q, chunks, a, config)


class TestPlanValidation:
    def test_non_contiguous_stages_rejected(self):
        # Calls in stages 0 and 2 only: stage 1 is empty.
        with pytest.raises(ValueError, match="contiguous"):
            SynthesisPlan.from_stages((((10, 5, 1),), (), ((10, 5, 1),)))

    def test_empty_plan_rejected(self):
        with pytest.raises(ValueError):
            SynthesisPlan.from_stages(())
        with pytest.raises(ValueError, match="positive"):
            SynthesisPlan.from_stages((((10, 5, 0),),))
