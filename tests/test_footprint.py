"""Exactness of the closed-form plan footprints.

The decision-plane fast path stands on one contract: for uniform chunk
sizes, ``Synthesizer.estimate_footprint`` equals
``PlanFootprint.from_plan(build_plan(...))`` integer for integer, for
every synthesis method across the full ``num_chunks`` × query-shape
grid. These tests pin that contract (plus the memoized module-level
estimator and the service-time pricing used by deadline-risk
speculation).
"""

import random

import pytest

from repro.config.knobs import RAGConfig, SynthesisMethod
from repro.llm.costs import RooflineCostModel
from repro.llm.gpu import A40, ClusterSpec
from repro.llm.model import MISTRAL_7B_AWQ
from repro.serving.speculation import estimate_plan_seconds
from repro.synthesis import (
    PlanFootprint,
    estimate_footprint,
    make_synthesizer,
)

METHODS = tuple(SynthesisMethod)


def _config(method: SynthesisMethod, k: int, ilen: int) -> RAGConfig:
    if method.uses_intermediate_length:
        return RAGConfig(method, k, ilen)
    return RAGConfig(method, k)


def _materialized(config: RAGConfig, query_tokens: int, chunk_tokens: int,
                  answer_tokens: int):
    synthesizer = make_synthesizer(config.synthesis_method)
    return synthesizer.build_plan(
        query_tokens=query_tokens,
        chunk_tokens=[chunk_tokens] * config.num_chunks,
        answer_tokens=answer_tokens,
        config=config,
    )


class TestClosedFormExactness:
    @pytest.mark.parametrize("method", METHODS, ids=str)
    def test_full_num_chunks_grid(self, method):
        """estimate == from_plan(build_plan) for every k in [1, 64]."""
        rng = random.Random(f"footprint-{method}")
        synthesizer = make_synthesizer(method)
        for k in range(1, 65):
            q = rng.randint(1, 200)
            c = rng.randint(1, 2000)
            a = rng.randint(1, 300)
            ilen = rng.randint(1, 400)
            config = _config(method, k, ilen)
            estimated = synthesizer.estimate_footprint(q, c, a, config)
            built = PlanFootprint.from_plan(_materialized(config, q, c, a))
            assert estimated == built, (config, q, c, a)

    @pytest.mark.parametrize("method", METHODS, ids=str)
    def test_random_query_shapes(self, method):
        rng = random.Random(f"shapes-{method}")
        synthesizer = make_synthesizer(method)
        for _ in range(200):
            config = _config(method, rng.randint(1, 64),
                             rng.randint(1, 2048))
            q, c, a = (rng.randint(1, 500), rng.randint(1, 4000),
                       rng.randint(1, 500))
            estimated = synthesizer.estimate_footprint(q, c, a, config)
            plan = _materialized(config, q, c, a)
            # Every scalar the scheduler (or anything else) reads.
            assert estimated.cost_tokens == plan.cost_tokens
            assert estimated.fit_tokens == plan.fit_tokens
            assert estimated.stage_peak_tokens == plan.stage_peak_tokens
            assert estimated.total_prefill_tokens == plan.total_prefill_tokens
            assert estimated.total_output_tokens == plan.total_output_tokens
            assert estimated.n_calls == len(plan.calls)
            assert estimated.n_stages == plan.n_stages

    def test_validation_mirrors_build_plan(self):
        synthesizer = make_synthesizer(SynthesisMethod.STUFF)
        config = RAGConfig(SynthesisMethod.STUFF, 4)
        with pytest.raises(ValueError):
            synthesizer.estimate_footprint(0, 500, 20, config)
        with pytest.raises(ValueError):
            synthesizer.estimate_footprint(30, 0, 20, config)
        with pytest.raises(ValueError):
            synthesizer.estimate_footprint(30, 500, 0, config)
        with pytest.raises(ValueError):
            synthesizer.estimate_footprint(
                30, 500, 20, RAGConfig(SynthesisMethod.MAP_RERANK, 4))


class TestServiceSeconds:
    def test_matches_estimate_plan_seconds(self):
        """Footprint pricing is bit-identical to pricing the plan."""
        cost = RooflineCostModel(MISTRAL_7B_AWQ, ClusterSpec(A40))
        rng = random.Random("service-seconds")
        for method in METHODS:
            for _ in range(50):
                config = _config(method, rng.randint(1, 32),
                                 rng.randint(1, 300))
                q, c, a = (rng.randint(1, 200), rng.randint(1, 1500),
                           rng.randint(1, 200))
                footprint = estimate_footprint(config, q, c, a)
                plan = _materialized(config, q, c, a)
                assert footprint.service_seconds(cost) == \
                    estimate_plan_seconds(plan, cost)


class TestMemoizedEstimator:
    def test_same_shape_returns_cached_object(self):
        config = RAGConfig(SynthesisMethod.MAP_REDUCE, 7, 120)
        first = estimate_footprint(config, 41, 512, 23)
        second = estimate_footprint(config, 41, 512, 23)
        assert first is second

    def test_matches_synthesizer_closed_form(self):
        config = RAGConfig(SynthesisMethod.MAP_RERANK, 9)
        synthesizer = make_synthesizer(SynthesisMethod.MAP_RERANK)
        assert estimate_footprint(config, 33, 700, 19) == \
            synthesizer.estimate_footprint(33, 700, 19, config)


class TestFromPlanGrouping:
    def test_non_uniform_chunks_group_by_shape(self):
        """from_plan compresses identical calls, keeps distinct ones."""
        config = RAGConfig(SynthesisMethod.MAP_RERANK, 4)
        synthesizer = make_synthesizer(SynthesisMethod.MAP_RERANK)
        plan = synthesizer.build_plan(
            query_tokens=30,
            chunk_tokens=[500, 500, 700, 500], answer_tokens=20,
            config=config)
        footprint = PlanFootprint.from_plan(plan)
        assert footprint.n_calls == 4
        (stage,) = footprint.stages
        assert len(stage) == 2  # two distinct prompt shapes
        assert sum(n for _, _, n in stage) == 4
        assert footprint.cost_tokens == plan.cost_tokens
        assert footprint.fit_tokens == plan.fit_tokens
