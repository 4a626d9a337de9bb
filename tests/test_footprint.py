"""Exactness of the scheduler's plan estimates.

The decision plane sizes candidates with
:func:`repro.synthesis.uniform_plan`: the plan a synthesizer builds for
``num_chunks`` uniform chunks. These tests pin
that the estimate *is* that plan across the full ``num_chunks`` ×
query-shape grid, that uniform chunks collapse every stage to one call
group, and that a plan's scalar footprints equal the per-call sums of
its expansion. The call order itself is pinned by
``tests/test_synthesis.py::TestCallOrder``.
"""

import random

import pytest

from repro.config.knobs import RAGConfig, SynthesisMethod
from repro.synthesis import make_synthesizer, uniform_plan
from repro.synthesis.base import wrapper_tokens

METHODS = tuple(SynthesisMethod)


def _config(method: SynthesisMethod, k: int, ilen: int) -> RAGConfig:
    if method.uses_intermediate_length:
        return RAGConfig(method, k, ilen)
    return RAGConfig(method, k)


class TestClosedFormExactness:
    @pytest.mark.parametrize("method", METHODS, ids=str)
    def test_full_num_chunks_grid(self, method):
        """For every k in [1, 64] the estimate is the plan built over k
        uniform chunks, with one call group per stage."""
        rng = random.Random(f"footprint-{method}")
        synthesizer = make_synthesizer(method)
        for k in range(1, 65):
            q = rng.randint(1, 200)
            c = rng.randint(1, 2000)
            a = rng.randint(1, 300)
            ilen = rng.randint(1, 400)
            config = _config(method, k, ilen)
            estimated = uniform_plan(config, q, c, a)
            assert estimated == synthesizer.build_plan(q, [c] * k, a, config)
            assert all(len(groups) == 1 for groups in estimated.stages)

    @pytest.mark.parametrize("method", METHODS, ids=str)
    def test_random_query_shapes(self, method):
        """Every scalar footprint equals the per-call sum (or max) over
        the plan's expanded calls, for non-uniform chunk lists."""
        rng = random.Random(f"shapes-{method}")
        synthesizer = make_synthesizer(method)
        for _ in range(200):
            k = rng.randint(1, 64)
            config = _config(method, k, rng.randint(1, 2048))
            q, a = rng.randint(1, 500), rng.randint(1, 500)
            chunks = [rng.randint(1, 4000) for _ in range(k)]
            plan = synthesizer.build_plan(q, chunks, a, config)
            calls = [(p, o, s) for s, groups in enumerate(plan.stages)
                     for p, o, n in groups for _ in range(n)]
            stage_totals = [sum(p + o for p, o, s in calls if s == stage)
                            for stage in range(plan.n_stages)]
            assert plan.cost_tokens == sum(p + o for p, o, _ in calls)
            assert plan.fit_tokens == max(p + o for p, o, _ in calls)
            assert plan.stage_peak_tokens == max(stage_totals)
            assert plan.total_prefill_tokens == sum(p for p, _, _ in calls)
            assert plan.total_output_tokens == sum(o for _, o, _ in calls)
            assert plan.n_calls == len(calls)

    def test_validation_mirrors_build_plan(self):
        config = RAGConfig(SynthesisMethod.STUFF, 4)
        with pytest.raises(ValueError):
            uniform_plan(config, 0, 500, 20)
        with pytest.raises(ValueError):
            uniform_plan(config, 30, 0, 20)
        with pytest.raises(ValueError):
            uniform_plan(config, 30, 500, 0)

    def test_matches_synthesizer_closed_form(self):
        """Uniform chunks give the closed form: one group of k
        identical single-chunk calls."""
        config = RAGConfig(SynthesisMethod.MAP_RERANK, 9)
        prompt = 33 + 700 + wrapper_tokens(1)
        assert uniform_plan(config, 33, 700, 19).stages == (
            ((prompt, 19 + 4, 9),),
        )
