"""``map_rerank`` synthesis: answer per chunk, keep the most confident
(Fig 3b).

N independent single-chunk calls; the re-rank itself is a cheap host-side
argmax over the returned confidences (no extra LLM call). Lowest compute
of the three methods, but cannot reason across chunks.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.config.knobs import RAGConfig, SynthesisMethod
from repro.synthesis.base import Synthesizer
from repro.synthesis.footprint import PlanFootprint
from repro.synthesis.plans import LLMCall, SynthesisPlan

__all__ = ["MapRerankSynthesizer"]


class MapRerankSynthesizer(Synthesizer):
    """One call per chunk, all in a single parallel stage."""

    method = SynthesisMethod.MAP_RERANK

    def build_plan(
        self,
        query_tokens: int,
        chunk_tokens: Sequence[int],
        answer_tokens: int,
        config: RAGConfig,
    ) -> SynthesisPlan:
        self._validate(query_tokens, chunk_tokens, answer_tokens, config)
        calls = tuple(
            LLMCall(
                prompt_tokens=(
                    query_tokens + n + self.overheads.wrapper_tokens(1)
                ),
                # Each candidate emits an answer plus a short confidence
                # tail the reranker reads.
                output_tokens=answer_tokens + 4,
                stage=0,
            )
            for n in chunk_tokens
        )
        return SynthesisPlan(calls=calls)

    def estimate_footprint(
        self,
        query_tokens: int,
        chunk_tokens: int,
        answer_tokens: int,
        config: RAGConfig,
    ) -> PlanFootprint:
        self._validate_estimate(query_tokens, chunk_tokens, answer_tokens,
                                config)
        prompt = (
            query_tokens + chunk_tokens + self.overheads.wrapper_tokens(1)
        )
        # answer + the short confidence tail, as in build_plan.
        return PlanFootprint.from_stages(
            (((prompt, answer_tokens + 4, config.num_chunks),),)
        )
