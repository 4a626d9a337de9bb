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
from repro.synthesis.plans import SynthesisPlan

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
        # Each candidate emits an answer plus a short confidence tail
        # the reranker reads.
        return SynthesisPlan.from_stages((
            self._per_chunk_calls(query_tokens, chunk_tokens,
                                  answer_tokens + 4),
        ))
