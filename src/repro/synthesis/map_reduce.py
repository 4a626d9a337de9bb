"""``map_reduce`` synthesis: summarise each chunk, then answer from the
summaries (Fig 3c).

Stage 0: N mapper calls, each compressing one chunk to
``intermediate_length`` tokens (query-focused summarisation).
Stage 1: one reduce call over the N summaries.

Most compute of the three methods, but every individual call is small —
the property the joint scheduler exploits when GPU memory is scarce
(paper Fig 8b).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.config.knobs import RAGConfig, SynthesisMethod
from repro.synthesis.base import Synthesizer, wrapper_tokens
from repro.synthesis.plans import SynthesisPlan

__all__ = ["MapReduceSynthesizer"]


class MapReduceSynthesizer(Synthesizer):
    """N mappers (stage 0) feeding one reduce (stage 1)."""

    method = SynthesisMethod.MAP_REDUCE

    def build_plan(
        self,
        query_tokens: int,
        chunk_tokens: Sequence[int],
        answer_tokens: int,
        config: RAGConfig,
    ) -> SynthesisPlan:
        self._validate(query_tokens, chunk_tokens, answer_tokens, config)
        ilen = config.intermediate_length
        k = len(chunk_tokens)
        reduce_prompt = (
            query_tokens + k * ilen + wrapper_tokens(k)
        )
        return SynthesisPlan.from_stages((
            self._per_chunk_calls(query_tokens, chunk_tokens, ilen),
            ((reduce_prompt, answer_tokens, 1),),
        ))
