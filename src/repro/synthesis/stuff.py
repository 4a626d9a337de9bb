"""``stuff`` synthesis: concatenate all chunks into one prompt (Fig 3a).

One LLM call; cheapest joint-reasoning method in compute, but its
prompt (and KV footprint) grows linearly with ``num_chunks`` — the
memory-intensive case of the paper's Fig 8.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.config.knobs import RAGConfig, SynthesisMethod
from repro.synthesis.base import Synthesizer, wrapper_tokens
from repro.synthesis.plans import SynthesisPlan

__all__ = ["StuffSynthesizer"]


class StuffSynthesizer(Synthesizer):
    """Single call over the concatenated chunks."""

    method = SynthesisMethod.STUFF

    def build_plan(
        self,
        query_tokens: int,
        chunk_tokens: Sequence[int],
        answer_tokens: int,
        config: RAGConfig,
    ) -> SynthesisPlan:
        self._validate(query_tokens, chunk_tokens, answer_tokens, config)
        prompt = (
            query_tokens
            + sum(chunk_tokens)
            + wrapper_tokens(len(chunk_tokens))
        )
        return SynthesisPlan.from_stages((((prompt, answer_tokens, 1),),))
