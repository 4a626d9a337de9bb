"""Synthesizer interface and shared prompt-overhead accounting.

Each synthesizer compiles ``(query, chunk token counts, config)`` into a
:class:`~repro.synthesis.plans.SynthesisPlan`. The prompt-overhead
constants model the instruction templates Langchain-style chains wrap
around the chunks (system prompt, per-chunk separators, answer-format
instructions).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from itertools import groupby

from repro.config.knobs import RAGConfig, SynthesisMethod
from repro.synthesis.plans import CallGroup, SynthesisPlan

__all__ = ["Synthesizer", "wrapper_tokens"]

#: System + task instruction prologue of every prompt.
INSTRUCTION_TOKENS = 32
#: Separator/header tokens around each chunk.
PER_CHUNK_TOKENS = 6
#: Output-format epilogue ("Answer:", JSON schema for map_rerank
#: confidence, ...).
ANSWER_FORMAT_TOKENS = 10


def wrapper_tokens(n_chunks: int) -> int:
    """Template tokens around ``n_chunks`` chunks in one prompt."""
    return (
        INSTRUCTION_TOKENS
        + n_chunks * PER_CHUNK_TOKENS
        + ANSWER_FORMAT_TOKENS
    )


class Synthesizer(ABC):
    """Compiles a RAG configuration into an executable plan.

    Stateless: one shared instance per method serves every caller
    (:func:`repro.synthesis.make_synthesizer`).
    """

    method: SynthesisMethod

    @abstractmethod
    def build_plan(
        self,
        query_tokens: int,
        chunk_tokens: Sequence[int],
        answer_tokens: int,
        config: RAGConfig,
    ) -> SynthesisPlan:
        """Build the grouped call plan for this method.

        Args:
            query_tokens: token length of the query text.
            chunk_tokens: token length of each retrieved chunk, in rank
                order (must match ``config.num_chunks`` unless the store
                ran short).
            answer_tokens: expected final-answer length (dataset-typical;
                the engine decodes exactly this many tokens).
        """

    def _per_chunk_calls(self, query_tokens: int,
                         chunk_tokens: Sequence[int],
                         output_tokens: int) -> tuple[CallGroup, ...]:
        """One single-chunk call per chunk, in rank order, with runs of
        equal-size consecutive chunks grouped (map stages)."""
        wrapper = wrapper_tokens(1)
        return tuple(
            (query_tokens + n + wrapper, output_tokens, sum(1 for _ in run))
            for n, run in groupby(chunk_tokens)
        )

    def _validate(self, query_tokens: int, chunk_tokens: Sequence[int],
                  answer_tokens: int, config: RAGConfig) -> None:
        if config.synthesis_method is not self.method:
            raise ValueError(
                f"{type(self).__name__} cannot plan for "
                f"{config.synthesis_method}"
            )
        if not chunk_tokens:
            raise ValueError("need at least one retrieved chunk")
        if len(chunk_tokens) > config.num_chunks:
            raise ValueError(
                f"got {len(chunk_tokens)} chunks for num_chunks="
                f"{config.num_chunks}"
            )
        if min(chunk_tokens) <= 0:
            raise ValueError(
                f"chunk sizes must be positive, got {list(chunk_tokens)}")
        if query_tokens <= 0:
            raise ValueError(f"query_tokens must be positive, got {query_tokens}")
        if answer_tokens <= 0:
            raise ValueError(f"answer_tokens must be positive, got {answer_tokens}")
