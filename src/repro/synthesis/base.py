"""Synthesizer interface and shared prompt-overhead accounting.

Each synthesizer compiles ``(query, chunk token counts, config)`` into a
:class:`~repro.synthesis.plans.SynthesisPlan`. Prompt overheads model
the instruction templates Langchain-style chains wrap around the chunks
(system prompt, per-chunk separators, answer-format instructions).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import groupby

from repro.config.knobs import RAGConfig, SynthesisMethod
from repro.synthesis.plans import CallGroup, SynthesisPlan
from repro.util.validation import check_non_negative

__all__ = ["PromptOverheads", "Synthesizer"]


@dataclass(frozen=True)
class PromptOverheads:
    """Fixed token overheads of the prompt templates.

    Attributes:
        instruction_tokens: system + task instruction prologue.
        per_chunk_tokens: separator/header tokens around each chunk.
        answer_format_tokens: output-format epilogue ("Answer:", JSON
            schema for map_rerank confidence, ...).
    """

    instruction_tokens: int = 32
    per_chunk_tokens: int = 6
    answer_format_tokens: int = 10

    def __post_init__(self) -> None:
        check_non_negative("instruction_tokens", self.instruction_tokens)
        check_non_negative("per_chunk_tokens", self.per_chunk_tokens)
        check_non_negative("answer_format_tokens", self.answer_format_tokens)

    def wrapper_tokens(self, n_chunks: int) -> int:
        """Template tokens around ``n_chunks`` chunks in one prompt."""
        return (
            self.instruction_tokens
            + n_chunks * self.per_chunk_tokens
            + self.answer_format_tokens
        )


class Synthesizer(ABC):
    """Compiles a RAG configuration into an executable plan."""

    method: SynthesisMethod

    def __init__(self, overheads: PromptOverheads | None = None) -> None:
        self.overheads = overheads or PromptOverheads()

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
        wrapper = self.overheads.wrapper_tokens(1)
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
