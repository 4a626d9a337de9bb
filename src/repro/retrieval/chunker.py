"""Document chunking (the paper splits documents into fixed-token chunks).

Mirrors Langchain's fixed-size splitter: sentences are packed greedily
into chunks of ``chunk_tokens`` tokens; a sentence longer than the
budget is hard-split.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.llm.tokenizer import SimTokenizer

__all__ = ["Chunk", "split_into_chunks"]

_SENTENCE_RE = re.compile(r"[^.!?]+[.!?]?")


@dataclass(frozen=True)
class Chunk:
    """One retrievable unit of a document."""

    chunk_id: str
    doc_id: str
    text: str
    n_tokens: int
    position: int  # index of this chunk within its document


def split_into_chunks(
    doc_id: str,
    text: str,
    chunk_tokens: int,
    tokenizer: SimTokenizer | None = None,
) -> list[Chunk]:
    """Split ``text`` into chunks of at most ``chunk_tokens`` tokens.

    Sentence boundaries are respected where possible. A chunk's
    ``n_tokens`` is the sum of its pieces' counts: the pieces are joined
    with spaces, and no token spans a space.
    """
    if chunk_tokens <= 0:
        raise ValueError(f"chunk_tokens must be positive, got {chunk_tokens}")
    tok = tokenizer or SimTokenizer()
    sentences = [s.strip() for s in _SENTENCE_RE.findall(text) if s.strip()]

    pieces: list[tuple[str, int]] = []
    for sentence in sentences:
        n = tok.count(sentence)
        if n <= chunk_tokens:
            pieces.append((sentence, n))
            continue
        # Hard-split an oversized sentence on word boundaries.
        words = sentence.split()
        current: list[str] = []
        for word in words:
            candidate = " ".join(current + [word])
            if current and tok.count(candidate) > chunk_tokens:
                pieces.append((" ".join(current), tok.count(" ".join(current))))
                current = [word]
            else:
                current.append(word)
        if current:
            pieces.append((" ".join(current), tok.count(" ".join(current))))

    chunks: list[Chunk] = []
    buffer: list[str] = []
    buffer_tokens = 0

    def flush() -> None:
        nonlocal buffer, buffer_tokens
        if not buffer:
            return
        chunks.append(
            Chunk(
                chunk_id=f"{doc_id}#{len(chunks)}",
                doc_id=doc_id,
                text=" ".join(buffer),
                n_tokens=buffer_tokens,
                position=len(chunks),
            )
        )
        buffer = []
        buffer_tokens = 0

    for sentence, n in pieces:
        if buffer and buffer_tokens + n > chunk_tokens:
            flush()
        buffer.append(sentence)
        buffer_tokens += n
    flush()
    return chunks
