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

    Sentence boundaries are respected where possible: a sentence over
    the budget is hard-split on word boundaries, and a word over the
    budget is cut at token boundaries. A chunk's ``n_tokens`` is the sum
    of its pieces' counts: the pieces are joined with spaces, and no
    token spans a space, so each piece counts as the sum of its words.
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
        current: list[str] = []
        current_n = 0
        for word, word_n in zip(sentence.split(), tok.word_counts(sentence)):
            if current and current_n + word_n > chunk_tokens:
                pieces.append((" ".join(current), current_n))
                current, current_n = [], 0
            if word_n > chunk_tokens:
                pieces.extend(_cut_word(word, chunk_tokens, tok))
                continue
            current.append(word)
            current_n += word_n
        if current:
            pieces.append((" ".join(current), current_n))

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


def _cut_word(
    word: str, chunk_tokens: int, tok: SimTokenizer
) -> list[tuple[str, int]]:
    """Cut one word of more than ``chunk_tokens`` tokens into pieces of
    ``chunk_tokens`` consecutive tokens each, with their counts.

    A piece re-tokenizes to at most the tokens it was cut from: a cut
    can only leave a short run of word characters, which becomes one
    token. The word's tokens concatenate to its lowercase form; where
    lowercasing keeps every character's length, the pieces are sliced
    from ``word`` itself at the same offsets.
    """
    lowered = word.lower()
    source = word if len(lowered) == len(word) else lowered
    tokens = tok.word_tokens(lowered)
    pieces: list[tuple[str, int]] = []
    start = 0
    for first in range(0, len(tokens), chunk_tokens):
        end = start + sum(map(len, tokens[first:first + chunk_tokens]))
        piece = source[start:end]
        pieces.append((piece, tok.count(piece)))
        start = end
    return pieces
