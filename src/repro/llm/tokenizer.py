"""A deterministic, dependency-free tokenizer.

Real RAG stacks meter everything in tokens: chunk sizes, KV-cache
footprints, prefill latency, API dollar cost. We use a simple
word-piece-ish scheme — split on whitespace and punctuation, then break
long alphanumeric runs into 4-character pieces — which lands close to
the ~0.75 words/token ratio of BPE tokenizers while being exactly
reproducible and fast.
"""

from __future__ import annotations

import re
from functools import lru_cache

__all__ = ["SimTokenizer"]

_SPLIT_RE = re.compile(r"[A-Za-z0-9']+|[^A-Za-z0-9'\s]")
_PIECE_LEN = 4
_MAX_WHOLE_WORD = 6


class SimTokenizer:
    """Deterministic tokenizer used by every component of the simulator.

    The class is stateless; all methods are safe to share across
    threads.  ``count()`` is cached because the simulator counts the
    same chunk texts many times (memory estimation, prefill sizing,
    cost accounting).
    """

    def tokenize(self, text: str) -> list[str]:
        """Split ``text`` into a list of token strings.

        Words of up to 6 characters are single tokens; longer words are
        split into 4-character pieces, mimicking sub-word tokenizers.

        >>> SimTokenizer().tokenize("Kimbrough Arena, 2024")
        ['kimb', 'roug', 'h', 'arena', ',', '2024']
        """
        tokens: list[str] = []
        for word in _SPLIT_RE.findall(text.lower()):
            if len(word) <= _MAX_WHOLE_WORD:
                tokens.append(word)
            else:
                tokens.extend(
                    word[i : i + _PIECE_LEN]
                    for i in range(0, len(word), _PIECE_LEN)
                )
        return tokens

    def count(self, text: str) -> int:
        """Number of tokens in ``text`` (cached)."""
        return _cached_count(text)


@lru_cache(maxsize=65536)
def _cached_count(text: str) -> int:
    count = 0
    for word in _SPLIT_RE.findall(text.lower()):
        if len(word) <= _MAX_WHOLE_WORD:
            count += 1
        else:
            count += -(-len(word) // _PIECE_LEN)
    return count
