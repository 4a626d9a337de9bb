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

#: One token per match, in text order, over lowercased text. A word
#: (a run of ``[a-z0-9']``) of up to 6 characters is one token; a longer
#: word is cut into 4-character pieces from its start, the last piece
#: taking the rest; any other non-space character is a token of its
#: own. The first branch takes a whole word only when no word
#: character borders it; the possessive ``{1,6}+`` stops the engine
#: retrying shorter matches of a long word, which the lookahead would
#: reject anyway. Otherwise the second branch takes the next piece.
_TOKEN_RE = re.compile(
    r"(?<![a-z0-9'])[a-z0-9']{1,6}+(?![a-z0-9'])"
    r"|[a-z0-9']{1,4}"
    r"|[^a-z0-9'\s]"
)


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
        return _TOKEN_RE.findall(text.lower())

    def count(self, text: str) -> int:
        """Number of tokens in ``text`` (cached)."""
        return _cached_count(text)


@lru_cache(maxsize=65536)
def _cached_count(text: str) -> int:
    return len(_TOKEN_RE.findall(text.lower()))
