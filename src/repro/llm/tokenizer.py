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
from itertools import chain

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

#: Most distinct words the word memo holds; a full memo is emptied and
#: refilled. A generated corpus has a few hundred distinct words.
_WORD_MEMO_CAP = 1 << 16


class _WordMemo(dict):
    """Lowercased whitespace word -> its tokens. A miss runs the pattern
    over the word once; a full memo is emptied and refilled."""

    def __missing__(self, word: str) -> tuple[str, ...]:
        if len(self) >= _WORD_MEMO_CAP:
            self.clear()
        tokens = self[word] = tuple(_TOKEN_RE.findall(word))
        return tokens


_word_memo = _WordMemo()


class SimTokenizer:
    """Deterministic tokenizer used by every component of the simulator.

    The class is stateless; all methods are safe to share across
    threads. A text's tokens are its lowercased whitespace words'
    tokens, in order: no token spans whitespace, and ``str.split`` and
    the pattern's ``\\s`` agree on every Unicode whitespace character.
    So each distinct word is tokenized once, into a module-wide memo of
    at most ``_WORD_MEMO_CAP`` words, and a text costs one lookup per
    word.
    """

    def tokenize(self, text: str) -> list[str]:
        """Split ``text`` into a list of token strings.

        Words of up to 6 characters are single tokens; longer words are
        split into 4-character pieces, mimicking sub-word tokenizers.

        >>> SimTokenizer().tokenize("Kimbrough Arena, 2024")
        ['kimb', 'roug', 'h', 'arena', ',', '2024']
        """
        return list(chain.from_iterable(
            map(_word_memo.__getitem__, self.words(text))))

    def words(self, text: str) -> list[str]:
        """The lowercased whitespace words of ``text``, in order; the
        text's tokens are theirs, concatenated."""
        return text.lower().split()

    def word_tokens(self, word: str) -> tuple[str, ...]:
        """Tokens of one lowercased word without whitespace (memoized).

        >>> SimTokenizer().word_tokens("arena,")
        ('arena', ',')
        """
        return _word_memo[word]

    def word_counts(self, text: str) -> list[int]:
        """Token count of each word of ``text.split()``, in order."""
        return list(map(len, map(_word_memo.__getitem__, self.words(text))))

    def count(self, text: str) -> int:
        """Number of tokens in ``text``."""
        return sum(map(len, map(_word_memo.__getitem__, self.words(text))))
