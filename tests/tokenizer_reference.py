"""Split-then-slice reference for ``SimTokenizer.tokenize``.

The tokenizer as it was before it became one regex pass, kept as the
oracle the regex is raced against: split the lowercased text into runs
of ``[a-z0-9']`` and single other non-space characters, keep a run of
up to 6 characters whole, and cut a longer one into 4-character pieces
from its start. The two must agree token for token — pinned by
``tests/test_tokenizer.py``.

Not a ``test_*`` module, so pytest imports it only where a test asks
for it.
"""

from __future__ import annotations

import re

__all__ = ["tokenize_reference"]

_SPLIT_RE = re.compile(r"[A-Za-z0-9']+|[^A-Za-z0-9'\s]")
_PIECE_LEN = 4
_MAX_WHOLE_WORD = 6


def tokenize_reference(text: str) -> list[str]:
    """Token list of ``text`` by the split-then-slice loop."""
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
