"""Deterministic text embeddings.

:class:`HashedEmbedding` is a feature-hashing bag-of-tokens embedder:
each token hashes (stably, via SHA-256) to a signed coordinate in a
``dim``-dimensional space; a text's embedding is the sum of its token
vectors weighted by the sublinear term frequency ``1 + log(tf)``,
L2-normalised. Texts sharing entity/attribute tokens land close
together, which is precisely the property RAG retrieval relies on — and
it emerges here from the text itself rather than from hand-assigned
similarities.

The paper (§A.2) observes that swapping embedding models changes F1 by
<1%; the embedder is pluggable behind :class:`EmbeddingModel`.
"""

from __future__ import annotations

import hashlib
import math
from abc import ABC, abstractmethod
from collections import Counter
from collections.abc import Mapping
from functools import lru_cache
from itertools import chain

import numpy as np

from repro.llm.tokenizer import SimTokenizer

__all__ = ["EmbeddingModel", "HashedEmbedding", "IdfWeights"]


class IdfWeights:
    """Inverse-document-frequency token weighting.

    Fitted over the corpus chunks at indexing time; rare, informative
    tokens (entity names, attribute words, values) then dominate the
    embedding over ubiquitous filler, as they do in trained embedding
    models. An unfitted instance is fitted by the first
    :meth:`HashedEmbedding.embed_batch` that uses it, from the token
    counts that batch embeds, so each chunk is counted once.
    """

    def __init__(self) -> None:
        self.fitted = False
        self._n_docs = 0
        self._df: Counter[str] = Counter()
        # weight() is called once per token of every embedded text;
        # the weight only changes when fit_df() recounts, so memoize.
        self._weight_cache: dict[str, float] = {}

    def fit_df(self, n_docs: int, df: Mapping[str, int]) -> "IdfWeights":
        """Take ``n_docs`` documents and each token's document frequency
        (resets state)."""
        self._n_docs = n_docs
        self._df = Counter(df)
        self._weight_cache = {}
        self.fitted = True
        return self

    def weight(self, token: str) -> float:
        """Smoothed IDF weight; unseen tokens get the maximum weight."""
        cached = self._weight_cache.get(token)
        if cached is not None:
            return cached
        df = self._df.get(token, 0)
        weight = math.log((1.0 + self._n_docs) / (1.0 + df)) + 1.0
        self._weight_cache[token] = weight
        return weight


class EmbeddingModel(ABC):
    """Interface every embedder implements."""

    dim: int

    @abstractmethod
    def embed(self, text: str) -> np.ndarray:
        """Embed one text into a unit-norm float32 vector."""

    def embed_batch(self, texts: list[str]) -> np.ndarray:
        """Embed many texts; rows are unit-norm vectors."""
        if not texts:
            return np.zeros((0, self.dim), dtype=np.float32)
        return np.stack([self.embed(t) for t in texts])


class HashedEmbedding(EmbeddingModel):
    """Feature-hashing embedder with stable, seeded hashing.

    Args:
        dim: embedding dimensionality.
        idf: optional IDF weights applied on top of the term frequency.
    """

    #: Hash seed: every token's coordinate derives from it.
    FAMILY = "cohere-embed-v3-sim"

    def __init__(self, dim: int = 512, idf: IdfWeights | None = None) -> None:
        if dim < 8:
            raise ValueError(f"dim must be >= 8, got {dim}")
        self.dim = dim
        self.idf = idf
        self._tokenizer = SimTokenizer()
        self._token_cache: dict[str, tuple[int, float]] = {}

    def _token_coord(self, token: str) -> tuple[int, float]:
        """Map a token to a (coordinate, sign) pair, cached."""
        cached = self._token_cache.get(token)
        if cached is not None:
            return cached
        digest = hashlib.sha256(f"{self.FAMILY}\x00{token}".encode()).digest()
        coord = int.from_bytes(digest[:4], "little") % self.dim
        sign = 1.0 if digest[4] % 2 == 0 else -1.0
        result = (coord, sign)
        self._token_cache[token] = result
        return result

    def embed(self, text: str) -> np.ndarray:
        """One text, token by token: for a single short text (a query,
        an answer) the array path of :meth:`embed_batch` costs more in
        fixed numpy overhead than it saves. The updates and their order
        are those of :meth:`embed_batch`, so rows are byte-identical."""
        idf = self.idf
        # A coordinate's first token lands on zero, so it is one
        # rounding of its float64 weight; the few later tokens on a
        # taken coordinate are added in order (see ``_accumulate``).
        first: dict[int, float] = {}
        later: list[tuple[int, float]] = []
        for token, tf in Counter(self._tokenizer.tokenize(text)).items():
            coord, sign = self._token_coord(token)
            weight = _tf_weight(tf)
            if idf is not None:
                weight *= idf.weight(token)
            if coord in first:
                later.append((coord, sign * weight))
            else:
                first[coord] = sign * weight
        vec = np.zeros(self.dim, dtype=np.float32)
        vec[list(first)] = list(first.values())
        for coord, value in later:
            vec[coord] += np.float64(value)
        _normalize(vec)
        return vec

    def embed_batch(self, texts: list[str]) -> np.ndarray:
        """Embed many texts into one preallocated ``(n, dim)`` matrix.

        Each text is counted from its word counts, without a second
        tokenizer pass. An unfitted ``idf`` is fitted on the batch's
        token counts first (the corpus at indexing time); rows are then
        byte-identical to per-text :meth:`embed` calls.

        A token's update is ``sign * (1 + log(tf)) * idf(token)`` in
        float64, as numpy's scalar ``1.0 + np.log(tf)`` gives it, at
        coordinate ``row * dim + coord``; negating is exact, so the sign
        rides on the IDF weight. Updates go in first-seen token order,
        rounding to float32 after each (see ``_accumulate``).
        """
        tokens, blocks = self._count_tokens(texts)
        if self.idf is not None and not self.idf.fitted:
            df = sum((np.bincount(tok, minlength=len(tokens))
                      for _, tok, _ in blocks), np.zeros(len(tokens), int))
            self.idf.fit_df(len(texts), dict(zip(tokens, df.tolist())))
        coord_sign = [self._token_coord(t) for t in tokens]
        coord = np.array([c for c, _ in coord_sign], dtype=np.intp)
        signed = np.array([s for _, s in coord_sign], dtype=np.float64)
        if self.idf is not None:
            signed *= [self.idf.weight(t) for t in tokens]
        max_tf = max((int(tf.max()) for _, _, tf in blocks if tf.size),
                     default=0)
        tf_weight = np.array(
            [0.0] + [_tf_weight(tf) for tf in range(1, max_tf + 1)])
        out = np.zeros((len(texts), self.dim), dtype=np.float32)
        for start, (row, tok, tf) in zip(range(0, len(texts), _BLOCK_ROWS),
                                         blocks):
            block = out[start : start + _BLOCK_ROWS]
            _accumulate(block.reshape(-1), row * self.dim + coord[tok],
                        tf_weight[tf] * signed[tok])
            for vec in block:
                _normalize(vec)
        return out

    def _count_tokens(
        self, texts: list[str]
    ) -> tuple[list[str], list[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
        """Each text's distinct tokens and their counts, from its words.

        Returns the batch's distinct tokens and, per block of
        ``_BLOCK_ROWS`` texts, three arrays over (text, distinct token)
        pairs: the text's row within the block, the token's index in the
        batch's tokens, and its count. Pairs run text by text, each
        text's tokens in first-seen order: a text's words are counted
        in first-seen order, so expanding each word into its tokens in
        order meets every token first where the text does.
        """
        tokenizer = self._tokenizer
        token_index: dict[str, int] = {}
        word_ids: dict[str, tuple[int, ...]] = {}  # word -> token indexes
        blocks = []
        for start in range(0, len(texts), _BLOCK_ROWS):
            words: list[str] = []
            tallies: list[int] = []
            sizes: list[int] = []
            for text in texts[start : start + _BLOCK_ROWS]:
                counts = Counter(tokenizer.words(text))
                words += counts
                tallies += counts.values()
                sizes.append(len(counts))
            for word in dict.fromkeys(words):
                if word not in word_ids:
                    word_ids[word] = tuple(
                        token_index.setdefault(t, len(token_index))
                        for t in tokenizer.word_tokens(word))
            # Expand each (text, word) pair into the word's tokens.
            ids = list(map(word_ids.__getitem__, words))
            lens = np.fromiter(map(len, ids), dtype=np.intp, count=len(ids))
            tok = np.fromiter(chain.from_iterable(ids), dtype=np.intp,
                              count=int(lens.sum()))
            row = np.repeat(np.repeat(np.arange(len(sizes)), sizes), lens)
            tally = np.repeat(np.asarray(tallies, dtype=np.int64), lens)
            # Merge a token's pairs within a text; keep first-seen order.
            key = row * len(token_index) + tok
            uniq, first, inverse = np.unique(
                key, return_index=True, return_inverse=True)
            tf = np.bincount(inverse, weights=tally,
                             minlength=len(uniq)).astype(np.int64)
            order = np.argsort(first)
            row, tok = np.divmod(uniq[order], len(token_index) or 1)
            blocks.append((row, tok, tf[order]))
        return list(token_index), blocks


#: Texts per block in :meth:`HashedEmbedding.embed_batch`: token
#: counting and accumulation work a block at a time, so their arrays
#: stay small next to the matrix.
_BLOCK_ROWS = 64


@lru_cache(maxsize=None)
def _tf_weight(tf: int) -> float:
    """Sublinear term frequency ``1 + log(tf)``, by numpy's scalar log."""
    return float(1.0 + np.log(tf))


def _accumulate(
    flat: np.ndarray, keys: np.ndarray, values: np.ndarray
) -> None:
    """Add float64 ``values`` into float32 ``flat`` at ``keys``, rounding
    to float32 after each add, in array order per key.

    This is the loop ``flat[k] += v`` with ``v`` a float64 scalar: under
    numpy's promotion rules each add is made in float64 and rounded to
    float32 once. Updates of different keys never meet, so each key's
    occurrences can be ranked in array order (a stable sort) and applied
    rank by rank, one vectorized add per rank.
    """
    if not len(keys):
        return
    order = np.argsort(keys, kind="stable")
    key_arr = keys[order]
    value_arr = values[order]
    pos = np.arange(len(key_arr))
    first = np.ones(len(key_arr), dtype=bool)
    first[1:] = key_arr[1:] != key_arr[:-1]
    rank = pos - np.maximum.accumulate(np.where(first, pos, 0))
    for r in range(int(rank.max()) + 1):
        at = rank == r
        where = key_arr[at]
        flat[where] = flat[where] + value_arr[at]


def _normalize(vec: np.ndarray) -> None:
    """Scale ``vec`` to unit L2 norm in place (a zero vector stays zero)."""
    norm = float(np.linalg.norm(vec))
    if norm > 0:
        vec /= norm
