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
from collections.abc import Iterable, Mapping
from functools import lru_cache

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
    counts that batch embeds, so each chunk is tokenized once.
    """

    def __init__(self) -> None:
        self.fitted = False
        self._n_docs = 0
        self._df: Counter[str] = Counter()
        # weight() is called once per token of every embedded text;
        # the weight only changes when fit() recounts, so memoize.
        self._weight_cache: dict[str, float] = {}

    def fit(self, token_counts: Iterable[Mapping[str, int]]) -> "IdfWeights":
        """Count document frequencies over each document's token counts
        (resets state)."""
        self._n_docs = 0
        self._df = Counter()
        self._weight_cache = {}
        for counts in token_counts:
            self._n_docs += 1
            self._df.update(counts.keys())
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
        keys: list[int] = []
        values: list[float] = []
        self._updates(Counter(self._tokenizer.tokenize(text)), 0, keys, values)
        # A coordinate's first token lands on zero, so it is one
        # rounding of its float64 weight; the few later tokens on a
        # taken coordinate are added in order (see ``_accumulate``).
        first: dict[int, float] = {}
        later: list[tuple[int, float]] = []
        for key, value in zip(keys, values):
            if key in first:
                later.append((key, value))
            else:
                first[key] = value
        vec = np.zeros(self.dim, dtype=np.float32)
        vec[list(first)] = list(first.values())
        for key, value in later:
            vec[key] += np.float64(value)
        _normalize(vec)
        return vec

    def _updates(
        self,
        counts: Counter[str],
        base: int,
        keys: list[int],
        values: list[float],
    ) -> None:
        """Append one text's ``(base + coordinate, signed weight)``
        updates, in first-seen token order.

        A token's weight is ``sign * (1 + log(tf)) * idf(token)`` in
        float64, as numpy's scalar ``1.0 + np.log(tf)`` gives it; the
        multiplications round the same in Python floats.
        """
        idf = self.idf
        token_cache = self._token_cache
        for token, tf in counts.items():
            coord_sign = token_cache.get(token) or self._token_coord(token)
            weight = _tf_weight(tf)
            if idf is not None:
                weight *= idf.weight(token)
            keys.append(base + coord_sign[0])
            values.append(coord_sign[1] * weight)

    def embed_batch(self, texts: list[str]) -> np.ndarray:
        """Embed many texts into one preallocated ``(n, dim)`` matrix.

        Each text is tokenized once. An unfitted ``idf`` is fitted on
        the batch's token counts first (the corpus at indexing time);
        rows are then byte-identical to per-text :meth:`embed` calls.
        Rows are accumulated ``_BLOCK_ROWS`` at a time, so the update
        lists stay small next to the matrix.
        """
        counts = [Counter(self._tokenizer.tokenize(t)) for t in texts]
        if self.idf is not None and not self.idf.fitted:
            self.idf.fit(counts)
        out = np.zeros((len(texts), self.dim), dtype=np.float32)
        for start in range(0, len(texts), _BLOCK_ROWS):
            block_counts = counts[start : start + _BLOCK_ROWS]
            block = out[start : start + len(block_counts)]
            keys: list[int] = []
            values: list[float] = []
            for row, text_counts in enumerate(block_counts):
                self._updates(text_counts, row * self.dim, keys, values)
            _accumulate(block.reshape(-1), keys, values)
            for vec in block:
                _normalize(vec)
        return out


#: Rows per accumulation block in :meth:`HashedEmbedding.embed_batch`.
_BLOCK_ROWS = 64


@lru_cache(maxsize=None)
def _tf_weight(tf: int) -> float:
    """Sublinear term frequency ``1 + log(tf)``, by numpy's scalar log."""
    return float(1.0 + np.log(tf))


def _accumulate(
    flat: np.ndarray, keys: list[int], values: list[float]
) -> None:
    """Add float64 ``values`` into float32 ``flat`` at ``keys``, rounding
    to float32 after each add, in list order per key.

    This is the loop ``flat[k] += v`` with ``v`` a float64 scalar: under
    numpy's promotion rules each add is made in float64 and rounded to
    float32 once. Updates of different keys never meet, so each key's
    occurrences can be ranked in list order (a stable sort) and applied
    rank by rank, one vectorized add per rank.
    """
    if not keys:
        return
    key_arr = np.asarray(keys, dtype=np.intp)
    order = np.argsort(key_arr, kind="stable")
    key_arr = key_arr[order]
    value_arr = np.asarray(values, dtype=np.float64)[order]
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
