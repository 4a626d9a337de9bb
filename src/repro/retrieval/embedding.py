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
        return self._embed_counts(Counter(self._tokenizer.tokenize(text)))

    def _embed_counts(self, counts: Counter[str]) -> np.ndarray:
        """Embed a text from its token counts (in first-seen order)."""
        vec = np.zeros(self.dim, dtype=np.float32)
        if not counts:
            return vec
        for token, tf in counts.items():
            weight = 1.0 + np.log(tf)
            if self.idf is not None:
                weight *= self.idf.weight(token)
            coord, sign = self._token_coord(token)
            vec[coord] += sign * weight
        norm = float(np.linalg.norm(vec))
        if norm > 0:
            vec /= norm
        return vec

    def embed_batch(self, texts: list[str]) -> np.ndarray:
        """Embed many texts into one preallocated ``(n, dim)`` matrix.

        Each text is tokenized once. An unfitted ``idf`` is fitted on
        the batch's token counts first (the corpus at indexing time);
        rows are then byte-identical to per-text :meth:`embed` calls.
        The instance's token-coordinate cache (and the IDF weight
        cache) warm on the first texts and serve the rest of the batch,
        which is where bulk chunk indexing spends its time.
        """
        counts = [Counter(self._tokenizer.tokenize(t)) for t in texts]
        if self.idf is not None and not self.idf.fitted:
            self.idf.fit(counts)
        out = np.zeros((len(texts), self.dim), dtype=np.float32)
        for i, text_counts in enumerate(counts):
            out[i] = self._embed_counts(text_counts)
        return out
