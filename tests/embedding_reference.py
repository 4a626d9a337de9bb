"""Per-token reference for ``HashedEmbedding.embed`` and ``embed_batch``.

The embedder as it was before it accumulated with numpy, kept as the
oracle the vectorized one is raced against: one ``vec[coord] += sign *
weight`` per distinct token in first-seen order, with ``weight`` the
numpy float64 ``1.0 + np.log(tf)`` (times the IDF weight), so each add
is made in float64 and rounded to float32; then the vector is divided
by its ``np.linalg.norm``. The two must agree byte for byte — pinned by
``tests/test_embedding.py``.

Not a ``test_*`` module, so pytest imports it only where a test asks
for it.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from itertools import chain

import numpy as np

from tokenizer_reference import tokenize_reference

__all__ = ["embed_batch_reference", "embed_reference"]


def _token_coord(family: str, dim: int, token: str) -> tuple[int, float]:
    digest = hashlib.sha256(f"{family}\x00{token}".encode()).digest()
    coord = int.from_bytes(digest[:4], "little") % dim
    sign = 1.0 if digest[4] % 2 == 0 else -1.0
    return coord, sign


def _embed_counts(embedding, counts: Counter) -> np.ndarray:
    vec = np.zeros(embedding.dim, dtype=np.float32)
    if not counts:
        return vec
    for token, tf in counts.items():
        weight = 1.0 + np.log(tf)
        if embedding.idf is not None:
            weight *= embedding.idf.weight(token)
        coord, sign = _token_coord(embedding.FAMILY, embedding.dim, token)
        vec[coord] += sign * weight
    norm = float(np.linalg.norm(vec))
    if norm > 0:
        vec /= norm
    return vec


def embed_reference(embedding, text: str) -> np.ndarray:
    """``embedding.embed(text)`` by the per-token loop."""
    return _embed_counts(embedding, Counter(tokenize_reference(text)))


def embed_batch_reference(embedding, texts: list[str]) -> np.ndarray:
    """``embedding.embed_batch(texts)`` by the per-token loop, fitting an
    unfitted IDF on the batch first."""
    counts = [Counter(tokenize_reference(t)) for t in texts]
    if embedding.idf is not None and not embedding.idf.fitted:
        df = Counter(chain.from_iterable(counts))
        embedding.idf.fit_df(len(counts), df)
    out = np.zeros((len(texts), embedding.dim), dtype=np.float32)
    for i, text_counts in enumerate(counts):
        out[i] = _embed_counts(embedding, text_counts)
    return out
