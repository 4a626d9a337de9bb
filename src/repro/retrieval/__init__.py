"""Retrieval substrate: embeddings, L2 indexes, chunking, vector store.

Stands in for the paper's Cohere-embed-v3 + FAISS ``IndexFlatL2``
pipeline with a deterministic hashed bag-of-tokens embedder and exact
numpy L2 search (plus an IVF variant for larger corpora). The store is
a K-shard scatter-gather subsystem (:class:`ShardedVectorStore`) with
pluggable per-shard indexes (:data:`INDEX_FACTORIES`) and an optional
reranker (:mod:`repro.retrieval.rerank`); its default is the
single-shard store every dataset builds.
"""

from repro.retrieval.chunker import Chunk, split_into_chunks
from repro.retrieval.embedding import EmbeddingModel, HashedEmbedding
from repro.retrieval.index import (
    INDEX_FACTORIES,
    INDEX_NAMES,
    AutoTrainedIVFIndex,
    FlatL2Index,
    IVFFlatIndex,
)
from repro.retrieval.rerank import (
    RERANKER_NAMES,
    ExactReranker,
    make_reranker,
)
from repro.retrieval.sharded import SearchHit, ShardedVectorStore

__all__ = [
    "AutoTrainedIVFIndex",
    "Chunk",
    "EmbeddingModel",
    "ExactReranker",
    "FlatL2Index",
    "HashedEmbedding",
    "INDEX_FACTORIES",
    "INDEX_NAMES",
    "IVFFlatIndex",
    "RERANKER_NAMES",
    "SearchHit",
    "ShardedVectorStore",
    "make_reranker",
    "split_into_chunks",
]
