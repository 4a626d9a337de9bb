"""Sharded vector store: K index shards behind one scatter-gather API.

Production vector databases partition the corpus across index shards;
a query fans out to every shard (*scatter*), each shard answers its
local top-k, and the results are merged by distance (*gather*). The
RAG-Stack and RAGGED papers both show this retrieval scaling is a
first-order quality/latency knob, which METIS treats as a near-free
constant — :class:`ShardedVectorStore` makes it a modelled subsystem.

Placement is deterministic: a chunk lands on shard
``derive_seed(PLACEMENT_SEED, "shard", chunk_id) % n_shards``
(:mod:`repro.util.rng`), so the same corpus shards identically across
processes and runs. Gather merges shard candidates by
``(distance, global insertion position)`` — a total order, so ties
break stably no matter how the corpus is partitioned.

Timing model (consumed by the query pipeline, not charged here):

* ``shard_hold_seconds(sid)`` — one shard search holds its search
  executor for ``L * (f + (1 - f) * shard_size / corpus_size)`` where
  ``L`` is the full-corpus search latency (``retrieval_latency_s``)
  and ``f`` (:data:`SHARD_OVERHEAD_FRACTION`, 0.25) is the per-search
  fixed overhead that does not shrink with shard size. A shard holding
  the whole corpus returns **exactly** ``L`` (guarded, not computed),
  which is the K=1 byte-identity anchor.
* ``gather_seconds(n_candidates, k)`` — merging costs
  ``gather_per_candidate_s`` per *excess* candidate (those fetched
  beyond the final top-k). With one shard there is no excess and the
  cost is exactly 0.0, so K=1 adds no event and no latency.

The K=1 single-shard path (the default, which every dataset builds) is
bit-for-bit the old monolithic store's behaviour: same embedding calls,
same index search, same result ordering (the shard's native index
order is preserved rather than re-sorted), same latency constant.

Query-side memo: a trace replays a small pool of query texts, and one
arrival may embed and search its text up to three times (semantic
cache lookup, retrieve, cache insert). Both results are pure functions
of the text and the corpus, so the store computes each once per
distinct input. ``embed_query`` hands out one read-only vector per
text, and ``search_shard`` keeps each shard's top-k per (vector, shard,
k). That memo is keyed on the *identity* of a vector this store handed
out: the memo holds the vector, so its id cannot be recycled. Any
other vector (writeable, or made elsewhere) bypasses it.
``_add_embedded``, the only path that changes shard contents, clears
both memos.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.retrieval.chunker import Chunk
from repro.retrieval.embedding import EmbeddingModel, HashedEmbedding
from repro.retrieval.index import INDEX_FACTORIES
from repro.util.rng import derive_seed
from repro.util.validation import (
    check_count,
    check_non_negative,
    check_positive,
)

__all__ = ["SearchHit", "ShardedVectorStore"]

#: Root of the chunk -> shard placement hash.
PLACEMENT_SEED = 0
#: Share of the full-corpus search latency that is fixed per-search
#: overhead (does not shrink with the shard count).
SHARD_OVERHEAD_FRACTION = 0.25


@dataclass(frozen=True)
class SearchHit:
    """One retrieved chunk with its distance and rank."""

    chunk: Chunk
    distance: float
    rank: int


@dataclass
class _Shard:
    """One index shard: a vector index plus the global positions of the
    chunks it holds (local row ``i`` is corpus chunk ``global_pos[i]``)."""

    index: object
    global_pos: list

    def __len__(self) -> int:
        return len(self.global_pos)

    def top_k(self, query_vec: np.ndarray,
              k: int) -> tuple[np.ndarray, np.ndarray]:
        """Local top-k as ``(float64 distances, int64 global positions)``
        in the index's native order, cut at its first padding slot."""
        distances, indices = self.index.search(
            query_vec.reshape(1, -1), min(k, len(self)))
        distances, indices = distances[0], indices[0]
        valid = (indices >= 0) & np.isfinite(distances)
        n = len(valid) if valid.all() else int(valid.argmin())
        positions = np.array(
            [self.global_pos[i] for i in indices[:n].tolist()],
            dtype=np.int64)
        return distances[:n].astype(np.float64), positions


class ShardedVectorStore:
    """K index shards with deterministic placement and scatter-gather.

    Args:
        n_shards: number of index shards (>= 1).
        embedding: pluggable embedder (defaults to the 512-d hashed
            embedder standing in for Cohere-embed-v3).
        retrieval_latency_s: simulated wall-clock cost of one search
            over the *full* corpus; per-shard holds are derived from it
            (see module docstring). Charged by the pipeline, not here.
        index_factory: per-shard index constructor ``dim -> index``, or
            a name from :data:`repro.retrieval.index.INDEX_FACTORIES`
            (``"flat"`` / ``"ivf"``). Defaults to exact ``FlatL2Index``.
        gather_per_candidate_s: merge cost per excess candidate.
    """

    def __init__(
        self,
        n_shards: int = 1,
        embedding: EmbeddingModel | None = None,
        retrieval_latency_s: float = 0.004,
        index_factory: str | Callable | None = None,
        gather_per_candidate_s: float = 2e-5,
    ) -> None:
        check_count("n_shards", n_shards, 1)
        check_positive("retrieval_latency_s", retrieval_latency_s)
        check_non_negative("gather_per_candidate_s", gather_per_candidate_s)
        self.embedding = embedding or HashedEmbedding()
        self.retrieval_latency_s = retrieval_latency_s
        self.gather_per_candidate_s = float(gather_per_candidate_s)
        self.index_label, self._index_factory = self._resolve_factory(
            index_factory)
        self._shards = [
            _Shard(index=self._index_factory(self.embedding.dim),
                   global_pos=[])
            for _ in range(int(n_shards))
        ]
        self._chunks: list[Chunk] = []
        self._by_id: dict[str, Chunk] = {}
        self._pos: dict[str, int] = {}
        self._shard_of: dict[str, int] = {}
        self._vectors = np.zeros((0, self.embedding.dim), dtype=np.float32)
        # Query-side memo (module docstring): text -> read-only vector,
        # and id(vector) -> {(sid, k): shard top-k arrays}. Every key of
        # ``_topk`` is the id of a vector ``_query_vecs`` keeps alive.
        self._query_vecs: dict[str, np.ndarray] = {}
        self._topk: dict[int, dict] = {}
        #: Monotonic corpus generation: cache entries are tagged with
        #: the version current at insert, so a later re-ingest makes
        #: hits on older entries *stale* (see ``repro.caching``).
        self.corpus_version = 0

    def bump_corpus_version(self) -> int:
        """Mark a corpus re-ingest; returns the new version."""
        self.corpus_version += 1
        return self.corpus_version

    @staticmethod
    def _resolve_factory(
        index_factory: str | Callable | None,
    ) -> tuple[str, Callable]:
        if index_factory is None:
            return "flat", INDEX_FACTORIES["flat"]
        if isinstance(index_factory, str):
            try:
                return index_factory, INDEX_FACTORIES[index_factory]
            except KeyError:
                known = ", ".join(sorted(INDEX_FACTORIES))
                raise ValueError(
                    f"unknown index factory {index_factory!r}; "
                    f"known: {known}"
                ) from None
        return getattr(index_factory, "__name__", "custom"), index_factory

    # ------------------------------------------------------------------
    # Corpus
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self._shards)

    @property
    def shard_sizes(self) -> list[int]:
        return [len(shard) for shard in self._shards]

    def __len__(self) -> int:
        return len(self._chunks)

    def shard_of(self, chunk_id: str) -> int:
        """Shard holding ``chunk_id`` (KeyError when absent)."""
        return self._shard_of[chunk_id]

    def _place(self, chunk_id: str) -> int:
        if self.n_shards == 1:
            return 0
        return derive_seed(PLACEMENT_SEED, "shard", chunk_id) \
            % self.n_shards

    def add_chunks(self, chunks: list[Chunk]) -> None:
        """Embed and index a batch of chunks across the shards."""
        if not chunks:
            return
        seen: set[str] = set()
        for chunk in chunks:
            if chunk.chunk_id in self._by_id or chunk.chunk_id in seen:
                raise ValueError(f"duplicate chunk_id: {chunk.chunk_id}")
            seen.add(chunk.chunk_id)
        vectors = self.embedding.embed_batch([c.text for c in chunks])
        self._add_embedded(chunks, vectors)

    def _add_embedded(self, chunks: list[Chunk],
                      vectors: np.ndarray) -> None:
        """Place pre-embedded chunks (the reshard fast path). The only
        path that changes shard contents, so it clears the query memo."""
        self._query_vecs.clear()
        self._topk.clear()
        start = len(self._chunks)
        assign = [self._place(c.chunk_id) for c in chunks]
        for sid in range(self.n_shards):
            rows = [i for i, s in enumerate(assign) if s == sid]
            if not rows:
                continue
            self._shards[sid].index.add(vectors[rows])
            self._shards[sid].global_pos.extend(start + i for i in rows)
        self._chunks.extend(chunks)
        self._vectors = np.vstack([self._vectors, vectors])
        for i, chunk in enumerate(chunks):
            self._by_id[chunk.chunk_id] = chunk
            self._pos[chunk.chunk_id] = start + i
            self._shard_of[chunk.chunk_id] = assign[i]

    def get(self, chunk_id: str) -> Chunk:
        """Look up a chunk by id (KeyError when absent)."""
        return self._by_id[chunk_id]

    def global_pos(self, chunk_id: str) -> int:
        """Corpus insertion position of ``chunk_id`` (the tie-break)."""
        return self._pos[chunk_id]

    def reshard(
        self,
        n_shards: int,
        index_factory: str | Callable | None = None,
        retrieval_latency_s: float | None = None,
        gather_per_candidate_s: float | None = None,
    ) -> "ShardedVectorStore":
        """A new store over the same corpus with a different partition.

        Embeddings are reused (no re-embedding), so resharding is cheap
        and the shard-local vectors are bit-identical to the source's.
        Unspecified parameters inherit from ``self``; the query memo
        does not (the clone starts empty).
        """
        clone = ShardedVectorStore(
            n_shards=n_shards,
            embedding=self.embedding,
            retrieval_latency_s=(
                self.retrieval_latency_s if retrieval_latency_s is None
                else retrieval_latency_s),
            index_factory=(
                self._index_factory if index_factory is None
                else index_factory),
            gather_per_candidate_s=(
                self.gather_per_candidate_s
                if gather_per_candidate_s is None
                else gather_per_candidate_s),
        )
        if index_factory is None:
            clone.index_label = self.index_label
        clone.corpus_version = self.corpus_version
        if self._chunks:
            clone._add_embedded(list(self._chunks), self._vectors.copy())
        return clone

    # ------------------------------------------------------------------
    # Scatter / gather
    # ------------------------------------------------------------------
    def embed_query(self, query_text: str) -> np.ndarray:
        """Embed a query once; shard searches share the vector.

        Memoized per text: every call with the same text returns the
        same read-only vector (writing to it raises ``ValueError``).
        """
        vec = self._query_vecs.get(query_text)
        if vec is None:
            vec = self.embedding.embed(query_text)
            vec.flags.writeable = False
            self._query_vecs[query_text] = vec
            self._topk[id(vec)] = {}
        return vec

    def search_shard(self, sid: int, query_vec: np.ndarray,
                     k: int) -> list[tuple[float, int]]:
        """One shard's local top-k as ``(distance, global_pos)`` pairs,
        in the shard index's native ranking order.

        Memoized per ``(sid, k)`` for vectors :meth:`embed_query` handed
        out; any other vector is searched directly. Every call returns
        a fresh list.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        shard = self._shards[sid]
        if not shard.global_pos:
            return []
        # Only a vector this store handed out may be memoized: another
        # one could be edited in place, or freed and its id reused.
        memo = self._topk.get(id(query_vec))
        if memo is None or query_vec.flags.writeable:
            distances, positions = shard.top_k(query_vec, k)
        else:
            hits = memo.get((sid, k))
            if hits is None:
                hits = memo[sid, k] = shard.top_k(query_vec, k)
            distances, positions = hits
        return list(zip(distances.tolist(), positions.tolist()))

    def gather(self, per_shard: list[list[tuple[float, int]]],
               k: int) -> list[SearchHit]:
        """Merge shard answers into the global top-k.

        Multi-shard merges order by ``(distance, global_pos)`` — the
        stable tie-break. The single-shard path keeps the shard index's
        native order untouched (bit-for-bit the monolithic store's
        ranking, including how it breaks exact distance ties).
        """
        if self.n_shards == 1:
            ranked = list(per_shard[0])[:k]
        else:
            ranked = sorted(c for hits in per_shard for c in hits)[:k]
        return [
            SearchHit(self._chunks[gpos], dist, rank)
            for rank, (dist, gpos) in enumerate(ranked)
        ]

    def search(self, query_text: str, k: int) -> list[SearchHit]:
        """Return the ``k`` nearest chunks: scatter to every shard,
        gather by distance."""
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if not self._chunks:
            return []
        query_vec = self.embed_query(query_text)
        per_shard = [
            self.search_shard(sid, query_vec, k)
            for sid in range(self.n_shards)
        ]
        return self.gather(per_shard, k)

    def exact_sq_distance(self, query_vec: np.ndarray,
                          chunk_id: str) -> float:
        """Exact squared L2 distance to a stored chunk (reranker hook)."""
        diff = self._vectors[self._pos[chunk_id]] - query_vec
        return float(np.dot(diff, diff))

    # ------------------------------------------------------------------
    # Timing model
    # ------------------------------------------------------------------
    def shard_hold_seconds(self, sid: int) -> float:
        """Executor hold time for one search on shard ``sid``."""
        total = len(self._chunks)
        size = len(self._shards[sid])
        if total == 0 or size == total:
            # The whole-corpus guard: exactly the legacy constant, not
            # a float expression that merely rounds to it (K=1 anchor).
            return self.retrieval_latency_s
        f = SHARD_OVERHEAD_FRACTION
        return self.retrieval_latency_s * (f + (1.0 - f) * (size / total))

    def gather_seconds(self, n_candidates: int, k: int) -> float:
        """Merge cost for ``n_candidates`` fetched toward a top-``k``."""
        if self.n_shards == 1:
            return 0.0
        excess = n_candidates - min(k, len(self._chunks))
        return self.gather_per_candidate_s * max(0, excess)
