"""Reranking: re-score an over-fetched candidate pool at modelled cost.

A production RAG stack often retrieves ``multiplier * k`` candidates
cheaply (especially from approximate shards) and re-scores them with a
stronger model before keeping the top-k — RAGGED's "informed design"
knob for trading retrieval latency against quality.

:class:`ExactReranker` models the common *exact re-scoring* variant:
candidates are re-ranked by their exact L2 distance to the query
(recomputed from the stored vectors), which is a no-op on an exact
``flat`` index but recovers recall lost to ``ivf`` cell probing. Its
*cost* model is what the pipeline charges: the reranker holds its
:class:`~repro.sim.resource.Resource` for ``per_candidate_seconds``
per candidate scored, so reranking latency scales with the fetch
multiplier — the overhead side of the quality/latency trade.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.retrieval.sharded import SearchHit, ShardedVectorStore
from repro.util.validation import check_non_negative, check_positive

__all__ = ["ExactReranker", "RERANKER_NAMES", "make_reranker"]

#: CLI-selectable reranker names (``--reranker``).
RERANKER_NAMES = ("exact",)


@dataclass(frozen=True)
class ExactReranker:
    """Re-score the merged candidate pool by exact L2 distance.

    Args:
        per_candidate_seconds: modelled scoring cost per candidate
            (the resource hold time is ``per_candidate_seconds * n``).
        fetch_multiplier: shards are asked for ``multiplier * k``
            candidates so the reranker has a pool to recover from.
    """

    per_candidate_seconds: float = 2e-4
    fetch_multiplier: int = 4
    name: str = "exact"

    def __post_init__(self) -> None:
        check_non_negative("per_candidate_seconds",
                           self.per_candidate_seconds)
        check_positive("fetch_multiplier", self.fetch_multiplier)

    def fetch_k(self, k: int) -> int:
        """How many candidates to pull from the shards for a top-``k``."""
        return int(k) * int(self.fetch_multiplier)

    def hold_seconds(self, n_candidates: int) -> float:
        """Resource hold time for scoring ``n_candidates``."""
        return self.per_candidate_seconds * n_candidates

    def rerank(self, store: ShardedVectorStore, query_vec: np.ndarray,
               candidates: list[SearchHit], k: int) -> list[SearchHit]:
        """Top-``k`` of ``candidates`` by exact distance.

        Ties break by corpus insertion position — the same stable total
        order the gather step uses. For a vector the store handed out,
        the result is memoized per ``(candidate ids, k)`` in the store's
        query memo, which a change of shard contents clears.
        """
        if not candidates:
            return []
        memo = store.query_memo(query_vec)
        if memo is not None:
            key = ("rerank",
                   tuple(hit.chunk.chunk_id for hit in candidates), k)
            top = memo.get(key)
            if top is not None:
                return list(top)
        scored = sorted(
            (store.exact_sq_distance(query_vec, hit.chunk.chunk_id),
             store.global_pos(hit.chunk.chunk_id),
             hit.chunk)
            for hit in candidates
        )
        top = [
            SearchHit(chunk, dist, rank)
            for rank, (dist, _, chunk) in enumerate(scored[:k])
        ]
        if memo is not None:
            memo[key] = tuple(top)
        return top


def make_reranker(spec) -> ExactReranker | None:
    """Resolve a reranker spec: ``None``, a registry name, or an
    instance (returned as-is)."""
    if spec is None:
        return None
    if isinstance(spec, str):
        if spec == "exact":
            return ExactReranker()
        known = ", ".join(RERANKER_NAMES)
        raise ValueError(f"unknown reranker {spec!r}; known: {known}")
    return spec
