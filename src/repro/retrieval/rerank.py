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
:class:`~repro.sim.resource.Resource` for
:attr:`ExactReranker.PER_CANDIDATE_SECONDS` per candidate scored, so
reranking latency scales with the candidate pool the shards return
(:attr:`ExactReranker.FETCH_MULTIPLIER` times ``k``) — the overhead
side of the quality/latency trade.
"""

from __future__ import annotations

import numpy as np

from repro.retrieval.sharded import SearchHit, ShardedVectorStore

__all__ = ["ExactReranker", "RERANKER_NAMES", "make_reranker"]

#: CLI-selectable reranker names (``--reranker``).
RERANKER_NAMES = ("exact",)


class ExactReranker:
    """Re-score the merged candidate pool by exact L2 distance."""

    name = "exact"
    #: Modelled scoring cost per candidate, in seconds.
    PER_CANDIDATE_SECONDS = 2e-4
    #: Shards are asked for this many times ``k`` candidates, so the
    #: reranker has a pool to recover from.
    FETCH_MULTIPLIER = 4

    def fetch_k(self, k: int) -> int:
        """How many candidates to pull from the shards for a top-``k``."""
        return int(k) * self.FETCH_MULTIPLIER

    def hold_seconds(self, n_candidates: int) -> float:
        """Resource hold time for scoring ``n_candidates``."""
        return self.PER_CANDIDATE_SECONDS * n_candidates

    def rerank(self, store: ShardedVectorStore, query_vec: np.ndarray,
               candidates: list[SearchHit], k: int) -> list[SearchHit]:
        """Top-``k`` of ``candidates`` by exact distance.

        Ties break by corpus insertion position — the same stable total
        order the gather step uses.
        """
        scored = sorted(
            (store.exact_sq_distance(query_vec, hit.chunk.chunk_id),
             store.global_pos(hit.chunk.chunk_id),
             hit.chunk)
            for hit in candidates
        )
        return [
            SearchHit(chunk, dist, rank)
            for rank, (dist, _, chunk) in enumerate(scored[:k])
        ]


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
