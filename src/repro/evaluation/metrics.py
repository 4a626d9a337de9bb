"""Multi-metric RAG quality harness (``docs/EVALUATION.md``).

The rest of the evaluation stack scores answers with a single token-F1
number, which collapses every quality effect — reranker gains, ivf
recall loss, semantic-cache drift, staleness — onto one axis. This
module decomposes quality RAGAS-style into four deterministic metrics:

* **faithfulness** — fraction of the answer's *claim* tokens (answer
  tokens outside the query's answer template) that are grounded in the
  text of the retrieved chunks. Hallucinated and noise tokens are
  never grounded, so generation drift is directly visible.
* **answer relevancy** — cosine similarity between the
  :class:`~repro.retrieval.embedding.HashedEmbedding` vectors of the
  answer text and the query's *information need* (query text plus its
  reference answer tokens), clamped to ``[0, 1]``. The reference
  anchor is the deterministic stand-in for RAGAS's LLM-reconstructed
  implied question: the synthetic corpus's queries and answers share
  almost no surface vocabulary, so raw answer↔question cosine carries
  no signal, while the information-need anchor separates on-topic
  answers (~0.2–0.45 measured) from off-topic ones (~0.03).
* **context precision** — rank-weighted precision of the retrieved
  chunk list against the chunks that actually contain required facts
  (the RAGAS mean-precision@k formulation).
* **context recall** — fraction of the query's required facts present
  in at least one retrieved chunk.

Every metric is a pure function of ``(query, answer tokens, retrieved
chunk ids)`` over the synthetic fact corpus: no RNG, no wall clock, no
model calls. Embeddings come from the store's own SHA-256 hashed
embedder and chunk membership from the bundle's planted fact maps, so
two processes (or two seeds of the *same* bundle content) produce
bit-identical scores. The harness never touches the event schedule —
scoring happens after a query is served — which is how default runs
with the harness off stay byte-identical to the committed goldens.

:class:`QualitySLO` is the matching objective layer ("faithfulness >=
0.8 at min cost"): a parsed ``metric>=threshold`` spec that
:class:`~repro.core.scheduler.JointScheduler` can target and
:func:`repro.evaluation.slo.evaluate_quality_slo` scores runs against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.util.ids import canonical_query_id

if TYPE_CHECKING:  # heavy types only; the module itself stays light
    from repro.data.types import DatasetBundle, Query
    from repro.retrieval.embedding import EmbeddingModel

__all__ = ["METRIC_NAMES", "QualityMetrics", "QualitySLO", "MetricHarness"]

#: Metric field names, in reporting order. ``mean_f1`` is deliberately
#: not here: F1 is the legacy single-axis score, always computed.
METRIC_NAMES = (
    "faithfulness",
    "answer_relevancy",
    "context_precision",
    "context_recall",
)


@dataclass(frozen=True)
class QualityMetrics:
    """The four decomposed quality scores for one served answer."""

    faithfulness: float
    answer_relevancy: float
    context_precision: float
    context_recall: float

    def get(self, name: str) -> float:
        """Metric value by name (validated against ``METRIC_NAMES``)."""
        if name not in METRIC_NAMES:
            known = ", ".join(METRIC_NAMES)
            raise ValueError(f"unknown metric {name!r}; known: {known}")
        return getattr(self, name)


@dataclass(frozen=True)
class QualitySLO:
    """One quality objective: ``metric >= threshold``.

    The scheduling semantics (``docs/EVALUATION.md``) are *threshold
    gating at minimum cost*: quality above the threshold earns nothing,
    so a policy targeting a quality SLO should pick the cheapest
    configuration that still clears the bar rather than the richest one
    that fits.
    """

    metric: str
    threshold: float

    def __post_init__(self) -> None:
        if self.metric not in METRIC_NAMES:
            known = ", ".join(METRIC_NAMES)
            raise ValueError(
                f"unknown quality metric {self.metric!r}; known: {known}"
            )
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(
                f"quality threshold must be in [0, 1], got {self.threshold}"
            )

    @classmethod
    def parse(cls, spec: str) -> "QualitySLO":
        """Parse a ``metric>=value`` spec (the ``--quality-slo`` flag).

        >>> QualitySLO.parse("faithfulness>=0.8")
        QualitySLO(metric='faithfulness', threshold=0.8)
        """
        if ">=" not in spec:
            raise ValueError(
                f"quality SLO must be metric>=value "
                f"(e.g. faithfulness>=0.8), got {spec!r}"
            )
        metric, _, value = spec.partition(">=")
        try:
            threshold = float(value)
        except ValueError:
            raise ValueError(
                f"quality SLO threshold must be a number, got {value!r}"
            ) from None
        return cls(metric=metric.strip(), threshold=threshold)

    @property
    def spec(self) -> str:
        """The canonical spec string (round-trips through ``parse``)."""
        return f"{self.metric}>={self.threshold:g}"


class MetricHarness:
    """Scores served answers against one dataset bundle.

    Every metric is a pure function of its inputs, so the harness
    memoizes at two scopes:

    * **the bundle** holds what depends on bundle content alone: each
      chunk's token set and the fact → chunks map behind the relevant
      chunk sets, shared by every run over that bundle;
    * **the harness** (one per runner, hence per run) holds what
      depends on served answers: whole scores keyed on
      ``(canonical query id, answer tokens, chunk ids)``, plus each
      query's information-need vector.

    A replay-heavy trace therefore pays each distinct triple once:
    exact cache hits re-score the very answer and context of their
    miss. No answer's 512-d embedding is kept. The harness never
    mutates the bundle or the store.
    """

    def __init__(self, bundle: "DatasetBundle",
                 embedding: "EmbeddingModel | None" = None) -> None:
        self.bundle = bundle
        #: The same hashed embedder retrieval uses (IDF-weighted when
        #: the store fitted one), so relevancy lives in retrieval's
        #: similarity space rather than a second, inconsistent one.
        self.embedding = embedding if embedding is not None \
            else bundle.store.embedding
        self._scores: dict[tuple, QualityMetrics] = {}
        self._query_vecs: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    def score(self, query: "Query", answer_tokens,
              chunk_ids) -> QualityMetrics:
        """All four metrics for one served ``(answer, context)`` pair.

        ``answer_tokens`` is the emitted token sequence (a cached
        answer's tokens on a cache hit); ``chunk_ids`` is the retrieved
        context in rank order (the *cached* ids on a hit, so semantic
        and stale hits are scored against what was actually served).
        """
        answer_tokens = tuple(answer_tokens)
        chunk_ids = tuple(chunk_ids)
        key = (canonical_query_id(query.query_id), answer_tokens, chunk_ids)
        cached = self._scores.get(key)
        if cached is None:
            cached = self._scores[key] = QualityMetrics(
                faithfulness=self.faithfulness(
                    query, answer_tokens, chunk_ids),
                answer_relevancy=self.answer_relevancy(query, answer_tokens),
                context_precision=self.context_precision(query, chunk_ids),
                context_recall=self.context_recall(query, chunk_ids),
            )
        return cached

    # ------------------------------------------------------------------
    def faithfulness(self, query: "Query", answer_tokens,
                     chunk_ids) -> float:
        """Share of claim tokens grounded in the retrieved chunk text.

        Claim tokens are the answer tokens outside the query's answer
        template (boilerplate carries no claims); a claim is grounded
        when the token appears in any retrieved chunk's text. An
        answer with no claim tokens is vacuously faithful (1.0): it
        asserted nothing, so nothing is ungrounded.
        """
        template = set(query.truth.answer_template_tokens)
        claims = [tok for tok in answer_tokens if tok not in template]
        if not claims:
            return 1.0
        ungrounded = claims
        for tokens in map(self.bundle.chunk_token_set, chunk_ids):
            ungrounded = [tok for tok in ungrounded if tok not in tokens]
            if not ungrounded:
                break
        return (len(claims) - len(ungrounded)) / len(claims)

    def answer_relevancy(self, query: "Query", answer_tokens) -> float:
        """Embedding cosine between the answer and the query's need.

        The target vector embeds the query text concatenated with the
        query's reference answer tokens (template + required fact
        values) — the information the query is asking for. Both
        vectors are unit-norm (or zero for empty text), so the dot
        product is the cosine; it is clamped to ``[0, 1]`` — opposing
        hash buckets carry no meaning beyond irrelevance. A zero-token
        answer scores 0.0.
        """
        if not answer_tokens:
            return 0.0
        answer_vec = self.embedding.embed(" ".join(answer_tokens))
        target_vec = self._query_vec(query)
        return float(max(0.0, np.dot(answer_vec, target_vec)))

    def context_precision(self, query: "Query", chunk_ids) -> float:
        """Rank-weighted precision of the retrieved list (RAGAS form).

        ``mean over relevant ranks k of precision@k``: relevant chunks
        near the top of the list score higher than the same chunks
        buried under irrelevant ones. 0.0 when nothing was retrieved
        or nothing retrieved is relevant.
        """
        if not chunk_ids:
            return 0.0
        relevant = self.bundle.relevant_chunk_ids(query)
        hits = 0
        weighted = 0.0
        for k, chunk_id in enumerate(chunk_ids, start=1):
            if chunk_id in relevant:
                hits += 1
                weighted += hits / k
        if hits == 0:
            return 0.0
        return weighted / hits

    def context_recall(self, query: "Query", chunk_ids) -> float:
        """Fraction of required facts present in the retrieved chunks.

        Membership comes from the bundle's planted ``chunk_facts`` map
        — the synthetic corpus's exact ground truth, not a text match.
        0.0 when nothing was retrieved.
        """
        required = set(query.truth.required_fact_ids)
        if not chunk_ids:
            return 0.0
        present: set[str] = set()
        chunk_facts = self.bundle.chunk_facts
        for chunk_id in chunk_ids:
            present.update(fid for fid in chunk_facts.get(chunk_id, ())
                           if fid in required)
        return len(present) / len(required)

    # ------------------------------------------------------------------
    def _query_vec(self, query: "Query") -> np.ndarray:
        """Embedding of the query's information need, memoized."""
        cid = canonical_query_id(query.query_id)
        cached = self._query_vecs.get(cid)
        if cached is None:
            facts = self.bundle.facts
            reference = list(query.truth.answer_template_tokens)
            for fact_id in query.truth.required_fact_ids:
                reference.extend(facts[fact_id].value_tokens)
            cached = self.embedding.embed(
                query.text + " " + " ".join(reference))
            self._query_vecs[cid] = cached
        return cached
