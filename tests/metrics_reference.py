"""Unmemoized reference for ``MetricHarness.score``.

The harness as it was before it memoized, kept as the oracle the
memoized one is raced against: faithfulness grounds claims in a fresh
union of the retrieved chunks' token sets, the relevant chunk set comes
from a scan of every ``chunk_facts`` entry, and relevancy embeds both
the answer and the query's information need on every call. The two
must agree bit for bit — pinned by ``tests/test_metrics_memo.py``.

Not a ``test_*`` module, so pytest imports it only where a test asks
for it.
"""

from __future__ import annotations

import numpy as np

from repro.evaluation.metrics import QualityMetrics

__all__ = ["relevant_chunk_ids_reference", "score_reference"]


def relevant_chunk_ids_reference(bundle, query) -> set[str]:
    """Chunks holding at least one required fact, by a full scan."""
    needed = set(query.truth.required_fact_ids)
    return {
        chunk_id
        for chunk_id, fact_ids in bundle.chunk_facts.items()
        if needed.intersection(fact_ids)
    }


def _faithfulness(bundle, query, answer_tokens, chunk_ids) -> float:
    template = set(query.truth.answer_template_tokens)
    claims = [tok for tok in answer_tokens if tok not in template]
    if not claims:
        return 1.0
    grounding: set[str] = set()
    for chunk_id in chunk_ids:
        text = bundle.store.get(chunk_id).text
        grounding.update(bundle.tokenizer.tokenize(text))
    if not grounding:
        return 0.0
    grounded = sum(1 for tok in claims if tok in grounding)
    return grounded / len(claims)


def _answer_relevancy(bundle, embedding, query, answer_tokens) -> float:
    if not answer_tokens:
        return 0.0
    reference = list(query.truth.answer_template_tokens)
    for fact_id in query.truth.required_fact_ids:
        reference.extend(bundle.facts[fact_id].value_tokens)
    target_vec = embedding.embed(query.text + " " + " ".join(reference))
    answer_vec = embedding.embed(" ".join(answer_tokens))
    return float(max(0.0, np.dot(answer_vec, target_vec)))


def _context_precision(bundle, query, chunk_ids) -> float:
    if not chunk_ids:
        return 0.0
    relevant = relevant_chunk_ids_reference(bundle, query)
    hits = 0
    weighted = 0.0
    for k, chunk_id in enumerate(chunk_ids, start=1):
        if chunk_id in relevant:
            hits += 1
            weighted += hits / k
    if hits == 0:
        return 0.0
    return weighted / hits


def _context_recall(bundle, query, chunk_ids) -> float:
    required = set(query.truth.required_fact_ids)
    if not chunk_ids:
        return 0.0
    present: set[str] = set()
    for chunk_id in chunk_ids:
        present.update(fid for fid in bundle.chunk_facts.get(chunk_id, ())
                       if fid in required)
    return len(present) / len(required)


def score_reference(bundle, query, answer_tokens, chunk_ids,
                    embedding=None) -> QualityMetrics:
    """All four metrics for one ``(answer, context)``, from scratch."""
    embedding = embedding if embedding is not None \
        else bundle.store.embedding
    answer_tokens = list(answer_tokens)
    chunk_ids = list(chunk_ids)
    return QualityMetrics(
        faithfulness=_faithfulness(bundle, query, answer_tokens, chunk_ids),
        answer_relevancy=_answer_relevancy(bundle, embedding, query,
                                           answer_tokens),
        context_precision=_context_precision(bundle, query, chunk_ids),
        context_recall=_context_recall(bundle, query, chunk_ids),
    )
