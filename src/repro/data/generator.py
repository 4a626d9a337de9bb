"""Corpus and query generation from a :class:`DatasetSpec`.

The generator plants facts at known positions, pads documents with
topic-correlated filler to the target length distribution (Table 1),
indexes the chunks, and then samples queries whose latent truth
(pieces, complexity, joint reasoning, summary needs) is derived from
the planted facts. Distractor similarity comes for free: every document
holds many facts but a query needs only a few, and attribute families
repeat across documents.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.facts import Fact
from repro.data.types import DatasetBundle, Query, QueryTruth
from repro.data.vocab import make_entity_name, make_filler_sentence, make_value_phrase
from repro.llm.quality import QualityParams
from repro.llm.tokenizer import SimTokenizer
from repro.retrieval.chunker import Chunk, split_into_chunks
from repro.retrieval.embedding import HashedEmbedding, IdfWeights
from repro.retrieval.sharded import ShardedVectorStore
from repro.util.rng import RngStreams

__all__ = ["DatasetSpec", "generate_dataset"]


@dataclass(frozen=True)
class DatasetSpec:
    """Everything that defines one synthetic dataset family."""

    name: str
    metadata: str
    style: str                      # fact-sentence surface form
    entity_kind: str
    chunk_tokens: int
    n_docs: int
    doc_token_range: tuple[int, int]
    facts_per_doc: tuple[int, int]
    value_words: tuple[int, int]
    verbosity_range: tuple[int, int]
    attribute_families: tuple[str, ...]
    attribute_qualifiers: tuple[str, ...]
    pieces_probs: tuple[tuple[int, float], ...]
    complexity_high_base: float
    complexity_high_per_piece: float
    joint_prob_single: float
    cross_doc_queries: bool
    n_queries: int
    answer_template: str
    filler_topic_rate: float = 0.18
    quality: QualityParams = field(default_factory=QualityParams)

    def __post_init__(self) -> None:
        if self.n_docs < 4:
            raise ValueError("need at least 4 documents")
        if self.n_queries < 1:
            raise ValueError("need at least 1 query")
        total = sum(p for _, p in self.pieces_probs)
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"pieces_probs must sum to 1, got {total}")


# ----------------------------------------------------------------------
# Corpus construction
# ----------------------------------------------------------------------
def _build_documents(
    spec: DatasetSpec, rngs: RngStreams, tokenizer: SimTokenizer
) -> tuple[dict[str, Fact], dict[str, str], dict[str, int], dict[str, str]]:
    """Returns (facts, doc_texts, doc_tokens, fact_entity_by_doc)."""
    rng = rngs.get("corpus")
    attributes = [
        f"{family} {qualifier}"
        for family in spec.attribute_families
        for qualifier in spec.attribute_qualifiers
    ]
    facts: dict[str, Fact] = {}
    doc_texts: dict[str, str] = {}
    doc_tokens: dict[str, int] = {}
    doc_entities: dict[str, str] = {}

    for d in range(spec.n_docs):
        doc_id = f"{spec.name}-d{d}"
        entity = make_entity_name(rng, spec.entity_kind)
        doc_entities[doc_id] = entity
        lo, hi = spec.facts_per_doc
        n_facts = int(rng.integers(lo, hi + 1))
        n_facts = min(n_facts, len(attributes))
        chosen = rng.choice(len(attributes), size=n_facts, replace=False)

        doc_facts: list[Fact] = []
        for j, attr_idx in enumerate(chosen):
            attribute = attributes[int(attr_idx)]
            v_lo, v_hi = spec.value_words
            value = make_value_phrase(rng, int(rng.integers(v_lo, v_hi + 1)))
            verb_lo, verb_hi = spec.verbosity_range
            fact = Fact(
                fact_id=f"{doc_id}/f{j}",
                doc_id=doc_id,
                entity=entity,
                attribute=attribute,
                value_text=value,
                sentence=Fact.render_sentence(entity, attribute, value,
                                              spec.style),
                verbosity=float(rng.integers(verb_lo, verb_hi + 1)),
            )
            facts[fact.fact_id] = fact
            doc_facts.append(fact)

        # Interleave fact sentences with topic-correlated filler until
        # the target document length is reached.
        target = int(rng.integers(*spec.doc_token_range))
        # Filler mixes in the entity's name and the words of the doc's
        # *own* attributes — realistic on-topic padding that creates
        # within-document distractors without blurring documents into
        # each other.
        topic_words = tuple(tokenizer.tokenize(entity)) + tuple(
            w for fact in doc_facts for w in fact.attribute.split()[:-1]
        )
        sentences: list[str] = [f.sentence for f in doc_facts]
        current = sum(tokenizer.count(s) for s in sentences)
        while current < target:
            filler = make_filler_sentence(
                rng, topic_words, topic_rate=spec.filler_topic_rate
            )
            sentences.append(filler)
            current += tokenizer.count(filler)
        order = rng.permutation(len(sentences))
        text = " ".join(sentences[int(i)] for i in order)
        doc_texts[doc_id] = text
        doc_tokens[doc_id] = tokenizer.count(text)

    return facts, doc_texts, doc_tokens, doc_entities


def _locate_facts(
    facts: dict[str, Fact], chunks: list[Chunk]
) -> dict[str, tuple[str, ...]]:
    """Map chunk_id → fact_ids by (unique) sentence containment."""
    by_doc: dict[str, list[Chunk]] = {}
    for chunk in chunks:
        by_doc.setdefault(chunk.doc_id, []).append(chunk)
    chunk_facts: dict[str, list[str]] = {c.chunk_id: [] for c in chunks}
    for fact in facts.values():
        placed = False
        for chunk in by_doc.get(fact.doc_id, ()):
            if fact.sentence in chunk.text:
                chunk_facts[chunk.chunk_id].append(fact.fact_id)
                placed = True
                break
        if not placed:
            raise RuntimeError(
                f"fact {fact.fact_id} was split across chunks; lower "
                "facts_per_doc or raise chunk_tokens"
            )
    return {cid: tuple(fids) for cid, fids in chunk_facts.items()}


# ----------------------------------------------------------------------
# Query construction
# ----------------------------------------------------------------------
def _sample_pieces(spec: DatasetSpec, rng: np.random.Generator) -> int:
    values = [v for v, _ in spec.pieces_probs]
    probs = [p for _, p in spec.pieces_probs]
    return int(rng.choice(values, p=probs))


def _pick_facts(
    spec: DatasetSpec,
    rng: np.random.Generator,
    pieces: int,
    facts: dict[str, Fact],
    fact_chunk: dict[str, str],
) -> list[Fact]:
    """Pick ``pieces`` required facts under the dataset's placement rule."""
    all_facts = list(facts.values())
    if pieces == 1:
        return [all_facts[int(rng.integers(len(all_facts)))]]

    if spec.cross_doc_queries:
        # Multi-hop: facts from distinct documents, same attribute
        # family where possible (mirrors "are X, Y, Z from the same
        # country?" queries).
        by_family: dict[str, list[Fact]] = {}
        for fact in all_facts:
            family = fact.attribute.rsplit(" ", 1)[0]
            by_family.setdefault(family, []).append(fact)
        families = [f for f, members in by_family.items()
                    if len({m.doc_id for m in members}) >= pieces]
        if families:
            family = families[int(rng.integers(len(families)))]
            pool = by_family[family]
            picked: list[Fact] = []
            seen_docs: set[str] = set()
            for idx in rng.permutation(len(pool)):
                fact = pool[int(idx)]
                if fact.doc_id not in seen_docs:
                    picked.append(fact)
                    seen_docs.add(fact.doc_id)
                if len(picked) == pieces:
                    return picked
        # Fallback: any facts from distinct docs.
        picked, seen_docs = [], set()
        for idx in rng.permutation(len(all_facts)):
            fact = all_facts[int(idx)]
            if fact.doc_id not in seen_docs:
                picked.append(fact)
                seen_docs.add(fact.doc_id)
            if len(picked) == pieces:
                return picked
        return picked  # corpus too small; return what we have

    # Doc-level QA: facts from one document, distinct chunks preferred.
    by_doc: dict[str, list[Fact]] = {}
    for fact in all_facts:
        by_doc.setdefault(fact.doc_id, []).append(fact)
    candidates = [d for d, fs in by_doc.items() if len(fs) >= pieces]
    if not candidates:
        candidates = sorted(by_doc, key=lambda d: -len(by_doc[d]))
    doc_id = candidates[int(rng.integers(len(candidates)))]
    pool = by_doc[doc_id]
    # Prefer facts in distinct chunks so the query genuinely needs
    # multiple retrievals.
    picked, seen_chunks = [], set()
    for idx in rng.permutation(len(pool)):
        fact = pool[int(idx)]
        chunk_id = fact_chunk[fact.fact_id]
        if chunk_id not in seen_chunks:
            picked.append(fact)
            seen_chunks.add(chunk_id)
        if len(picked) == pieces:
            return picked
    for idx in rng.permutation(len(pool)):
        fact = pool[int(idx)]
        if fact not in picked:
            picked.append(fact)
        if len(picked) == pieces:
            break
    return picked


def _query_text(
    spec: DatasetSpec,
    rng: np.random.Generator,
    picked: list[Fact],
    complexity_high: bool,
) -> str:
    """Render query text that shares tokens with every required fact."""
    if len(picked) == 1:
        fact = picked[0]
        if complexity_high:
            return (
                f"Explain why the {fact.attribute} of {fact.entity} "
                "turned out this way and give the value."
            )
        return f"What is the {fact.attribute} of {fact.entity}?"

    entities = {f.entity for f in picked}
    attrs = ", ".join(f.attribute for f in picked)
    if len(entities) == 1:
        entity = picked[0].entity
        if complexity_high:
            return (
                f"Compare the {attrs} of {entity}, explain the reasons "
                "for the differences, and identify the highest one."
            )
        return f"Compare the {attrs} of {entity} and identify the highest one."
    clauses = ", ".join(f"the {f.attribute} of {f.entity}" for f in picked)
    family = picked[0].attribute.rsplit(" ", 1)[0]
    if complexity_high:
        return (
            f"Considering {clauses}, explain how they relate on "
            f"{family} and why."
        )
    return f"Comparing {clauses}, are they the same {family}?"


def _summary_range(
    picked: list[Fact], fact_chunk: dict[str, str]
) -> tuple[int, int]:
    """Usable ``intermediate_length`` range from per-chunk verbosity demand."""
    demand: dict[str, float] = {}
    for fact in picked:
        chunk_id = fact_chunk[fact.fact_id]
        demand[chunk_id] = demand.get(chunk_id, 0.0) + fact.verbosity
    needed = max(demand.values())
    lo = max(20, round(1.2 * needed))
    hi = max(lo + 10, round(2.4 * needed))
    return lo, min(hi, 300)


# ----------------------------------------------------------------------
def generate_dataset(spec: DatasetSpec, seed: int = 0) -> DatasetBundle:
    """Build a full :class:`DatasetBundle` from a spec, reproducibly."""
    rngs = RngStreams(seed).child("dataset", spec.name)
    tokenizer = SimTokenizer()

    facts, doc_texts, doc_tokens, _ = _build_documents(spec, rngs, tokenizer)

    chunks: list[Chunk] = []
    for doc_id, text in doc_texts.items():
        chunks.extend(
            split_into_chunks(doc_id, text, spec.chunk_tokens,
                              tokenizer=tokenizer)
        )
    chunk_facts = _locate_facts(facts, chunks)
    fact_chunk = {
        fid: cid for cid, fids in chunk_facts.items() for fid in fids
    }

    idf = IdfWeights().fit([c.text for c in chunks])
    store = ShardedVectorStore(embedding=HashedEmbedding(idf=idf))
    store.add_chunks(chunks)

    rng = rngs.get("queries")
    template_tokens = tuple(tokenizer.tokenize(spec.answer_template))
    queries: list[Query] = []
    for i in range(spec.n_queries):
        pieces = _sample_pieces(spec, rng)
        picked = _pick_facts(spec, rng, pieces, facts, fact_chunk)
        pieces = len(picked)  # corpus may cap the request
        p_high = min(
            0.95,
            spec.complexity_high_base
            + spec.complexity_high_per_piece * (pieces - 1),
        )
        complexity_high = bool(rng.random() < p_high)
        joint = pieces > 1 or bool(rng.random() < spec.joint_prob_single)
        text = _query_text(spec, rng, picked, complexity_high)
        answer_tokens = len(template_tokens) + sum(
            len(f.value_tokens) for f in picked
        )
        truth = QueryTruth(
            complexity_high=complexity_high,
            joint_reasoning=joint,
            required_fact_ids=tuple(f.fact_id for f in picked),
            summary_range=_summary_range(picked, fact_chunk),
            answer_template_tokens=template_tokens,
        )
        queries.append(
            Query(
                query_id=f"{spec.name}-q{i}",
                text=text,
                n_tokens=tokenizer.count(text),
                truth=truth,
                answer_tokens_estimate=max(4, answer_tokens),
            )
        )

    return DatasetBundle(
        name=spec.name,
        metadata=spec.metadata,
        chunk_tokens=spec.chunk_tokens,
        store=store,
        queries=queries,
        facts=facts,
        chunk_facts=chunk_facts,
        doc_tokens=doc_tokens,
        quality_params=spec.quality,
        tokenizer=tokenizer,
    )
