"""Dataset-facing types: queries with latent truth, dataset bundles.

The *latent truth* of a query (its actual complexity, joint-reasoning
need, required facts, and usable summary-length range) is what the
paper's LLM profiler estimates from natural language. The simulator
keeps it explicit so profiler accuracy is a controlled quantity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.facts import Fact
from repro.llm.quality import ChunkView, QualityParams, SynthesisContext
from repro.llm.tokenizer import SimTokenizer
from repro.retrieval.sharded import ShardedVectorStore

__all__ = ["QueryTruth", "Query", "DatasetBundle"]


@dataclass(frozen=True)
class QueryTruth:
    """Latent ground-truth profile of a query (what a perfect profiler
    would output, plus the facts needed for a perfect answer)."""

    complexity_high: bool
    joint_reasoning: bool
    required_fact_ids: tuple[str, ...]
    summary_range: tuple[int, int]
    answer_template_tokens: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.required_fact_ids:
            raise ValueError("a query must require at least one fact")
        lo, hi = self.summary_range
        if not 1 <= lo <= hi:
            raise ValueError(f"invalid summary_range: {self.summary_range}")

    @property
    def pieces_of_information(self) -> int:
        return len(self.required_fact_ids)


@dataclass(frozen=True, slots=True)
class Query:
    """One RAG query as submitted by a client (slotted: one per
    arrival)."""

    query_id: str
    text: str
    n_tokens: int
    truth: QueryTruth
    answer_tokens_estimate: int

    def __post_init__(self) -> None:
        if self.n_tokens <= 0:
            raise ValueError(f"n_tokens must be positive, got {self.n_tokens}")
        if self.answer_tokens_estimate <= 0:
            raise ValueError(
                "answer_tokens_estimate must be positive, "
                f"got {self.answer_tokens_estimate}"
            )


@dataclass
class DatasetBundle:
    """A ready-to-serve dataset: corpus, index, queries, and truth maps.

    Attributes:
        metadata: the single-line database description fed to the
            profiler (paper Appendix A.1).
        chunk_facts: chunk_id → fact_ids planted in that chunk.
        doc_tokens: doc_id → token length (Table 1 statistics).

    The bundle also memoizes two pure functions of its own content, so
    every run over it shares them: each chunk's token set
    (:meth:`chunk_token_set`; a chunk id's text never changes, since the
    store rejects duplicate ids) and the fact → chunks inverse of
    ``chunk_facts`` behind :meth:`relevant_chunk_ids`.
    """

    name: str
    metadata: str
    chunk_tokens: int
    store: ShardedVectorStore
    queries: list[Query]
    facts: dict[str, Fact]
    chunk_facts: dict[str, tuple[str, ...]]
    doc_tokens: dict[str, int]
    quality_params: QualityParams = field(default_factory=QualityParams)
    tokenizer: SimTokenizer = field(default_factory=SimTokenizer)
    _chunk_token_sets: dict[str, frozenset[str]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _fact_chunks: dict[str, tuple[str, ...]] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.queries:
            raise ValueError("dataset has no queries")
        missing = [
            fid
            for q in self.queries
            for fid in q.truth.required_fact_ids
            if fid not in self.facts
        ]
        if missing:
            raise ValueError(f"queries reference unknown facts: {missing[:5]}")

    # ------------------------------------------------------------------
    def query_by_id(self, query_id: str) -> Query:
        for query in self.queries:
            if query.query_id == query_id:
                return query
        raise KeyError(f"no query {query_id!r} in dataset {self.name!r}")

    def relevant_chunk_ids(self, query: Query) -> set[str]:
        """Chunks containing at least one required fact of ``query``."""
        if self._fact_chunks is None:
            fact_chunks: dict[str, list[str]] = {}
            for chunk_id, fact_ids in self.chunk_facts.items():
                for fid in fact_ids:
                    fact_chunks.setdefault(fid, []).append(chunk_id)
            self._fact_chunks = {
                fid: tuple(ids) for fid, ids in fact_chunks.items()}
        return {
            chunk_id
            for fid in query.truth.required_fact_ids
            for chunk_id in self._fact_chunks.get(fid, ())
        }

    def chunk_token_set(self, chunk_id: str) -> frozenset[str]:
        """The distinct tokens of a chunk's text, tokenized once."""
        tokens = self._chunk_token_sets.get(chunk_id)
        if tokens is None:
            tokens = frozenset(
                self.tokenizer.tokenize(self.store.get(chunk_id).text))
            self._chunk_token_sets[chunk_id] = tokens
        return tokens

    def synthesis_context(
        self, query: Query, chunk_ids: list[str]
    ) -> SynthesisContext:
        """Build the quality model's view for retrieved ``chunk_ids``
        (rank order preserved)."""
        required = tuple(
            self.facts[fid].view() for fid in query.truth.required_fact_ids
        )
        needed = set(query.truth.required_fact_ids)
        views = []
        for chunk_id in chunk_ids:
            chunk = self.store.get(chunk_id)
            fact_views = tuple(
                self.facts[fid].view()
                for fid in self.chunk_facts.get(chunk_id, ())
                if fid in needed
            )
            views.append(
                ChunkView(
                    chunk_id=chunk_id,
                    n_tokens=chunk.n_tokens,
                    facts=fact_views,
                )
            )
        return SynthesisContext(
            query_id=query.query_id,
            complexity_high=query.truth.complexity_high,
            joint_reasoning=query.truth.joint_reasoning,
            required_facts=required,
            chunks=tuple(views),
            answer_template_tokens=query.truth.answer_template_tokens,
        )

    # ------------------------------------------------------------------
    def table1_row(self) -> dict[str, float]:
        """Input/output token statistics (the paper's Table 1)."""
        doc_lengths = sorted(self.doc_tokens.values())
        answers = sorted(
            len(q.truth.answer_template_tokens)
            + sum(
                len(self.facts[fid].value_tokens)
                for fid in q.truth.required_fact_ids
            )
            for q in self.queries
        )

        def pct(values: list[int], q: float) -> float:
            idx = min(len(values) - 1, int(q * len(values)))
            return float(values[idx])

        return {
            "input_p10": pct(doc_lengths, 0.10),
            "input_p90": pct(doc_lengths, 0.90),
            "output_p10": pct(answers, 0.10),
            "output_p90": pct(answers, 0.90),
        }
