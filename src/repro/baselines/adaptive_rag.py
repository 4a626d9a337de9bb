"""AdaptiveRAG* baseline: quality-maximising per-query adaptation.

AdaptiveRAG (NAACL'24) routes queries by an LLM-estimated complexity,
choosing how much retrieval/reasoning to spend — but, as the paper
notes, it "chooses the configuration which maximises the F1-score,
without considering the system resource cost" and without an interface
for multiple knobs. We implement that faithfully: profile the query,
map it through Algorithm 1's quality rules, and always take the most
expensive (quality-ceiling) configuration, with FCFS serving.
"""

from __future__ import annotations

from repro.config.knobs import RAGConfig, SynthesisMethod
from repro.core.mapping import MAX_NUM_CHUNKS
from repro.core.policy import Decision, PrepResult, RAGPolicy, SchedulingView
from repro.core.profiler import GPT4O_PROFILER, LLMProfiler, ProfilerModelSpec
from repro.data.types import Query

__all__ = ["AdaptiveRAGPolicy"]


class AdaptiveRAGPolicy(RAGPolicy):
    """Per-query quality-maximising configuration, resource-oblivious."""

    engine_policy = "fcfs"

    def __init__(
        self,
        metadata_tokens: int,
        profiler_spec: ProfilerModelSpec = GPT4O_PROFILER,
        seed: int = 0,
        name: str = "adaptive-rag",
    ) -> None:
        self.name = name
        self.profiler = LLMProfiler(profiler_spec, metadata_tokens, seed=seed)

    def prepare(self, query: Query) -> PrepResult:
        result = self.profiler.profile(query)
        return PrepResult(
            profile=result.profile,
            api_seconds=result.api_seconds,
            dollars=result.dollars,
        )

    #: Quality-maximising intermediate length (no summary-range knob in
    #: AdaptiveRAG's interface; it uses a generous static value).
    ILEN = 120
    #: Extra retrieval slack beyond METIS' 3×: maximise recall since
    #: resource cost is not considered.
    CHUNK_SLACK = 3.0
    CHUNK_MARGIN = 1

    def choose(self, query: Query, prep: PrepResult,
               view: SchedulingView) -> Decision:
        assert prep.profile is not None
        profile = prep.profile
        k = int(self.CHUNK_SLACK * profile.pieces) + self.CHUNK_MARGIN
        k = max(1, min(MAX_NUM_CHUNKS, k))
        if not profile.joint_reasoning:
            config = RAGConfig(SynthesisMethod.MAP_RERANK, k)
        elif not profile.complexity_high:
            config = RAGConfig(SynthesisMethod.STUFF, k)
        else:
            config = RAGConfig(SynthesisMethod.MAP_REDUCE, k, self.ILEN)
        return Decision(config=config)

    def describe(self) -> str:
        return f"{self.name}: profile → max-quality config, fcfs"
