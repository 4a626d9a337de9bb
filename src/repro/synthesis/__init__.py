"""Synthesis methods: compile a RAG config into staged LLM calls.

Implements the paper's three synthesis methods (Fig 3) as planners that
turn (query, retrieved chunks, config) into a :class:`SynthesisPlan` —
the unit the serving engine executes and the joint scheduler sizes.
Each method's prompt arithmetic lives once, in its ``build_plan``; the
scheduler's estimate is the same call over uniform chunks.
"""

from repro.synthesis.base import Synthesizer
from repro.synthesis.map_reduce import MapReduceSynthesizer
from repro.synthesis.map_rerank import MapRerankSynthesizer
from repro.synthesis.plans import SynthesisPlan
from repro.synthesis.stuff import StuffSynthesizer

from repro.config.knobs import RAGConfig, SynthesisMethod

__all__ = [
    "MapReduceSynthesizer",
    "MapRerankSynthesizer",
    "StuffSynthesizer",
    "Synthesizer",
    "SynthesisPlan",
    "make_synthesizer",
    "uniform_plan",
]

#: The one shared planner per method: planners are stateless.
_SYNTHESIZERS: dict[SynthesisMethod, Synthesizer] = {
    synthesizer.method: synthesizer
    for synthesizer in (StuffSynthesizer(), MapRerankSynthesizer(),
                        MapReduceSynthesizer())
}


def make_synthesizer(method: SynthesisMethod) -> Synthesizer:
    """The planner for a synthesis method (one shared instance)."""
    return _SYNTHESIZERS[method]


def uniform_plan(config: RAGConfig, query_tokens: int, chunk_tokens: int,
                 answer_tokens: int) -> SynthesisPlan:
    """The plan for ``config.num_chunks`` chunks of uniform size
    ``chunk_tokens``.

    Uniform chunks give one call group per stage. Not memoized: the
    joint scheduler reads two integers from each candidate's plan and
    drops it (its grid memo keeps the scores, not the plans), and
    deadline-risk hedge pricing plans one config per decision.
    """
    return _SYNTHESIZERS[config.synthesis_method].build_plan(
        query_tokens, (chunk_tokens,) * config.num_chunks, answer_tokens,
        config)
