"""Synthesis methods: compile a RAG config into staged LLM calls.

Implements the paper's three synthesis methods (Fig 3) as planners that
turn (query, retrieved chunks, config) into a :class:`SynthesisPlan` —
the unit the serving engine executes and the joint scheduler sizes.
Each method's prompt arithmetic lives once, in its ``build_plan``; the
scheduler's estimate is the same call over uniform chunks.
"""

from functools import lru_cache

from repro.synthesis.base import PromptOverheads, Synthesizer
from repro.synthesis.map_reduce import MapReduceSynthesizer
from repro.synthesis.map_rerank import MapRerankSynthesizer
from repro.synthesis.plans import SynthesisPlan
from repro.synthesis.stuff import StuffSynthesizer

from repro.config.knobs import RAGConfig, SynthesisMethod

__all__ = [
    "MapReduceSynthesizer",
    "MapRerankSynthesizer",
    "PromptOverheads",
    "StuffSynthesizer",
    "Synthesizer",
    "SynthesisPlan",
    "estimate_footprint",
    "make_synthesizer",
]

_SYNTHESIZERS = {
    SynthesisMethod.STUFF: StuffSynthesizer,
    SynthesisMethod.MAP_RERANK: MapRerankSynthesizer,
    SynthesisMethod.MAP_REDUCE: MapReduceSynthesizer,
}


def make_synthesizer(method: SynthesisMethod,
                     overheads: PromptOverheads | None = None) -> Synthesizer:
    """Instantiate the planner for a synthesis method."""
    cls = _SYNTHESIZERS[method]
    if overheads is None:
        return cls()
    return cls(overheads=overheads)


@lru_cache(maxsize=None)
def _default_synthesizer(method: SynthesisMethod) -> Synthesizer:
    """Default-overhead planner singletons for the memoized estimator."""
    return _SYNTHESIZERS[method]()


@lru_cache(maxsize=65536)
def estimate_footprint(config: RAGConfig, query_tokens: int,
                       chunk_tokens: int,
                       answer_tokens: int) -> SynthesisPlan:
    """Memoized plan for ``config.num_chunks`` chunks of uniform size
    ``chunk_tokens``, at default prompt overheads.

    The decision plane's workhorse: query shapes cluster heavily across
    a trace, so the same ``(config, query_tokens, chunk_tokens,
    answer_tokens)`` key recurs and each distinct shape is planned
    once. Uniform chunks give one call group per stage. Pure function
    of its arguments — memoization cannot change any decision.
    """
    synthesizer = _default_synthesizer(config.synthesis_method)
    return synthesizer.build_plan(
        query_tokens, (chunk_tokens,) * config.num_chunks, answer_tokens,
        config)
