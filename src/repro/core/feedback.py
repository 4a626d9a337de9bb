"""Golden-configuration feedback for the profiler (§5).

Every :data:`FEEDBACK_EVERY`-th query, METIS runs the most
resource-demanding configuration (``map_reduce`` with 30 chunks and
300-token summaries) to obtain the most accurate achievable answer,
then shows the profiler LLM the query together with that golden answer
as a feedback prompt. Only the last :data:`FEEDBACK_KEEP` feedback
prompts are retained (prompt budget).

The simulator models the *effect* of the retained prompts as an
accuracy bonus on the profiler, and accounts the golden run's token
cost so the cost analysis (Fig 13/14) stays honest. The golden run is
executed off the serving path (batch lane), a simplification: it is
charged GPU time but never occupies the serving engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config.knobs import RAGConfig, SynthesisMethod
from repro.core.profiler import LLMProfiler
from repro.data.types import Query

__all__ = ["FeedbackEvent", "FeedbackLoop", "GOLDEN_CONFIG"]

#: The paper's golden configuration: map_reduce, 30 chunks, 300-token
#: intermediate summaries.
GOLDEN_CONFIG = RAGConfig(SynthesisMethod.MAP_REDUCE, 30, 300)
#: A golden run fires on every this-many-th completed query.
FEEDBACK_EVERY = 30
#: Feedback prompts retained (the oldest is dropped beyond this).
FEEDBACK_KEEP = 4
#: Profiler accuracy bonus per retained feedback prompt.
ACCURACY_BOOST_PER_PROMPT = 0.018


@dataclass(frozen=True)
class FeedbackEvent:
    """One golden-configuration run (for cost accounting)."""

    query_id: str
    golden_prefill_tokens: int
    golden_output_tokens: int
    n_active_prompts: int


@dataclass
class FeedbackLoop:
    """Counts queries, fires golden runs, boosts the profiler."""

    profiler: LLMProfiler
    chunk_tokens: int = 512
    _count: int = 0
    _prompts: list[str] = field(default_factory=list)
    events: list[FeedbackEvent] = field(default_factory=list)

    def on_query_complete(self, query: Query) -> FeedbackEvent | None:
        """Register a completion; maybe fire a feedback event."""
        self._count += 1
        if self._count % FEEDBACK_EVERY != 0:
            return None
        self._prompts.append(query.query_id)
        if len(self._prompts) > FEEDBACK_KEEP:
            self._prompts.pop(0)
        self.profiler.set_accuracy_boost(
            len(self._prompts) * ACCURACY_BOOST_PER_PROMPT
        )
        golden = GOLDEN_CONFIG
        prefill = golden.num_chunks * (
            self.chunk_tokens + query.n_tokens + 40
        ) + golden.num_chunks * golden.intermediate_length + query.n_tokens
        output = (
            golden.num_chunks * golden.intermediate_length
            + query.answer_tokens_estimate
        )
        event = FeedbackEvent(
            query_id=query.query_id,
            golden_prefill_tokens=prefill,
            golden_output_tokens=output,
            n_active_prompts=len(self._prompts),
        )
        self.events.append(event)
        return event
