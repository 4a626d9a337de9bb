"""The LLM query profiler (§4.1, §5) as a calibrated noise model.

A real profiler prompts GPT-4o / Llama-3.1-70B with the query plus the
database metadata and parses four structured outputs. What the rest of
METIS consumes is (a) the joint distribution of profile accuracy and
confidence, (b) the call's latency, and (c) its dollar cost — so that
is exactly what this module models, calibrated to the paper's Fig 9:
>93% of profiles come back above the 0.9 confidence threshold, ≥96% of
those are good, and 85–90% of the below-threshold ones are bad.

Feedback prompts (§5) raise the effective accuracy: every 30th query
METIS generates a golden answer with the most expensive configuration
and shows it to the profiler; the last four such prompts are kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.profiles import MAX_PIECES, QueryProfile
from repro.data.types import Query
from repro.llm.costs import ApiLatencyModel
from repro.llm.model import GPT_4O, LLAMA3_70B_AWQ, ModelSpec
from repro.util.rng import RngStreams
from repro.util.validation import check_probability

__all__ = [
    "ProfilerModelSpec",
    "GPT4O_PROFILER",
    "LLAMA70B_PROFILER",
    "ProfilerResult",
    "LLMProfiler",
]

#: Token overhead of the profiler prompt template (Appendix A.1) on top
#: of the query text and database metadata.
_PROMPT_TEMPLATE_TOKENS = 96
#: Structured profiler output: four short fields.
_OUTPUT_TOKENS = 12


@dataclass(frozen=True)
class ProfilerModelSpec:
    """Accuracy/confidence/latency character of one profiler LLM.

    Attributes:
        base_accuracy: probability the profile comes out *good* (all
            four dimensions usable; see ``profile_is_good``).
        pieces_sigma: std-dev of the pieces estimate when the profile
            is bad.
        conf_high_given_good / conf_high_given_bad: probability the
            confidence lands above the 0.9 threshold for good/bad
            profiles (the discriminativeness of log-prob confidence).
    """

    name: str
    model: ModelSpec
    base_accuracy: float
    pieces_sigma: float
    conf_high_given_good: float
    conf_high_given_bad: float
    latency: ApiLatencyModel = ApiLatencyModel()

    def __post_init__(self) -> None:
        check_probability("base_accuracy", self.base_accuracy)
        check_probability("conf_high_given_good", self.conf_high_given_good)
        check_probability("conf_high_given_bad", self.conf_high_given_bad)


GPT4O_PROFILER = ProfilerModelSpec(
    name="gpt-4o-profiler",
    model=GPT_4O,
    base_accuracy=0.91,
    pieces_sigma=2.0,
    conf_high_given_good=0.985,
    conf_high_given_bad=0.30,
)

LLAMA70B_PROFILER = ProfilerModelSpec(
    name="llama70b-profiler",
    model=LLAMA3_70B_AWQ,
    base_accuracy=0.86,
    pieces_sigma=2.4,
    conf_high_given_good=0.95,
    conf_high_given_bad=0.42,
    # Self-hosted endpoint: slightly slower time-to-first-token.
    latency=ApiLatencyModel(base_latency_s=0.08, output_tokens_per_s=120.0),
)


@dataclass(frozen=True)
class ProfilerResult:
    """Profile plus the call's resource usage."""

    profile: QueryProfile
    api_seconds: float
    dollars: float
    input_tokens: int
    output_tokens: int


class LLMProfiler:
    """Simulates profiling calls for a dataset's queries.

    Args:
        spec: which profiler LLM to emulate.
        metadata_tokens: token length of the database metadata line the
            prompt includes (per dataset).
        seed: RNG root; profiles are deterministic per query id.
    """

    def __init__(self, spec: ProfilerModelSpec, metadata_tokens: int,
                 seed: int = 0) -> None:
        if metadata_tokens < 0:
            raise ValueError(f"metadata_tokens must be >= 0, got {metadata_tokens}")
        self.spec = spec
        self.metadata_tokens = metadata_tokens
        self._rngs = RngStreams(seed).child("profiler", spec.name)
        self._accuracy_boost = 0.0

    # ------------------------------------------------------------------
    @property
    def accuracy(self) -> float:
        """Effective accuracy including feedback boost (capped)."""
        return min(0.985, self.spec.base_accuracy + self._accuracy_boost)

    def set_accuracy_boost(self, boost: float) -> None:
        """Set the feedback-prompt accuracy bonus (see FeedbackLoop)."""
        if boost < 0:
            raise ValueError(f"boost must be >= 0, got {boost}")
        self._accuracy_boost = boost

    # ------------------------------------------------------------------
    def profile(self, query: Query) -> ProfilerResult:
        """Profile one query (deterministic given the seed and query id).

        The stream is keyed on the query alone (at its boost-0 value), so
        every accuracy sees the same draws: a higher accuracy only turns
        bad profiles good, never a good one bad.
        """
        rng = self._rngs.fresh("q", query.query_id, 0.0)
        truth = query.truth
        good = bool(rng.random() < self.accuracy)
        if good:
            profile_fields = dict(
                complexity_high=truth.complexity_high,
                joint_reasoning=truth.joint_reasoning,
                pieces=min(MAX_PIECES, truth.pieces_of_information),
                summary_range=truth.summary_range,
            )
        else:
            profile_fields = self._corrupt(rng, truth)
        confidence = self._confidence(rng, good)
        profile = QueryProfile(
            confidence=confidence, source=self.spec.name, **profile_fields
        )
        input_tokens = (
            query.n_tokens + self.metadata_tokens + _PROMPT_TEMPLATE_TOKENS
        )
        api_seconds = self.spec.latency.call_seconds(input_tokens, _OUTPUT_TOKENS)
        dollars = self.spec.model.dollar_cost(input_tokens, _OUTPUT_TOKENS)
        return ProfilerResult(
            profile=profile,
            api_seconds=api_seconds,
            dollars=dollars,
            input_tokens=input_tokens,
            output_tokens=_OUTPUT_TOKENS,
        )

    # ------------------------------------------------------------------
    def _corrupt(self, rng: np.random.Generator, truth) -> dict:
        """Produce a *bad* profile: at least one dimension unusable."""
        true_pieces = min(MAX_PIECES, truth.pieces_of_information)
        fields = dict(
            complexity_high=truth.complexity_high,
            joint_reasoning=truth.joint_reasoning,
            pieces=true_pieces,
            summary_range=truth.summary_range,
        )
        # Corrupt dimensions until the profile is materially wrong;
        # weights reflect which estimates LLM profilers actually miss
        # (pieces-of-information being the hardest).
        corrupted = False
        if rng.random() < 0.55:
            delta = int(round(rng.normal(0.0, self.spec.pieces_sigma)))
            if abs(delta) >= 2:
                fields["pieces"] = int(np.clip(true_pieces + delta, 1, MAX_PIECES))
                corrupted = fields["pieces"] != true_pieces
        if rng.random() < 0.35:
            fields["complexity_high"] = not truth.complexity_high
            corrupted = True
        if rng.random() < 0.25:
            fields["joint_reasoning"] = not truth.joint_reasoning
            corrupted = True
        if not corrupted:
            # Guarantee badness via a useless summary range.
            lo, hi = truth.summary_range
            scale = 0.3 if rng.random() < 0.5 else 3.5
            new_lo = max(1, int(lo * scale))
            new_hi = max(new_lo + 5, int(hi * scale))
            fields["summary_range"] = (new_lo, min(new_hi, 600))
            # Shift pieces by ±2 as well so the range misses the truth.
            shift = 2 if true_pieces <= MAX_PIECES - 2 else -2
            fields["pieces"] = int(np.clip(true_pieces + shift, 1, MAX_PIECES))
        return fields

    def _confidence(self, rng: np.random.Generator, good: bool) -> float:
        """Sample a log-prob-style confidence score in [0.5, 1)."""
        p_high = (
            self.spec.conf_high_given_good if good
            else self.spec.conf_high_given_bad
        )
        if rng.random() < p_high:
            # Above threshold: skew towards 1.
            return float(0.90 + 0.099 * rng.beta(2.0, 1.2))
        return float(0.50 + 0.399 * rng.beta(2.0, 2.0))
