"""The METIS controller: profiler → Algorithm 1 → joint scheduler.

:class:`MetisPolicy` wires the paper's pipeline (Fig 7) behind the
generic :class:`~repro.core.policy.RAGPolicy` interface. Knob-level
switches (``adapt_*``), the selection mode, and memory awareness exist
so that the paper's ablations (Fig 12, Fig 16) are configurations of
the same controller rather than separate code paths.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

from repro.config.knobs import SynthesisMethod
from repro.config.space import PrunedSpace
from repro.core.feedback import FeedbackLoop
from repro.core.mapping import map_profile_to_space
from repro.core.policy import Decision, PrepResult, RAGPolicy, SchedulingView
from repro.core.profiler import GPT4O_PROFILER, LLMProfiler, ProfilerModelSpec
from repro.data.types import Query

__all__ = ["CONFIDENCE_THRESHOLD", "MetisConfig", "MetisPolicy"]

#: Profiles at or above this confidence are trusted and remembered;
#: below it the controller reuses the recent pruned spaces (§5).
CONFIDENCE_THRESHOLD = 0.90
#: How many confident pruned spaces the low-confidence path merges.
RECENT_SPACES = 10
#: Values used when a knob's adaptation is disabled (Fig 16).
FIXED_NUM_CHUNKS = 20
FIXED_INTERMEDIATE_LENGTH = 100


@dataclass(frozen=True)
class MetisConfig:
    """Controller configuration (defaults = the full METIS system)."""

    profiler_spec: ProfilerModelSpec = GPT4O_PROFILER
    chunk_slack: float = 3.0
    ilen_steps: int = 4
    # Refinements (§5).
    enable_confidence_fallback: bool = True
    enable_feedback: bool = False
    # Ablation switches (Fig 12 / Fig 16).
    adapt_num_chunks: bool = True
    adapt_synthesis: bool = True
    adapt_intermediate_length: bool = True
    #: "best_fit" (METIS), "median" (strawman of §4.3) or "max"
    #: (quality-maximising, what AdaptiveRAG*-style tuners do).
    selection_mode: str = "best_fit"
    #: Quality SLO to target ("metric>=value" or a parsed
    #: :class:`~repro.evaluation.metrics.QualitySLO`): the joint
    #: scheduler then picks the *cheapest* in-range fitting
    #: configuration instead of the richest (docs/EVALUATION.md).
    #: ``None`` (default) keeps selection byte-identical.
    quality_slo: object = None

    def __post_init__(self) -> None:
        if isinstance(self.quality_slo, str):
            from repro.evaluation.metrics import QualitySLO

            # Fail fast on a malformed spec; keep the parsed (frozen,
            # hashable) form so configs stay comparable.
            object.__setattr__(self, "quality_slo",
                               QualitySLO.parse(self.quality_slo))
        if self.selection_mode not in ("best_fit", "median", "max"):
            raise ValueError(
                f"unknown selection_mode: {self.selection_mode!r}"
            )


class MetisPolicy(RAGPolicy):
    """The full METIS system (and, via flags, its ablations)."""

    engine_policy = "app-aware"

    def __init__(
        self,
        metadata_tokens: int,
        chunk_tokens: int,
        config: MetisConfig | None = None,
        seed: int = 0,
        name: str = "metis",
    ) -> None:
        from repro.core.scheduler import JointScheduler

        self.config = config or MetisConfig()
        self.name = name
        self.profiler = LLMProfiler(
            self.config.profiler_spec, metadata_tokens, seed=seed
        )
        self.scheduler = JointScheduler(quality_slo=self.config.quality_slo)
        self.feedback: FeedbackLoop | None = None
        if self.config.enable_feedback:
            self.feedback = FeedbackLoop(
                profiler=self.profiler,
                chunk_tokens=chunk_tokens,
            )
        self._recent_spaces: deque[PrunedSpace] = deque(
            maxlen=RECENT_SPACES
        )

    # ------------------------------------------------------------------
    def prepare(self, query: Query) -> PrepResult:
        """Run the profiler call (latency + dollars charged upstream)."""
        result = self.profiler.profile(query)
        return PrepResult(
            profile=result.profile,
            api_seconds=result.api_seconds,
            dollars=result.dollars,
        )

    # ------------------------------------------------------------------
    def choose(self, query: Query, prep: PrepResult,
               view: SchedulingView) -> Decision:
        assert prep.profile is not None, "MetisPolicy requires a profile"
        profile = prep.profile

        used_recent = False
        if (
            self.config.enable_confidence_fallback
            and profile.confidence < CONFIDENCE_THRESHOLD
            and self._recent_spaces
        ):
            # Low-confidence profile: reuse the pruned spaces of the
            # most recent confident queries (§5).
            pruned = self._merge_recent()
            used_recent = True
        else:
            pruned = map_profile_to_space(
                profile,
                chunk_slack=self.config.chunk_slack,
                ilen_steps=self.config.ilen_steps,
            )
            if profile.confidence >= CONFIDENCE_THRESHOLD:
                self._recent_spaces.append(pruned)

        pruned = self._apply_knob_switches(pruned)
        decision = self._select(pruned, view)
        return replace(decision, used_recent_spaces=used_recent)

    # ------------------------------------------------------------------
    def on_complete(self, query: Query, f1: float, delay: float) -> None:
        if self.feedback is not None:
            self.feedback.on_query_complete(query)

    # ------------------------------------------------------------------
    def _merge_recent(self) -> PrunedSpace:
        spaces = list(self._recent_spaces)
        merged = spaces[0]
        for space in spaces[1:]:
            merged = merged.merge(space)
        return merged

    def _apply_knob_switches(self, pruned: PrunedSpace) -> PrunedSpace:
        """Clamp un-adapted knobs to their fixed values (Fig 16)."""
        cfg = self.config
        methods = pruned.methods
        chunks = pruned.num_chunks_range
        ilen = pruned.intermediate_length_range
        if not cfg.adapt_synthesis:
            methods = (SynthesisMethod.STUFF,)
        if not cfg.adapt_num_chunks:
            chunks = (FIXED_NUM_CHUNKS, FIXED_NUM_CHUNKS)
        if not cfg.adapt_intermediate_length:
            ilen = (FIXED_INTERMEDIATE_LENGTH, FIXED_INTERMEDIATE_LENGTH)
        return PrunedSpace(
            methods=methods,
            num_chunks_range=chunks,
            intermediate_length_range=ilen,
            ilen_steps=pruned.ilen_steps,
        )

    def _select(self, pruned: PrunedSpace, view: SchedulingView) -> Decision:
        if self.config.selection_mode == "median":
            return Decision(config=pruned.median_config(), pruned_space=pruned)
        if self.config.selection_mode == "max":
            # Quality-maximising pick, blind to free memory.
            return Decision(
                config=pruned.most_expensive_config(), pruned_space=pruned
            )
        decision = self.scheduler.choose(pruned, view)
        preferred_replica = None
        if decision.fell_back:
            rescued, replica = self._cluster_rescue(pruned, view)
            if rescued is not None:
                decision = rescued
                preferred_replica = replica
        return Decision(
            config=decision.config,
            pruned_space=pruned,
            fell_back=decision.fell_back,
            preferred_replica=preferred_replica,
        )

    def _cluster_rescue(self, pruned: PrunedSpace, view: SchedulingView):
        """Cluster mode: retry a falling-back pick on the freest replica.

        Joint configuration *and placement* scheduling: the per-replica
        prune already happened against the routed replica's memory; if
        even the fallback path triggered there, a sibling replica with
        more claimable KV can often serve an in-range configuration.
        A no-op on single-replica views.
        Returns ``(decision, replica_id)`` or ``(None, None)``.
        """
        if view.n_replicas < 2:
            return None, None
        best = view.best_replica()
        if best == view.replica_id:
            return None, None
        if (view.replica_available_kv_bytes[best]
                <= view.available_kv_bytes):
            return None, None
        alternative = self.scheduler.choose(pruned, view.for_replica(best))
        if alternative.fell_back:
            return None, None
        return alternative, best

    def describe(self) -> str:
        mode = self.config.selection_mode
        return f"{self.name} ({self.config.profiler_spec.name}, {mode})"
