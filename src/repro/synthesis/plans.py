"""Synthesis plans: DAGs of LLM calls with memory/compute footprints.

A :class:`SynthesisPlan` is what the joint scheduler sizes (paper §4.3)
and what the runner executes against the engine. Two footprints matter:

* ``fit_tokens`` — the largest *single* call's KV footprint: the
  minimum memory that must be free for the plan to start making
  progress. This is why ``map_reduce`` can start when ``stuff`` cannot
  (Fig 8): its mappers are individually small.
* ``cost_tokens`` — the total KV-token footprint across all calls: the
  "expensiveness" used for the best-fit ranking (higher ⇒ richer
  configuration ⇒ slightly higher quality within the pruned space).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import check_non_negative, check_positive

__all__ = ["LLMCall", "SynthesisPlan"]


@dataclass(frozen=True)
class LLMCall:
    """One LLM invocation within a synthesis plan.

    ``stage`` orders execution: all calls of stage *s* must finish
    before any call of stage *s+1* starts (mappers → reduce).
    """

    prompt_tokens: int
    output_tokens: int
    stage: int = 0

    def __post_init__(self) -> None:
        check_positive("prompt_tokens", self.prompt_tokens)
        check_positive("output_tokens", self.output_tokens)
        check_non_negative("stage", self.stage)

    @property
    def total_tokens(self) -> int:
        """KV footprint of this call (prompt + generated)."""
        return self.prompt_tokens + self.output_tokens


@dataclass(frozen=True)
class SynthesisPlan:
    """An executable DAG of LLM calls for one (query, config) pair."""

    calls: tuple[LLMCall, ...]

    def __post_init__(self) -> None:
        if not self.calls:
            raise ValueError("SynthesisPlan must contain at least one call")
        stages = sorted({c.stage for c in self.calls})
        if stages != list(range(len(stages))):
            raise ValueError(f"stages must be contiguous from 0, got {stages}")

    # ------------------------------------------------------------------
    @property
    def n_stages(self) -> int:
        return 1 + max(c.stage for c in self.calls)

    def stage_calls(self, stage: int) -> tuple[LLMCall, ...]:
        """Calls belonging to one stage."""
        return tuple(c for c in self.calls if c.stage == stage)

    # ------------------------------------------------------------------
    # Footprints for the joint scheduler
    # ------------------------------------------------------------------
    @property
    def fit_tokens(self) -> int:
        """Minimum KV tokens that must be free to make progress."""
        return max(c.total_tokens for c in self.calls)

    @property
    def cost_tokens(self) -> int:
        """Total KV tokens across all calls (expensiveness metric)."""
        return sum(c.total_tokens for c in self.calls)

    @property
    def stage_peak_tokens(self) -> int:
        """KV tokens if a whole stage runs concurrently (batch headroom)."""
        return max(
            sum(c.total_tokens for c in self.stage_calls(s))
            for s in range(self.n_stages)
        )

    @property
    def total_prefill_tokens(self) -> int:
        return sum(c.prompt_tokens for c in self.calls)

    @property
    def total_output_tokens(self) -> int:
        return sum(c.output_tokens for c in self.calls)
