"""Synthesis plans: the LLM calls of one (query, config) pair, grouped.

A :class:`SynthesisPlan` is what the joint scheduler sizes (paper §4.3)
and what the pipeline submits to the engine. Its calls are stored per
stage as ``(prompt_tokens, output_tokens, n_calls)`` groups: each group
is a run of identical *consecutive* calls, in call order, so expanding
the groups gives back the exact call sequence the engine is sent
(a non-adjacent repeat starts a new group). All calls of stage *s*
finish before any call of stage *s+1* starts (mappers → reduce).
Uniform chunks give one group per stage, which is how the scheduler's
estimates stay cheap.

Two footprints matter to the scheduler:

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

__all__ = ["SynthesisPlan"]

#: A run of identical consecutive calls inside a stage:
#: ``(prompt_tokens, output_tokens, n_calls)``.
CallGroup = tuple[int, int, int]


@dataclass(frozen=True)
class SynthesisPlan:
    """Grouped LLM calls of one plan plus its scalar token footprints.

    Build one with :meth:`from_stages`, which derives the scalars.
    """

    n_calls: int
    #: Largest single call (prompt + output) — minimum KV tokens that
    #: must be free for the plan to make progress (Fig 8 unit fit).
    fit_tokens: int
    #: Total KV tokens across all calls — the best-fit ranking metric.
    cost_tokens: int
    #: KV tokens if a whole stage runs concurrently.
    stage_peak_tokens: int
    total_prefill_tokens: int
    total_output_tokens: int
    #: Per stage, call groups in call order.
    stages: tuple[tuple[CallGroup, ...], ...]

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    @classmethod
    def from_stages(
        cls, stages: tuple[tuple[CallGroup, ...], ...]
    ) -> SynthesisPlan:
        """Derive the scalar footprints from grouped stages."""
        if not stages:
            raise ValueError("a synthesis plan needs at least one call")
        fit = 0
        cost = 0
        stage_peak = 0
        prefill = 0
        output = 0
        n_calls = 0
        for s, groups in enumerate(stages):
            if not groups:
                raise ValueError(
                    f"stage {s} has no calls; stages must be contiguous")
            stage_total = 0
            for prompt, out, n in groups:
                if prompt <= 0 or out <= 0 or n <= 0:
                    raise ValueError(
                        f"call group {(prompt, out, n)} in stage {s} "
                        "must have positive token counts and calls")
                total = prompt + out
                n_calls += n
                fit = max(fit, total)
                stage_total += n * total
                prefill += n * prompt
                output += n * out
            cost += stage_total
            stage_peak = max(stage_peak, stage_total)
        return cls(
            n_calls=n_calls,
            fit_tokens=fit,
            cost_tokens=cost,
            stage_peak_tokens=stage_peak,
            total_prefill_tokens=prefill,
            total_output_tokens=output,
            stages=stages,
        )

    def service_seconds(self, cost) -> float:
        """Uncontended service-time estimate under a roofline cost model.

        Per call: :meth:`~repro.llm.costs.RooflineCostModel.request_seconds`
        (the pricing rule feedback runs and wasted speculative work are
        charged at, so arming estimates agree with the bill). Calls
        within a stage run concurrently (stage time = slowest call);
        stages are sequential. Priced once per group, since identical
        calls cost the same. A speed-``s`` replica serves the plan in
        ``estimate / s`` seconds.
        """
        total = 0.0
        for groups in self.stages:
            stage_seconds = 0.0
            for prompt, out, _n in groups:
                seconds = cost.request_seconds(prompt, out)
                stage_seconds = max(stage_seconds, seconds)
            total += stage_seconds
        return total
