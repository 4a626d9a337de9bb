"""Isolated (contention-free) execution-time estimates for one plan.

Fig 4 and Fig 5 characterise configurations' *intrinsic* quality-delay
tradeoffs, so they use an uncontended execution model: each stage
prefills at full throughput and decodes its longest call, stages run
back-to-back. The end-to-end experiments (Fig 10+) use the full engine
simulation instead.
"""

from __future__ import annotations

from repro.llm.costs import RooflineCostModel
from repro.synthesis.plans import SynthesisPlan

__all__ = ["isolated_plan_seconds"]


def isolated_plan_seconds(plan: SynthesisPlan, cost: RooflineCostModel) -> float:
    """Wall-clock to run ``plan`` alone on an idle engine."""
    total = 0.0
    for groups in plan.stages:
        prefill_tokens = sum(n * p for p, _o, n in groups)
        total += cost.prefill_seconds(prefill_tokens)
        # All calls of a stage decode together in one batch; the stage
        # ends when its longest output finishes.
        kv = sum(n * (p + o) for p, o, n in groups)
        longest = max(o for _p, o, _n in groups)
        n_calls = sum(n for _p, _o, n in groups)
        total += longest * cost.decode_step_seconds(kv, n_calls)
    return total
