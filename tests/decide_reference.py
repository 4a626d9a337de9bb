"""Plan-materialising reference for ``JointScheduler.choose``.

The pre-fast-path chooser, kept as the oracle the fast path is raced
against: it builds a full :class:`~repro.synthesis.plans.SynthesisPlan`
per candidate and scores it with scalar loops, where
``JointScheduler.choose`` scores memoized closed-form footprints with
numpy. The two must agree decision for decision — pinned by
``tests/test_decide_fastpath.py`` and ``tests/test_scheduler.py``, and
raced for speed by ``benchmarks/bench_decide_micro.py``.

Not a ``test_*`` module, so pytest imports it only where a test or
benchmark asks for it.
"""

from __future__ import annotations

from repro.config.knobs import RAGConfig
from repro.config.space import PrunedSpace
from repro.core.policy import SchedulingView
from repro.core.scheduler import JointDecision, JointScheduler
from repro.synthesis import make_synthesizer
from repro.synthesis.footprint import PlanFootprint
from repro.synthesis.plans import SynthesisPlan

__all__ = ["choose_reference", "estimate_plan"]


def estimate_plan(config: RAGConfig, view: SchedulingView) -> SynthesisPlan:
    """The synthesis plan ``config`` would produce for ``view``'s query
    shape: uniform nominal-size chunks, as the pipeline sizes them."""
    synthesizer = make_synthesizer(config.synthesis_method)
    return synthesizer.build_plan(
        query_id="est",
        query_tokens=view.query_tokens,
        chunk_tokens=[view.chunk_tokens] * config.num_chunks,
        answer_tokens=view.answer_tokens,
        config=config,
    )


def _fits(scheduler: JointScheduler, tokens: int,
          view: SchedulingView) -> bool:
    """Whether ``tokens`` of KV, plus the scheduler's buffer, fit in
    the view's available memory (``choose``'s association order)."""
    need = (
        tokens
        * view.kv_bytes_per_token
        * (1.0 + scheduler.memory_buffer_frac)
    )
    return need <= view.available_kv_bytes


def choose_reference(scheduler: JointScheduler, pruned: PrunedSpace,
                     view: SchedulingView) -> JointDecision:
    """What ``scheduler.choose(pruned, view)`` must return, computed the
    slow way: whole-plan fit first (max cost, or the quality-SLO gated
    min cost), then unit fit (min cost), then the fallback config."""
    candidates = [
        (config, estimate_plan(config, view))
        for config in pruned.enumerate()
    ]
    n_candidates = len(candidates)

    best: tuple[int, RAGConfig, SynthesisPlan] | None = None
    n_fitting = 0
    if scheduler.quality_slo is not None:
        # Quality-SLO mode, mirroring ``choose``: min cost among
        # whole-fit candidates at/above the gated num_chunks floor,
        # degrading to plain min cost when the gate is empty. Keep
        # the earliest strict winner, like argmin.
        floor = scheduler._chunk_floor(pruned)
        gated_best: tuple[int, RAGConfig, SynthesisPlan] | None = None
        for config, plan in candidates:
            if not _fits(scheduler, plan.cost_tokens, view):
                continue
            n_fitting += 1
            if best is None or plan.cost_tokens < best[0]:
                best = (plan.cost_tokens, config, plan)
            if config.num_chunks >= floor and (
                    gated_best is None
                    or plan.cost_tokens < gated_best[0]):
                gated_best = (plan.cost_tokens, config, plan)
        if gated_best is not None:
            best = gated_best
    else:
        for config, plan in candidates:
            if not _fits(scheduler, plan.cost_tokens, view):
                continue
            n_fitting += 1
            if best is None or plan.cost_tokens > best[0]:
                best = (plan.cost_tokens, config, plan)

    if best is None:
        for config, plan in candidates:
            if not _fits(scheduler, plan.fit_tokens, view):
                continue
            n_fitting += 1
            if best is None or plan.cost_tokens < best[0]:
                best = (plan.cost_tokens, config, plan)

    if best is not None:
        _, config, plan = best
        return JointDecision(
            config=config,
            footprint=PlanFootprint.from_plan(plan),
            fell_back=False,
            n_candidates=n_candidates,
            n_fitting=n_fitting,
        )
    config = scheduler._fallback_config(pruned, view)
    return JointDecision(
        config=config,
        footprint=PlanFootprint.from_plan(estimate_plan(config, view)),
        fell_back=True,
        n_candidates=n_candidates,
        n_fitting=0,
    )
