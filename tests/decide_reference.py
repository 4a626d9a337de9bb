"""Scalar reference for ``JointScheduler.choose``.

The oracle the fast path is raced against. Per candidate it builds the
synthesis plan over uniform nominal-size chunks, expands it into one
``(prompt, output)`` pair per LLM call, and computes ``cost_tokens``
and ``fit_tokens`` with its own scalar loops, where
``JointScheduler.choose`` scores the plans' scalar footprints, memoized
per query shape, with numpy. The two must agree decision for decision — pinned by
``tests/test_decide_fastpath.py`` and ``tests/test_scheduler.py``, and
raced for speed by ``benchmarks/bench_decide_micro.py``.

Not a ``test_*`` module, so pytest imports it only where a test or
benchmark asks for it.
"""

from __future__ import annotations

from repro.config.knobs import RAGConfig
from repro.config.space import PrunedSpace
from repro.core.policy import SchedulingView
from repro.core.scheduler import (
    MEMORY_BUFFER_FRAC,
    JointDecision,
    JointScheduler,
)
from repro.synthesis import SynthesisPlan, make_synthesizer

__all__ = ["choose_reference", "estimate_plan"]


def estimate_plan(config: RAGConfig, view: SchedulingView) -> SynthesisPlan:
    """The synthesis plan ``config`` would produce for ``view``'s query
    shape: uniform nominal-size chunks, as the pipeline sizes them."""
    synthesizer = make_synthesizer(config.synthesis_method)
    return synthesizer.build_plan(
        query_tokens=view.query_tokens,
        chunk_tokens=[view.chunk_tokens] * config.num_chunks,
        answer_tokens=view.answer_tokens,
        config=config,
    )


def _cost_and_fit(plan: SynthesisPlan) -> tuple[int, int]:
    """``(cost_tokens, fit_tokens)`` summed call by call over the
    plan's expansion, without its precomputed scalars."""
    cost = 0
    fit = 0
    for groups in plan.stages:
        for prompt, output, n in groups:
            for _ in range(n):
                cost += prompt + output
                fit = max(fit, prompt + output)
    return cost, fit


def _fits(tokens: int, view: SchedulingView) -> bool:
    """Whether ``tokens`` of KV, plus the scheduler's buffer, fit in
    the view's available memory (``choose``'s association order)."""
    need = (
        tokens
        * view.kv_bytes_per_token
        * (1.0 + MEMORY_BUFFER_FRAC)
    )
    return need <= view.available_kv_bytes


def choose_reference(scheduler: JointScheduler, pruned: PrunedSpace,
                     view: SchedulingView) -> JointDecision:
    """What ``scheduler.choose(pruned, view)`` must return, computed the
    slow way: whole-plan fit first (max cost, or the quality-SLO gated
    min cost), then unit fit (min cost), then the fallback config."""
    candidates = [(config, *_cost_and_fit(estimate_plan(config, view)))
                  for config in pruned.enumerate()]
    n_candidates = len(candidates)

    best: tuple[int, RAGConfig] | None = None
    n_fitting = 0
    if scheduler.quality_slo is not None:
        # Quality-SLO mode, mirroring ``choose``: min cost among
        # whole-fit candidates at/above the gated num_chunks floor,
        # degrading to plain min cost when the gate is empty. Keep
        # the earliest strict winner, like argmin.
        floor = scheduler._chunk_floor(pruned)
        gated_best: tuple[int, RAGConfig] | None = None
        for config, cost, _fit in candidates:
            if not _fits(cost, view):
                continue
            n_fitting += 1
            if best is None or cost < best[0]:
                best = (cost, config)
            if config.num_chunks >= floor and (
                    gated_best is None or cost < gated_best[0]):
                gated_best = (cost, config)
        if gated_best is not None:
            best = gated_best
    else:
        for config, cost, _fit in candidates:
            if not _fits(cost, view):
                continue
            n_fitting += 1
            if best is None or cost > best[0]:
                best = (cost, config)

    if best is None:
        for config, cost, fit in candidates:
            if not _fits(fit, view):
                continue
            n_fitting += 1
            if best is None or cost < best[0]:
                best = (cost, config)

    if best is not None:
        return JointDecision(
            config=best[1],
            fell_back=False,
            n_candidates=n_candidates,
            n_fitting=n_fitting,
        )
    return JointDecision(
        config=scheduler._fallback_config(pruned, view),
        fell_back=True,
        n_candidates=n_candidates,
        n_fitting=0,
    )
