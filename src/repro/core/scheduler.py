"""Joint configuration/scheduling decision (§4.3).

Within the pruned space the quality is uniformly high, so the scheduler
optimises purely for the resource fit:

* enumerate the pruned configurations and size their synthesis plans;
* keep those whose minimum resident footprint (largest single LLM call,
  +2% buffer) fits in currently available KV memory;
* pick the *most expensive* fitting configuration (highest total KV
  footprint) — richer configurations sit at the quality ceiling of the
  pruned space;
* if nothing fits, fall back to a cheap configuration just outside the
  range: ``map_rerank`` (no joint reasoning needed) or ``stuff`` (joint
  needed) with as many chunks as fit.

**Fast path.** Sizing a candidate only ever reads two integers of its
uniform-chunk :class:`~repro.synthesis.plans.SynthesisPlan`
(``cost_tokens`` and ``fit_tokens``), so :meth:`JointScheduler.choose`
scores the pruned grid as numpy arrays over the candidate axis. Grids
are memoized per ``(pruned space, query shape)`` and hold the scores
only: ``(configs, cost, fit, chunks)``. A grid miss builds each
candidate's plan with :func:`~repro.synthesis.uniform_plan`, reads the
two integers and drops it, so no memo keeps a plan per candidate.
Query shapes cluster heavily across a trace, so most decisions reduce
to two array comparisons and an argmax. A :class:`JointDecision`
carries no plan either; the one reader of the chosen config's plan,
deadline-risk hedge pricing, asks
:meth:`~repro.core.policy.SchedulingView.footprint` for it.

Decisions are byte-identical to the scalar reference chooser
(``tests/decide_reference.py``, raced against this one by the
equivalence suite and ``benchmarks/bench_decide_micro.py``): the float
expressions keep the exact same association order, token counts
convert to float64 exactly (far below 2^53), and ``argmax``/``argmin``
return the *first* extremum just as the reference loops keep the
earliest strict winner.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.config.knobs import RAGConfig, SynthesisMethod
from repro.config.space import PrunedSpace
from repro.core.policy import SchedulingView
from repro.synthesis import uniform_plan

__all__ = ["JointDecision", "JointScheduler", "MEMORY_BUFFER_FRAC"]

#: Head-room on every fit test: a configuration fits when its KV
#: footprint times ``1.0 + MEMORY_BUFFER_FRAC`` fits (§4.3's 2%).
MEMORY_BUFFER_FRAC = 0.02


@dataclass(frozen=True)
class JointDecision:
    """The scheduler's pick plus search diagnostics."""

    config: RAGConfig
    fell_back: bool
    n_candidates: int
    n_fitting: int


@lru_cache(maxsize=4096)
def _scored_grid(
    pruned: PrunedSpace, query_tokens: int, chunk_tokens: int,
    answer_tokens: int,
) -> tuple[tuple[RAGConfig, ...], np.ndarray, np.ndarray, np.ndarray]:
    """Candidate configs and score arrays for one query shape.

    The arrays hold ``cost_tokens`` / ``fit_tokens`` / ``num_chunks``
    per candidate in enumeration order (float64 is exact for any
    realistic token count). Each plan is dropped once read. Hashable
    key: PrunedSpace is a frozen dataclass of ints and method tuples.
    """
    configs = tuple(pruned.enumerate())
    cost = np.empty(len(configs), dtype=np.float64)
    fit = np.empty(len(configs), dtype=np.float64)
    for i, config in enumerate(configs):
        plan = uniform_plan(config, query_tokens, chunk_tokens,
                            answer_tokens)
        cost[i] = plan.cost_tokens
        fit[i] = plan.fit_tokens
    chunks = np.array([c.num_chunks for c in configs], dtype=np.int64)
    return configs, cost, fit, chunks


class JointScheduler:
    """Best-fit configuration selection against live GPU memory.

    ``quality_slo`` (a :class:`~repro.evaluation.metrics.QualitySLO`,
    a ``metric>=value`` spec string, or ``None``) switches the
    whole-fit pick from the quality-ceiling argmax to *threshold-gated
    min cost* ("faithfulness >= 0.8 at min cost",
    ``docs/EVALUATION.md``): quality above the threshold earns
    nothing, so the scheduler should spend the minimum that still
    clears the bar. The scheduler has no per-query quality predictor,
    so the gate maps the SLO threshold linearly onto the pruned
    ``num_chunks`` range — the quality-bearing knob of the space — as
    a floor (threshold 0 → cheapest candidate, threshold 1 → the full
    range, i.e. the historical pick), then takes the cheapest fitting
    candidate at or above the floor. If memory pressure empties the
    gated set, any fitting candidate beats queueing and the pick
    degrades to plain min cost. Actual attainment is measured post
    hoc by :func:`repro.evaluation.slo.evaluate_quality_slo`. The
    default (``None``) keeps the historical quality-ceiling pick and
    the byte-identical schedule.
    """

    def __init__(self, quality_slo=None) -> None:
        if isinstance(quality_slo, str):
            from repro.evaluation.metrics import QualitySLO

            quality_slo = QualitySLO.parse(quality_slo)
        self.quality_slo = quality_slo

    # ------------------------------------------------------------------
    def choose(self, pruned: PrunedSpace, view: SchedulingView) -> JointDecision:
        """Pick the most expensive configuration that fits right now.

        Two fit granularities, tried in order:

        1. **Whole-plan fit** — the config's total KV footprint fits in
           available memory. This is the normal path; under load it
           naturally throttles ``num_chunks`` to what the GPU can
           absorb without queueing.
        2. **Unit fit** — only the largest single call needs to fit.
           This is the paper's Fig 8 situation: a ``stuff`` prompt is
           too big, but ``map_reduce`` mappers are individually small
           and can stream through the batch one after another.
        """
        configs, cost, fit, chunks = _scored_grid(
            pruned, view.query_tokens, view.chunk_tokens,
            view.answer_tokens,
        )
        n_candidates = len(configs)
        kv = view.kv_bytes_per_token
        buffered = 1.0 + MEMORY_BUFFER_FRAC
        available = view.available_kv_bytes

        # Same association order as the scalar expression
        # ``cost_tokens * kv_bytes_per_token * (1.0 + buffer_frac)``.
        whole = (cost * kv) * buffered <= available
        n_fitting = int(np.count_nonzero(whole))
        if n_fitting:
            if self.quality_slo is not None:
                # Quality-SLO mode: cheapest fitting candidate at or
                # above the gated num_chunks floor; plain min cost if
                # memory pressure emptied the gate (docs/EVALUATION.md).
                gated = whole & (chunks >= self._chunk_floor(pruned))
                eligible = gated if gated.any() else whole
                best = int(np.argmin(np.where(eligible, cost, np.inf)))
            else:
                # First index of the max cost among fitting candidates
                # — identical to keeping the earliest strict ``>``
                # winner.
                best = int(np.argmax(np.where(whole, cost, -1.0)))
            return JointDecision(
                config=configs[best],
                fell_back=False,
                n_candidates=n_candidates,
                n_fitting=n_fitting,
            )

        # Fig 8 pass: accept plans whose schedulable unit fits. Prefer
        # the *smallest* unit-fit plan: memory is scarce, so commit to
        # the least total work among the configurations that can still
        # make progress.
        unit = (fit * kv) * buffered <= available
        n_fitting = int(np.count_nonzero(unit))
        if n_fitting:
            best = int(np.argmin(np.where(unit, cost, np.inf)))
            return JointDecision(
                config=configs[best],
                fell_back=False,
                n_candidates=n_candidates,
                n_fitting=n_fitting,
            )

        return JointDecision(
            config=self._fallback_config(pruned, view),
            fell_back=True,
            n_candidates=n_candidates,
            n_fitting=0,
        )

    # ------------------------------------------------------------------
    def _chunk_floor(self, pruned: PrunedSpace) -> int:
        """Gated ``num_chunks`` floor for the active quality SLO.

        ``lo + ceil(threshold * (hi - lo))`` over the pruned range —
        the linear threshold→knob mapping described in the class
        docstring. ``ceil`` keeps the gate conservative: any fractional
        requirement rounds toward more context, never less.
        """
        lo, hi = pruned.num_chunks_range
        span = max(0, hi - lo)
        return lo + int(np.ceil(self.quality_slo.threshold * span))

    # ------------------------------------------------------------------
    def _fallback_config(self, pruned: PrunedSpace,
                         view: SchedulingView) -> RAGConfig:
        """Cheap fitting configuration outside the pruned range (§4.3).

        ``map_rerank`` when the profile says no joint reasoning is
        needed, else ``stuff``; in both cases with as many chunks as
        fit into available memory (at least one — a single-chunk
        request may still have to queue briefly, which is the best any
        system can do).
        """
        joint = SynthesisMethod.MAP_RERANK not in pruned.methods
        lo, hi = pruned.num_chunks_range
        budget_tokens = view.available_kv_bytes / (
            view.kv_bytes_per_token * (1.0 + MEMORY_BUFFER_FRAC)
        )
        per_chunk = view.chunk_tokens
        fixed = view.query_tokens + view.answer_tokens + 48  # template slack
        if joint:
            # One stuff call: fixed + k * chunk must fit.
            k = int((budget_tokens - fixed) // per_chunk)
            method = SynthesisMethod.STUFF
        else:
            # k map_rerank calls, each fixed + chunk tokens.
            per_call = fixed + per_chunk
            k = int(budget_tokens // per_call)
            method = SynthesisMethod.MAP_RERANK
        # The fallback must still "meet the requirement for the current
        # query" (§4.3): never drop below the profile's pieces estimate
        # (the pruned range's lower bound), even if that means brief
        # queueing under a memory burst.
        k = max(min(lo, hi), min(k, hi))
        return RAGConfig(method, k)

