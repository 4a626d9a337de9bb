"""Deadline-aware speculative scheduling policies for the cluster.

METIS's serving story is meeting per-query SLOs under load; once
replicas became independent event sources with heterogeneous speeds
(PR 3), the classic tail-latency tool becomes expressible: *hedge* an
at-risk query by arming a duplicate on a second replica and letting
the first completion win. This module holds the **policy** side of
that tradeoff — when to arm a hedge and where to place it. The
**mechanism** (duplicate lanes, first-completion-wins, cancellation of
the loser through :meth:`~repro.sim.kernel.EventLoop.cancel`,
:meth:`~repro.sim.resource.Resource.cancel`, and
:meth:`~repro.serving.engine.ServingEngine.cancel`) lives in the query
pipeline (:mod:`repro.evaluation.pipeline`); cost attribution lands in
the ledger's ``speculation`` column
(:class:`~repro.evaluation.costs.CostLedger`). See
``docs/SPECULATION.md``.

Three policies, selected by name (CLI ``--speculation``):

* ``none`` — never hedge. The pipeline takes the exact pre-speculation
  event schedule (byte-identical golden traces).
* ``hedge-after-delay`` — arm a duplicate if the query is still
  running ``hedge_delay`` seconds after arrival (the classic
  tail-at-scale hedge: no model, just a timer).
* ``deadline-risk`` — estimate the primary replica's completion time
  from the profiler-estimated synthesis plan plus the replica's
  current queue depth and speed
  (:attr:`~repro.core.policy.ClusterSchedulingView.replica_outstanding`
  / ``replica_speeds``); if the SLO deadline looks unreachable, arm
  the hedge at the *last* moment the fastest alternative could still
  make the deadline — queries that are safe never pay for a duplicate.

All policies are deterministic pure functions of their context: the
same run replays the same hedges, byte for byte.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

from repro.util.validation import check_positive

__all__ = [
    "HedgeContext",
    "SpeculationPolicy",
    "NoSpeculation",
    "HedgeAfterDelay",
    "DeadlineRisk",
    "SPECULATION_NAMES",
    "estimate_plan_seconds",
    "make_speculation",
]


def estimate_plan_seconds(plan, cost) -> float:
    """Uncontended service-time estimate for a synthesis plan.

    Per call: :meth:`~repro.llm.costs.RooflineCostModel.request_seconds`
    (the same pricing rule feedback runs and wasted speculative work
    are charged at, so arming estimates agree with the bill). Calls
    within a stage run concurrently (stage time = slowest call);
    stages are sequential. A speed-``s`` replica serves it in
    ``estimate / s`` seconds.
    """
    total = 0.0
    for stage in range(plan.n_stages):
        stage_seconds = 0.0
        for call in plan.stage_calls(stage):
            seconds = cost.request_seconds(call.prompt_tokens,
                                           call.output_tokens)
            stage_seconds = max(stage_seconds, seconds)
        total += stage_seconds
    return total


@dataclass(frozen=True)
class HedgeContext:
    """Everything a speculation policy may consult at decision time.

    Built by the pipeline's decide stage, after the configuration is
    committed (so the plan estimate prices the *actual* chosen config)
    and after routing (so ``primary`` is the replica the query's calls
    will land on).
    """

    arrival_time: float
    decision_time: float
    #: ``arrival_time + slo_seconds``; ``None`` when no SLO is set.
    deadline: float | None
    #: Uncontended service seconds of the chosen plan at speed 1.0.
    est_service_seconds: float
    #: Replica the primary lane is pinned to.
    primary: int
    #: Per-replica outstanding-request counts at decision time.
    replica_outstanding: tuple[int, ...]
    #: Per-replica speed multipliers (empty = homogeneous 1.0x).
    replica_speeds: tuple[float, ...]

    def speed(self, replica: int) -> float:
        if replica < len(self.replica_speeds):
            return self.replica_speeds[replica]
        return 1.0

    @property
    def n_replicas(self) -> int:
        return max(len(self.replica_outstanding),
                   len(self.replica_speeds), 1)


class SpeculationPolicy(ABC):
    """Decides *when* a query's duplicate is armed and *where* it goes."""

    name: str = "base"
    #: Whether :meth:`hedge_time` reads ``est_service_seconds`` — the
    #: pipeline skips the per-query plan estimate for policies that
    #: don't (pure timers), so they cost nothing at decide time.
    needs_estimate: bool = True

    @abstractmethod
    def hedge_time(self, ctx: HedgeContext) -> float | None:
        """Absolute simulated time to arm the hedge; ``None`` = never."""

    def choose_replica(self, outstanding: tuple[int, ...],
                       speeds: tuple[float, ...],
                       primary: int,
                       eligible: Sequence[int] | None = None) -> int | None:
        """Place the duplicate on the fastest under-loaded replica.

        Called at *arm* time with fresh cluster state (queue depths
        move between decision and arming). Minimises speed-normalised
        queue depth, preferring raw speed then the lowest index on
        ties; the primary is excluded. ``eligible`` restricts the pool
        (elastic clusters pass their active replicas so a hedge never
        lands on a draining or retired one); ``None`` means every
        replica, which is byte-identical to the pre-elastic behaviour.
        ``None`` is returned when no other replica is eligible (bare
        engine / single-replica cluster / everything else draining) —
        the hedge is skipped, never self-duplicated.
        """
        n = len(outstanding)
        pool = range(n) if eligible is None else eligible
        candidates = [i for i in pool if i != primary]
        if not candidates:
            return None

        def speed(i: int) -> float:
            return speeds[i] if i < len(speeds) else 1.0

        return min(candidates,
                   key=lambda i: (outstanding[i] / speed(i), -speed(i), i))


class NoSpeculation(SpeculationPolicy):
    """Never hedge (the byte-identical default)."""

    name = "none"

    def hedge_time(self, ctx: HedgeContext) -> float | None:
        return None


class HedgeAfterDelay(SpeculationPolicy):
    """Duplicate any query still unfinished ``delay`` seconds after
    arrival (Dean & Barroso's tail-at-scale hedge). Deadline-blind:
    the timer fires whether or not an SLO is configured."""

    name = "hedge-after-delay"
    needs_estimate = False  # a pure timer: no plan estimate consulted

    def __init__(self, delay: float) -> None:
        check_positive("hedge_delay", delay)
        self.delay = float(delay)

    def hedge_time(self, ctx: HedgeContext) -> float | None:
        # Never before the decision: there is no plan to duplicate yet.
        return max(ctx.decision_time, ctx.arrival_time + self.delay)


class DeadlineRisk(SpeculationPolicy):
    """Hedge only queries whose SLO deadline looks unreachable.

    Completion estimate for the primary: each outstanding request
    ahead of the query costs roughly one plan-service-time, so::

        est_finish = decision_time
                   + (1 + outstanding[primary]) * est / speed[primary]

    If ``est_finish + margin`` beats the deadline the query is safe —
    no hedge, no wasted work. Otherwise the hedge is armed at the last
    instant the fastest *other* replica could still serve the plan by
    the deadline (clamped to the decision time when that moment has
    already passed): late arming gives the primary every chance to
    win unaided, bounding duplicate cost.

    ``margin_frac`` scales both the safety margin and the arming
    headroom by the plan's service estimate.
    """

    name = "deadline-risk"

    def __init__(self, margin_frac: float = 0.25) -> None:
        check_positive("margin_frac", margin_frac)
        self.margin_frac = float(margin_frac)

    def hedge_time(self, ctx: HedgeContext) -> float | None:
        if ctx.deadline is None:
            return None
        est = ctx.est_service_seconds
        margin = self.margin_frac * est
        primary_speed = ctx.speed(ctx.primary)
        queued_ahead = 0
        if ctx.primary < len(ctx.replica_outstanding):
            queued_ahead = ctx.replica_outstanding[ctx.primary]
        est_finish = (ctx.decision_time
                      + (1 + queued_ahead) * est / primary_speed)
        if est_finish + margin <= ctx.deadline:
            return None
        best_alt_speed = max(
            (ctx.speed(i) for i in range(ctx.n_replicas)
             if i != ctx.primary),
            default=primary_speed,
        )
        arm_at = ctx.deadline - est / best_alt_speed - margin
        return max(ctx.decision_time, arm_at)


#: Names accepted by :func:`make_speculation` (and ``--speculation``).
SPECULATION_NAMES: tuple[str, ...] = ("none", "hedge-after-delay",
                                      "deadline-risk")

#: Default hedge timer when ``hedge-after-delay`` is selected without
#: an explicit ``--hedge-delay`` and an SLO is configured: hedge when
#: half the SLO budget is gone.
_DEFAULT_DELAY_SLO_FRAC = 0.5


def make_speculation(
    name: str | SpeculationPolicy | None,
    hedge_delay: float | None = None,
    slo_seconds: float | None = None,
) -> SpeculationPolicy | None:
    """Instantiate a speculation policy by CLI name.

    Returns ``None`` for ``"none"``/``None`` (the pipeline then skips
    every speculation code path — the byte-identical default).
    ``hedge-after-delay`` needs ``hedge_delay`` (or an SLO to derive
    one from); ``deadline-risk`` needs ``slo_seconds``. Misuse fails
    fast with the offending combination.
    """
    if hedge_delay is not None and name != "hedge-after-delay":
        # Uniform for strings, None, and policy instances (an instance
        # already carries its own timer): a timer the selected policy
        # would never read is a misconfiguration, not a no-op.
        raise ValueError(
            f"hedge_delay only applies to 'hedge-after-delay'; "
            f"speculation {name or 'none'!r} would silently ignore "
            f"hedge_delay={hedge_delay}"
        )
    if name is None or isinstance(name, SpeculationPolicy):
        return name if not isinstance(name, NoSpeculation) else None
    if name == "none":
        return None
    if name == "hedge-after-delay":
        if hedge_delay is None:
            if slo_seconds is None:
                raise ValueError(
                    "speculation 'hedge-after-delay' needs --hedge-delay "
                    "(or --slo-seconds to derive the default "
                    f"{_DEFAULT_DELAY_SLO_FRAC:g}*SLO timer from)"
                )
            hedge_delay = _DEFAULT_DELAY_SLO_FRAC * float(slo_seconds)
        return HedgeAfterDelay(hedge_delay)
    if name == "deadline-risk":
        if slo_seconds is None:
            raise ValueError(
                "speculation 'deadline-risk' needs --slo-seconds: its "
                "whole signal is the per-query deadline"
            )
        return DeadlineRisk()
    known = ", ".join(SPECULATION_NAMES)
    raise ValueError(f"unknown speculation policy {name!r}; known: {known}")
