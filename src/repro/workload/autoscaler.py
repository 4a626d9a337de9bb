"""Elastic capacity: an autoscaler running as first-class sim events.

The :class:`Autoscaler` watches a
:class:`~repro.serving.cluster.ClusterEngine` from periodic
``autoscale:tick`` events on the shared
:class:`~repro.sim.kernel.EventLoop` and adjusts the fleet:

* **scale up** — schedule an ``autoscale:provision`` event
  ``provision_delay_s`` in the future; the replica joins the fleet
  (clocked at the provision time) only when it fires, modelling
  instance boot + model load. A draining replica is *reactivated*
  first when one exists — undoing an in-progress retirement is free
  and instant.
* **scale down** — ``begin_drain`` the least-loaded active replica:
  it stops receiving new work but finishes (and may still be hedged
  onto by in-flight pins) what it holds; a later tick retires it once
  its last request, KV reservation, and app pin are gone
  (drain-before-retire — capacity is never yanked from under work).

Tick and provision events are scheduled with ``source=self``, so the
kernel dispatches them without advancing the attached engines'
clocks: an autoscaler that never changes the fleet is **observation-
ally neutral** — the serving schedule is byte-identical to a run
without it (pinned by ``tests/test_autoscaler.py``), and
``--autoscaler none`` doesn't even schedule the ticks.

Decisions are delegated to a :class:`ScalingPolicy`, a pure function
of the :class:`ScalingSignals` snapshot:

* :class:`ReactivePolicy` — classic threshold rule on queue depth per
  active replica, guarded by the sliding-window SLO attainment.
* :class:`ForecastPolicy` — a BRAD-style planner: score every
  candidate fleet size in ``[scale_min, scale_max]`` against the
  workload's next-period rate (provisioning lead time included in the
  lookahead) using an M/M/1-flavoured latency penalty, and pick the
  cheapest fleet whose score wins. Requires the run's declared
  :class:`~repro.workload.trace.Workload` (the trace is the forecast).

Everything is deterministic: policies hold no RNG, signals derive from
the engine and the (already-deterministic) record stream, and events
follow the kernel's stable ``(time, rank, seq)`` order.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.util.validation import check_count, check_positive

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.cluster import ClusterEngine
    from repro.sim import EventLoop
    from repro.workload.trace import Workload

__all__ = [
    "ScalingSignals",
    "ScalingEvent",
    "ScalingPolicy",
    "ReactivePolicy",
    "ForecastPolicy",
    "EwmaForecastPolicy",
    "Autoscaler",
    "AUTOSCALER_NAMES",
    "make_scaling_policy",
]


@dataclass(frozen=True)
class ScalingSignals:
    """Everything a scaling policy may consult at one tick."""

    time: float
    #: Replicas currently accepting new work.
    n_active: int
    #: Scale-ups requested but not yet provisioned.
    n_provisioning: int
    #: Replicas draining toward retirement.
    n_draining: int
    #: Mean outstanding requests per active replica (queue depth).
    outstanding_per_active: float
    #: SLO attainment over the sliding window (``None``: no completed
    #: queries in the window, or no SLO configured).
    window_slo_attainment: float | None
    #: Workload rate ``interval + provision_delay`` ahead (``None``
    #: when the run has no declared workload trace).
    forecast_rate_qps: float | None
    #: Observed mean GPU-service seconds per completed query at speed
    #: 1.0 (``None`` before the first completion).
    est_service_seconds: float | None
    scale_min: int
    scale_max: int


@dataclass(frozen=True)
class ScalingEvent:
    """One fleet change, for reports and regression pins.

    Actions: ``provision`` (scale-up requested), ``add`` (the replica
    joined after the provisioning delay), ``cancel-provision``,
    ``drain``, ``cancel-drain`` (reactivated), ``retire``.
    """

    time: float
    action: str
    replica: int
    #: Active replicas *after* the change took effect.
    n_active: int


class ScalingPolicy(ABC):
    """Maps a signals snapshot to a desired provisioned-fleet size.

    ``desired_fleet`` returns the target number of *provisioned*
    replicas (active + in-flight provisions); the autoscaler clamps it
    to ``[scale_min, scale_max]`` and mechanises the difference.
    Policies must be pure: no internal state, no RNG.
    """

    name: str = "base"

    @abstractmethod
    def desired_fleet(self, signals: ScalingSignals) -> int:
        """Target provisioned-fleet size for this tick."""


class ReactivePolicy(ScalingPolicy):
    """Threshold rule on queue depth, guarded by window attainment.

    Scale up by one when the mean queue per active replica exceeds
    ``up_threshold`` (4.0) **or** the sliding-window SLO attainment
    falls below ``slo_floor`` (0.9); scale down by one when the queue
    is below ``down_threshold`` (1.0) *and* the window attainment (when
    observable) is healthy. Single-step moves plus the provisioning delay give the
    classic reactive lag the forecast planner exists to beat.
    """

    name = "reactive"
    up_threshold = 4.0
    down_threshold = 1.0
    slo_floor = 0.9

    def desired_fleet(self, signals: ScalingSignals) -> int:
        provisioned = signals.n_active + signals.n_provisioning
        attainment = signals.window_slo_attainment
        slo_unhealthy = attainment is not None and attainment < self.slo_floor
        if signals.outstanding_per_active > self.up_threshold or slo_unhealthy:
            return provisioned + 1
        if (signals.outstanding_per_active < self.down_threshold
                and not slo_unhealthy):
            return provisioned - 1
        return provisioned


class ForecastPolicy(ScalingPolicy):
    """BRAD-style planner: score candidate fleets against the forecast.

    For each candidate size ``n`` in ``[scale_min, scale_max]``::

        util(n)  = forecast_rate * service_seconds / n
        score(n) = n + latency_weight * util / (1 - util)

    with ``latency_weight`` 2.0: provisioned cost grows linearly in
    ``n``, expected queueing (the M/M/1 factor) explodes as utilization
    approaches 1, and the cheapest fleet whose combined score wins is
    chosen (ties go to the smaller fleet). Infeasible candidates (``util >= 1``) score as the
    backlog they would accumulate over the next period, so when even
    ``scale_max`` is infeasible the largest fleet still wins.

    ``service_seconds`` is the *observed* mean GPU time per completed
    query (``default_service_s``, 0.6 s, before the first completion)
    — the planner calibrates its capacity model from the run itself. With no
    workload trace to forecast from, the current fleet is kept.
    """

    name = "forecast"
    latency_weight = 2.0
    default_service_s = 0.6

    def desired_fleet(self, signals: ScalingSignals) -> int:
        rate = signals.forecast_rate_qps
        if rate is None:
            return signals.n_active + signals.n_provisioning
        service = signals.est_service_seconds or self.default_service_s
        demand = rate * service  # GPU-seconds per second = fleet-fraction
        best_n, best_score = signals.scale_min, float("inf")
        for n in range(signals.scale_min, signals.scale_max + 1):
            util = demand / n
            if util >= 1.0:
                penalty = 1e6 * util  # backlog grows without bound
            else:
                penalty = util / (1.0 - util)
            score = n + self.latency_weight * penalty
            if score < best_score:
                best_n, best_score = n, score
        return best_n


class EwmaForecastPolicy(ForecastPolicy):
    """The forecast planner fed an EWMA-smoothed rate signal.

    Identical fleet-scoring to :class:`ForecastPolicy`; the difference
    is upstream — the autoscaler recognises ``smoothing_alpha`` and
    fills :attr:`ScalingSignals.forecast_rate_qps` with
    :meth:`Workload.ewma_rate` at the lookahead time instead of the raw
    period rate. On an MMPP-bursty trace the raw next-period rate
    whipsaws between the calm and burst levels, and the planner with it
    (provision, cancel, provision ...); the EWMA remembers recent
    history, so single-period spikes are damped and the fleet makes
    strictly fewer moves (pinned by ``tests/test_autoscaler.py``).
    """

    name = "forecast-ewma"
    smoothing_alpha = 0.3


#: Autoscaler names accepted by :func:`make_scaling_policy` (and
#: ``--autoscaler``).
AUTOSCALER_NAMES: tuple[str, ...] = ("none", "reactive", "forecast",
                                     "forecast-ewma")


def make_scaling_policy(
    name: str | ScalingPolicy | None,
) -> ScalingPolicy | None:
    """Instantiate a scaling policy by CLI name (``None``/"none" off)."""
    if name is None or isinstance(name, ScalingPolicy):
        return name
    if name == "none":
        return None
    if name == "reactive":
        return ReactivePolicy()
    if name == "forecast":
        return ForecastPolicy()
    if name == "forecast-ewma":
        return EwmaForecastPolicy()
    known = ", ".join(AUTOSCALER_NAMES)
    raise ValueError(f"unknown autoscaler {name!r}; known: {known}")


class Autoscaler:
    """Mechanises a :class:`ScalingPolicy` over a cluster on the loop.

    One instance drives one run: :meth:`start` schedules the first
    tick and the autoscaler then re-schedules itself while the trace
    has periods left, the engine has work, provisions are in flight,
    or a replica is still draining — so the loop always drains and the
    last drained replica is always retired.
    """

    def __init__(
        self,
        policy: ScalingPolicy,
        scale_min: int = 1,
        scale_max: int = 4,
        interval_s: float = 15.0,
        provision_delay_s: float = 30.0,
        window_s: float | None = None,
        workload: "Workload | None" = None,
        cooldown_s: float | None = None,
        down_debounce: int = 2,
    ) -> None:
        if policy is None:
            raise ValueError(
                "Autoscaler requires a ScalingPolicy; use autoscaler="
                "'none' (no Autoscaler at all) to disable scaling"
            )
        self.policy = policy
        self.scale_min = check_count("scale_min", scale_min, minimum=1)
        self.scale_max = check_count("scale_max", scale_max, minimum=1)
        if self.scale_max < self.scale_min:
            raise ValueError(
                f"scale_max must be >= scale_min, got scale_max="
                f"{self.scale_max} < scale_min={self.scale_min}"
            )
        check_positive("autoscale_interval", interval_s)
        check_positive("provision_delay", provision_delay_s)
        self.interval_s = float(interval_s)
        self.provision_delay_s = float(provision_delay_s)
        self.window_s = (float(window_s) if window_s is not None
                         else 4.0 * self.interval_s)
        check_positive("window_s", self.window_s)
        # Anti-flapping hysteresis: no new scaling action within
        # ``cooldown_s`` of the previous one (default two ticks), and
        # a scale-down additionally requires ``down_debounce``
        # *consecutive* ticks wanting it — sparse traces whose queue
        # hovers around the thresholds stop oscillating
        # provision/cancel every tick. ``cooldown_s=0.0`` and
        # ``down_debounce=1`` restore the un-damped behavior.
        self.cooldown_s = (float(cooldown_s) if cooldown_s is not None
                           else 2.0 * self.interval_s)
        if self.cooldown_s < 0:
            raise ValueError(
                f"cooldown_s must be >= 0, got {self.cooldown_s}")
        self.down_debounce = check_count("down_debounce", down_debounce,
                                         minimum=1)
        self.workload = workload
        #: Chronological fleet changes (see :class:`ScalingEvent`).
        self.events: list[ScalingEvent] = []
        self._engine: "ClusterEngine | None" = None
        self._loop: "EventLoop | None" = None
        self._records = None
        self._horizon = 0.0
        self._pending_provisions: list = []  # pending provision Events
        self._last_action_time = float("-inf")
        self._down_streak = 0  # consecutive ticks wanting a scale-down

    # ------------------------------------------------------------------
    def start(self, loop: "EventLoop", engine: "ClusterEngine",
              horizon: float, records, slo_seconds=None) -> None:
        """Arm the first tick. ``horizon`` is the last arrival time;
        ``records`` is the pipeline's (live) record list the sliding
        SLO window reads."""
        n_active = len(engine.active_replica_ids())
        if not self.scale_min <= n_active <= self.scale_max:
            raise ValueError(
                f"initial fleet of {n_active} replicas is outside "
                f"[scale_min={self.scale_min}, scale_max={self.scale_max}]"
            )
        self._engine = engine
        self._loop = loop
        self._records = records
        self._horizon = float(horizon)
        self._schedule_tick(self.interval_s)

    # ------------------------------------------------------------------
    def _schedule_tick(self, t: float) -> None:
        # source=self: ticks dispatch without advancing the attached
        # engine clocks, keeping the autoscaler observationally
        # neutral when it makes no change (and off the makespan).
        self._loop.schedule(t, "autoscale:tick", self._tick, source=self)

    def _record(self, time: float, action: str, replica: int) -> None:
        self.events.append(ScalingEvent(
            time=time, action=action, replica=replica,
            n_active=len(self._engine.active_replica_ids())))

    # ------------------------------------------------------------------
    def signals(self, t: float) -> ScalingSignals:
        engine = self._engine
        active = engine.active_replica_ids()
        outstanding = engine.replica_outstanding()
        per_active = (
            sum(outstanding[i] for i in active) / len(active)
            if active else 0.0
        )
        records = self._records
        cutoff = t - self.window_s
        window = [r.slo_met for r in records
                  if r.finish_time > cutoff and r.slo_met is not None]
        attainment = sum(window) / len(window) if window else None
        completed = len(records)
        service = (engine.stats.busy_seconds / completed
                   if completed else None)
        forecast = None
        if self.workload is not None:
            lookahead = self.interval_s + self.provision_delay_s
            alpha = getattr(self.policy, "smoothing_alpha", None)
            if alpha is not None:
                forecast = self.workload.ewma_rate(t + lookahead, alpha)
            else:
                forecast = self.workload.forecast_rate(t, lookahead)
        return ScalingSignals(
            time=t,
            n_active=len(active),
            n_provisioning=len(self._pending_provisions),
            n_draining=len(engine.draining_replica_ids()),
            outstanding_per_active=per_active,
            window_slo_attainment=attainment,
            forecast_rate_qps=forecast,
            est_service_seconds=service,
            scale_min=self.scale_min,
            scale_max=self.scale_max,
        )

    # ------------------------------------------------------------------
    def _tick(self, t: float, _payload) -> None:
        engine = self._engine
        self._retire_drained(t)
        workload_over = t >= self._horizon and not engine.has_work()
        if workload_over:
            # The trace is done and the backlog drained: in-flight
            # provisions would arrive to serve nothing.
            self._cancel_pending_provisions(t)
            self._drain_excess(t, target_active=self.scale_min)
        else:
            signals = self.signals(t)
            desired = min(self.scale_max,
                          max(self.scale_min,
                              self.policy.desired_fleet(signals)))
            provisioned = signals.n_active + signals.n_provisioning
            # Hysteresis: the streak tracks what the policy *wants*
            # (even while the cooldown blocks acting on it), so a
            # sustained lull still winds down after the cooldown.
            in_cooldown = t - self._last_action_time < self.cooldown_s
            if desired > provisioned:
                self._down_streak = 0
                if not in_cooldown:
                    self._scale_up(t, desired - provisioned)
                    self._last_action_time = t
            elif desired < provisioned:
                self._down_streak += 1
                if not in_cooldown and self._down_streak >= self.down_debounce:
                    self._scale_down(t, provisioned - desired)
                    self._last_action_time = t
                    self._down_streak = 0
            else:
                self._down_streak = 0
        self._retire_drained(t)
        # Keep ticking while arrivals can still come (t < horizon), any
        # work or provision is in flight, a drain has not retired yet,
        # or the fleet has not wound down to its floor — the last tick
        # is always the one that leaves n_active == scale_min.
        if (t < self._horizon
                or engine.has_work()
                or self._pending_provisions
                or engine.draining_replica_ids()
                or engine.n_active > self.scale_min):
            self._schedule_tick(t + self.interval_s)

    # ------------------------------------------------------------------
    def _scale_up(self, t: float, deficit: int) -> None:
        engine = self._engine
        # Reactivating a draining replica is free and instant; prefer
        # the most recently drained (highest id) for LIFO symmetry.
        for rid in sorted(engine.draining_replica_ids(), reverse=True):
            if deficit <= 0:
                return
            engine.cancel_drain(rid)
            self._record(t, "cancel-drain", rid)
            deficit -= 1
        for _ in range(deficit):
            event = self._loop.schedule(
                t + self.provision_delay_s, "autoscale:provision",
                self._provisioned, source=self)
            self._pending_provisions.append(event)
            self._record(t, "provision", -1)

    def _provisioned(self, t: float, _payload) -> None:
        # Events cancelled via _cancel_pending_provisions never fire,
        # so every firing corresponds to one pending entry.
        if self._pending_provisions:
            self._pending_provisions.pop(0)
        rid = self._engine.add_replica(at=t)
        self._record(t, "add", rid)

    def _cancel_pending_provisions(self, t: float) -> None:
        for event in self._pending_provisions:
            self._loop.cancel(event)
            self._record(t, "cancel-provision", -1)
        self._pending_provisions.clear()

    def _scale_down(self, t: float, excess: int) -> None:
        # Cancel queued provisions first (cheapest: nothing exists yet).
        while excess > 0 and self._pending_provisions:
            event = self._pending_provisions.pop()
            self._loop.cancel(event)
            self._record(t, "cancel-provision", -1)
            excess -= 1
        engine = self._engine
        outstanding = engine.replica_outstanding()
        while excess > 0:
            active = engine.active_replica_ids()
            if len(active) <= self.scale_min:
                return
            # Least-loaded active replica; ties retire the newest.
            victim = min(active, key=lambda i: (outstanding[i], -i))
            engine.begin_drain(victim)
            self._record(t, "drain", victim)
            excess -= 1

    def _drain_excess(self, t: float, target_active: int) -> None:
        """Post-workload cool-down: drain everything above the floor."""
        engine = self._engine
        active = engine.active_replica_ids()
        excess = len(active) - max(target_active, 1)
        if excess > 0:
            self._scale_down(t, excess)

    def _retire_drained(self, t: float) -> None:
        engine = self._engine
        for rid in engine.draining_replica_ids():
            if engine.can_retire(rid):
                engine.retire(rid, at=t)
                self._record(t, "retire", rid)
