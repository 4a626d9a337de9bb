"""Event-driven stepping: run a :class:`~repro.sim.kernel.Steppable`
as first-class events on a shared :class:`~repro.sim.kernel.EventLoop`.

A :class:`StepDriver` keeps an *armed step event*: while the substrate
has work, exactly one source event sits on the loop at the substrate's
frontier (``substrate.now``); each firing performs one
:meth:`~repro.sim.kernel.Steppable.step` and re-arms at the new
frontier. When the substrate drains, the driver simply stops
scheduling — an idle substrate costs zero events and zero polling.

Idle-wakeup protocol
--------------------

Admission can change the frontier, so the substrate must tell the
driver about it (engines call :meth:`notify` from their ``submit`` via
the ``wake_hook`` attribute):

* **wake** — the substrate was idle, so no step event existed; the
  driver arms one at the substrate's (just-advanced) clock.
* **frontier regression** — on a cluster, a submission routed to an
  idle *replica* of a busy cluster can pull the frontier (the minimum
  busy-replica clock) backwards. The armed event's timestamp is now
  too late, so the driver moves it to the new frontier via
  :meth:`~repro.sim.kernel.EventLoop.reschedule` — this is the kernel gap (cancel/reschedule)
  that event-driven replicas exposed.
* **no-op** — a submission to an already-busy substrate that leaves
  the frontier unchanged needs nothing; the armed event stands.

Notifications that arrive *during* a step (continuous batching: a
finished request's callback submits the next synthesis stage) are
deferred: the driver re-arms once the step returns, observing the
post-step frontier.

Re-arms are additionally **batched per dispatch**: notifications that
arrive while an event handler is running (a burst handler submitting N
requests, a completion fan-out admitting N same-instant follow-ups) are
coalesced through :meth:`~repro.sim.kernel.EventLoop.defer` into a
single arm/reschedule once the handler returns — one step event
scheduled, not N. The armed event still exists before the loop selects
its next event, at the same ``(time, rank)`` it would have had, so
dispatch order is byte-identical to the eager re-arm (the step event is
the only event its later ``seq`` could tie against).

Lockstep equivalence
--------------------

With homogeneous replicas, the iterations this driver produces are
**byte-identical** to a plain lockstep loop that steps the substrate
while its clock trails the next arrival (strict ``<``) and otherwise
advances it and submits: step events rank after equal-time external
events, each firing advances the lagging busy replica (the min-clock /
min-index rule of ``ClusterEngine.step`` and ``step_and_frontier``),
and external events observe ``max(event.time, substrate.now)`` via
``EventLoop.attach``. ``tests/test_cluster_events.py`` pins this
against such a loop for bare engines and multi-replica clusters, with
and without an ``on_step`` observer; ``tests/test_cluster_golden.py``
and the pipeline golden fingerprint pin it end to end.
"""

from __future__ import annotations

from typing import Callable

from repro.sim.kernel import Event, EventLoop, Steppable

__all__ = ["StepDriver"]

#: ``on_step(step_result)`` — observe each substrate iteration.
StepObserver = Callable[[object], None]


class StepDriver:
    """Keeps one step event armed while ``substrate`` has work.

    Construction attaches the substrate to the loop as a time source
    (external events advance/clamp against it) and arms the first step
    event if the substrate already has work. Callers must route
    admission notifications to :meth:`notify` — engines do this
    automatically when wired via ``ServingEngine.attach`` /
    ``ClusterEngine.attach``.
    """

    def __init__(self, loop: EventLoop, substrate: Steppable,
                 kind: str = "engine-step",
                 on_step: StepObserver | None = None) -> None:
        self.loop = loop
        self.substrate = substrate
        self.kind = kind
        self.on_step = on_step
        self._armed: Event | None = None
        self._in_step = False
        self._rearm_deferred = False
        #: idle -> busy transitions (a step event newly armed)
        self.n_wakes = 0
        #: busy -> idle transitions (the driver stopped scheduling)
        self.n_sleeps = 0
        #: steps dispatched through the loop
        self.n_steps = 0
        # Substrates may expose ``frontier()`` — a fused
        # has_work-and-now probe (None when idle) that saves one full
        # replica scan per arm on clusters; fall back to the two-call
        # Steppable protocol otherwise.
        frontier = getattr(substrate, "frontier", None)
        if frontier is None:
            def frontier() -> float | None:
                return substrate.now if substrate.has_work() else None
        self._frontier = frontier
        # Substrates may also expose ``step_and_frontier()`` — one
        # quiet iteration (no Step/ClusterStepInfo built) fused with
        # the post-step frontier probe — which the driver uses
        # whenever no ``on_step`` observer is attached.
        self._step_quiet = getattr(substrate, "step_and_frontier", None)
        loop.attach(substrate)
        self._arm(wake=True)

    # ------------------------------------------------------------------
    @property
    def armed_time(self) -> float:
        """Timestamp of the armed step event (``inf`` when sleeping)."""
        return self._armed.time if self._armed is not None else float("inf")

    def notify(self) -> None:
        """Admission happened: wake or re-arm to the new frontier.

        Safe to call at any time; during a step it defers to the
        post-step re-arm (which observes the final frontier), and
        during any other event handler it coalesces with every other
        notification of that handler into one post-dispatch arm.
        """
        if self._in_step or self._rearm_deferred:
            return
        if self.loop.in_dispatch:
            self._rearm_deferred = True
            self.loop.defer(self._deferred_arm)
        else:
            self._arm(wake=True)

    def _deferred_arm(self) -> None:
        self._rearm_deferred = False
        self._arm(wake=True)

    def _arm(self, wake: bool, frontier: float | None = None) -> None:
        if frontier is None:
            frontier = self._frontier()
            if frontier is None:
                return
        if self._armed is None:
            if wake:
                self.n_wakes += 1
            self._armed = self.loop.schedule(
                frontier, self.kind, self._on_step, source=self.substrate
            )
        elif frontier < self._armed.time:
            # A submission to an idle replica regressed the cluster
            # frontier below the armed event; pull the event back so
            # the lagging replica steps before any external event in
            # between (the lockstep order).
            self._armed = self.loop.reschedule(self._armed, frontier)

    def _on_step(self, t: float, _payload: object) -> None:
        fired = self._armed
        self._armed = None
        if not self.substrate.has_work():  # pragma: no cover - defensive
            return
        observer = self.on_step
        if observer is None and self._step_quiet is not None:
            self._in_step = True
            try:
                frontier = self._step_quiet()
            finally:
                self._in_step = False
            self.n_steps += 1
        else:
            self._in_step = True
            try:
                result = self.substrate.step()
            finally:
                self._in_step = False
            self.n_steps += 1
            if observer is not None:
                observer(result)
            frontier = self._frontier()
        if frontier is not None:
            # _arm inlined: the event popped above cleared self._armed,
            # and any notify() during the step was a no-op, so this is
            # always the plain (non-wake) schedule branch — which reuses
            # the just-fired event instead of allocating a new one.
            self._armed = self.loop.rearm(fired, frontier)
        else:
            self.n_sleeps += 1
