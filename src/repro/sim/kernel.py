"""Deterministic discrete-event kernel: typed events and the event loop.

This is the substrate every workload driver in the repo shares. Four
properties are load-bearing and pinned by ``tests/test_sim_kernel.py``:

* **Stable tie-breaking** — events scheduled for the same simulated
  time dispatch in scheduling (insertion) order, via a monotonic
  sequence counter. No queue-order nondeterminism ever leaks into a
  trace. The only exception is deliberate: *source events* (engine
  step events scheduled by an attached substrate) rank **after**
  external events at the same instant, so an engine iteration that
  starts at time ``t`` already sees every request admitted at ``t``
  (same-instant arrivals join that batch instead of waiting one
  iteration — the schedule the golden fingerprints pin).
* **Determinism** — the kernel holds no RNG and no wall-clock state;
  replaying the same schedule calls produces the same dispatch
  sequence, byte for byte.
* **Cancellation is explicit** — :meth:`EventLoop.cancel` and
  :meth:`EventLoop.reschedule` use lazy deletion: a cancelled event
  never fires, never perturbs the ordering of surviving events, and
  rescheduling re-inserts at a fresh sequence number (so the
  rescheduled event ranks as the *newest* insertion at its new time).
* **Event-driven substrates** — :meth:`EventLoop.attach` registers a
  :class:`Steppable` (e.g. a
  :class:`~repro.serving.cluster.ClusterEngine`) as the loop's one
  *time source*: plain :meth:`run` then advances it to each external
  event's timestamp and dispatches the handler at
  ``max(event.time, source.now)``, so a handler never observes a time
  behind the substrate's clock. The stepping itself is carried by
  source events a :class:`~repro.sim.driver.StepDriver` keeps armed
  (wake on admission, sleep when idle), so idle substrates cost zero
  work instead of a ``has_work()`` poll per event.

Pending-set representation
--------------------------

The pending set is one binary heap (``heapq``) of ``(time, rank, seq,
event)`` entries. On the real workloads it stays small (peaks of
1.8k-3k entries, mostly arrivals scheduled up front), so a heap about
11 levels deep is the whole mechanism. Cancelled events stay in the
heap as tombstones and are dropped when they surface; once tombstones
outnumber live events (and exceed ``_COMPACT_MIN_DEAD``) the survivors
are re-heapified in one amortized sweep, so a hedging-heavy run never
drags thousands of dead timers through every comparison. Keys are
unique (``seq`` never repeats), so compaction cannot reorder a
dispatch. ``tests/test_kernel_queue.py`` pins dispatch-order
equivalence against a reference heapq model under random schedule /
cancel / reschedule / rearm mixes with source ranks and equal-time ties.
"""

from __future__ import annotations

from heapq import (
    heapify as _heapify,
    heappop as _heappop,
    heappush as _heappush,
)
import itertools
from typing import Any, Callable, Protocol

__all__ = ["Event", "EventLoop", "Steppable"]

EventHandler = Callable[[float, Any], None]

#: Event lifecycle states (kept as plain ints for hot-path compares).
_PENDING = 0
_POPPED = 1
_CANCELLED = 2

#: Compaction floor: never compact below this many dead entries.
_COMPACT_MIN_DEAD = 64


class Steppable(Protocol):
    """A co-simulated substrate the event loop can interleave with."""

    now: float

    def has_work(self) -> bool: ...

    def advance_and_observe(self, t: float) -> float:
        """Move the clock forward to ``t`` (never back); return ``now``."""

    def frontier(self) -> float | None:
        """``now`` while the substrate has work, ``None`` when idle."""

    def step_and_frontier(self) -> float | None:
        """One iteration, then :meth:`frontier`."""


class Event:
    """One scheduled occurrence.

    ``seq`` is the kernel-assigned insertion index: the pending set
    orders by ``(time, rank, seq)`` where ``rank`` is 0 for external
    events and 1 for source events (``source is not None``), so
    equal-time events pop in scheduling order and substrate steps yield
    to equal-time external events (see the module docstring).

    A ``__slots__`` class with ``rank`` precomputed at construction —
    the sort key is never recomputed during queue comparisons — and a
    private lifecycle flag (pending / popped / cancelled) that replaces
    the per-loop pending/tombstone seq sets on the hot path.
    """

    __slots__ = ("time", "seq", "kind", "handler", "payload", "source",
                 "rank", "_status")

    def __init__(self, time: float, seq: int, kind: str,
                 handler: EventHandler, payload: Any = None,
                 source: Any = None) -> None:
        self.time = time
        self.seq = seq
        self.kind = kind
        self.handler = handler
        self.payload = payload
        #: The substrate that scheduled this event (``None`` = external).
        #: Source events skip the attached-source advance/clamp at
        #: dispatch — the source manages its own clocks.
        self.source = source
        self.rank = 0 if source is None else 1
        self._status = _PENDING

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Event(time={self.time}, seq={self.seq}, "
                f"kind={self.kind!r}, payload={self.payload!r})")


class EventLoop:
    """Binary-heap event loop with stable FIFO tie-breaking.

    :meth:`run` dispatches everything until idle. With substrates
    registered via :meth:`attach` (and their step events kept armed
    by a :class:`~repro.sim.driver.StepDriver`), engine iterations
    are first-class events on this loop.

    Cancellation (:meth:`cancel` / :meth:`reschedule`) uses lazy
    deletion: tombstoned entries are skipped when they surface
    (and swept wholesale by amortized compaction), so surviving events
    keep their exact ``(time, rank, seq)`` order.

    ``now`` is the simulated clock: the latest dispatch time, never
    rewound.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._seq = itertools.count()
        #: min-heap of ``(time, rank, seq, event)`` entries
        self._heap: list[tuple] = []
        self._n_pending = 0
        #: cancelled entries still resident in the heap
        self._n_dead = 0
        #: the one attached time source and its fused
        #: advance-and-read-clock callable (see attach)
        self._source: Steppable | None = None
        self._advance: Callable[[float], float] | None = None
        self.n_scheduled = 0
        self.n_dispatched = 0
        self.n_cancelled = 0
        #: callbacks to run after the in-flight dispatch (see defer)
        self._deferred: list[Callable[[], None]] = []
        self._in_dispatch = False

    # ------------------------------------------------------------------
    def schedule(self, time: float, kind: str, handler: EventHandler,
                 payload: Any = None, source: Any = None) -> Event:
        """Enqueue ``handler(t, payload)`` at simulated ``time``.

        ``time`` may trail the loop clock: a co-simulated substrate's
        observable clock is not monotone (a cluster's frontier is the
        *minimum* over busy replica clocks, which regresses when work
        lands on a lagging replica), so callbacks legitimately schedule
        at timestamps earlier than the last dispatch. Such events keep
        their raw time for queue ordering; at dispatch their handler
        observes ``max(event.time, substrate.now)`` when a substrate is
        attached, but the *raw* event time without one (only
        :attr:`now` itself never rewinds).

        ``source`` marks a substrate-scheduled step event: it ranks
        after equal-time external events and is dispatched without the
        attached-source advance/clamp (see :class:`Event`).
        """
        event = Event(time, next(self._seq), kind, handler, payload, source)
        _heappush(self._heap, (time, event.rank, event.seq, event))
        self._n_pending += 1
        self.n_scheduled += 1
        return event

    def rearm(self, event: Event, time: float) -> Event:
        """Re-insert a fired event at a new time (driver hot path).

        Equivalent to ``schedule(time, event.kind, event.handler,
        event.payload, event.source)`` — fresh ``seq``, same ordering
        rank — without constructing a new :class:`Event`. Only a
        *fired* (popped, not pending/cancelled) event may be rearmed.
        """
        if event._status != _POPPED:
            raise ValueError("rearm() requires a fired event")
        seq = next(self._seq)
        event.time = time
        event.seq = seq
        event._status = _PENDING
        _heappush(self._heap, (time, event.rank, seq, event))
        self._n_pending += 1
        self.n_scheduled += 1
        return event

    def is_pending(self, event: Event) -> bool:
        """Whether ``event`` is scheduled and neither fired nor cancelled.

        Teardown code (hedged-query unwind) uses this to assert that a
        cancelled event really became a tombstone; the drain invariant
        ``n_scheduled == n_dispatched + n_cancelled`` is its aggregate
        counterpart.
        """
        return event._status == _PENDING

    def cancel(self, event: Event) -> bool:
        """Cancel a pending event; it will never fire.

        Returns ``True`` if the event was pending (and is now dead),
        ``False`` if it had already been dispatched or cancelled.
        Cancellation never perturbs the relative order of surviving
        events (lazy deletion — pinned by ``tests/test_sim_kernel.py``);
        once tombstones outnumber live events the heap is compacted in
        one amortized sweep.
        """
        if event._status != _PENDING:
            return False
        event._status = _CANCELLED
        self._n_pending -= 1
        self._n_dead += 1
        self.n_cancelled += 1
        if self._n_dead > _COMPACT_MIN_DEAD and self._n_dead > self._n_pending:
            self._compact()
        return True

    def reschedule(self, event: Event, time: float) -> Event:
        """Move a pending event to a new time.

        Implemented as cancel + fresh schedule, so the moved event
        takes a **new** sequence number: among equal-time events it
        ranks as the newest insertion. Raises ``ValueError`` if the
        event already fired or was cancelled.
        """
        if not self.cancel(event):
            raise ValueError(
                f"cannot reschedule event {event.kind!r} (seq {event.seq}): "
                "already dispatched or cancelled"
            )
        return self.schedule(time, event.kind, event.handler,
                             payload=event.payload, source=event.source)

    def _compact(self) -> None:
        """Sweep dead entries out of the heap in one pass.

        Surviving entries keep their ``(time, rank, seq)`` keys, so the
        dispatch order is untouched (pinned by
        ``tests/test_kernel_queue.py``).
        """
        heap = self._heap
        # In-place: ``run``'s hot loop holds a local alias to the heap.
        heap[:] = [entry for entry in heap if entry[3]._status == _PENDING]
        _heapify(heap)
        self._n_dead = 0

    # ------------------------------------------------------------------
    def attach(self, source: Steppable) -> None:
        """Register a substrate as the loop's time source.

        The attached source is advanced to each external event's
        timestamp before its handler runs, and the handler observes
        ``max(event.time, source.now)``. Stepping the source is the
        :class:`~repro.sim.driver.StepDriver`'s job (it keeps a step
        event armed while the source has work). A loop holds one
        source (a whole cluster is one).
        """
        if self._source is not None:
            raise ValueError(f"source {self._source!r} is already attached")
        self._source = source
        self._advance = source.advance_and_observe

    # ------------------------------------------------------------------
    def __bool__(self) -> bool:
        return self._n_pending > 0

    def __len__(self) -> int:
        return self._n_pending

    def queued_entries(self) -> list[tuple]:
        """Every ``(time, rank, seq, event)`` entry still resident in
        the heap, live or tombstoned (testing/debugging aid — the drain
        property test asserts residual entries are all tombstones)."""
        return list(self._heap)

    # ------------------------------------------------------------------
    @property
    def in_dispatch(self) -> bool:
        """Whether a handler is currently running on this loop."""
        return self._in_dispatch

    def defer(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` after the in-flight dispatch completes.

        Outside a dispatch this runs ``fn`` immediately. The
        :class:`~repro.sim.driver.StepDriver` uses this to coalesce
        the wake/re-arm work of N same-instant admissions into one
        post-handler arm (one step event scheduled, not N) — safe
        because the armed event is re-created before the loop selects
        its next event, at the same ``(time, rank)`` it would have had.
        """
        if self._in_dispatch:
            self._deferred.append(fn)
        else:
            fn()

    def _flush_deferred(self) -> None:
        deferred = self._deferred
        while deferred:
            deferred.pop(0)()

    # ------------------------------------------------------------------
    def run(self, max_steps: int = 50_000_000) -> int:
        """Dispatch until the pending set drains.

        The attached source (see :meth:`attach`) is advanced to each
        external event's timestamp before its handler runs, and the
        handler observes ``max(event.time, source.now)``. Its step
        events — kept armed by a :class:`~repro.sim.driver.StepDriver`
        — interleave by ordinary ``(time, rank, seq)`` order. If the
        source still has work when the queue drains, its wake protocol
        is broken and a ``RuntimeError`` is raised rather than silently
        stranding work.

        Returns the number of dispatches; raises ``RuntimeError`` past
        ``max_steps`` (a diverging simulation).
        """
        steps = 0
        # THE hot loop (every run lives here): the heap alias is safe
        # because ``_compact`` rewrites the list in place.
        heap = self._heap
        deferred = self._deferred
        heappop = _heappop
        while self._n_pending:
            event = heappop(heap)[3]
            if event._status != _PENDING:
                self._n_dead -= 1
                continue
            event._status = _POPPED
            self._n_pending -= 1
            # -- advance the attached source + dispatch --
            t = event.time
            if event.source is None and self._advance is not None:
                now = self._advance(t)
                if now > t:
                    t = now
            if t > self.now:
                self.now = t
            self.n_dispatched += 1
            self._in_dispatch = True
            try:
                event.handler(t, event.payload)
            finally:
                self._in_dispatch = False
                if deferred:
                    self._flush_deferred()
            steps += 1
            if steps >= max_steps:
                raise RuntimeError(
                    f"event loop did not drain within {max_steps} steps"
                )
        source = self._source
        if source is not None and source.has_work():
            raise RuntimeError(
                f"event loop drained but source {source!r} still "
                "has work — its wake protocol lost an admission"
            )
        return steps
