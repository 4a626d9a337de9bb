"""Property tests: the heap kernel vs a reference heapq model.

The kernel's pending set is one binary heap with lazy tombstones and
amortized compaction. Its observable contract is the one a plain
``heapq`` ordered by ``(time, rank, seq)`` provides. These tests pin
that equivalence under randomized schedule / cancel / reschedule /
rearm workloads (including ops issued from inside firing handlers,
source-marked events that rank after equal-time external ones, and
tapes on a time grid so that equal-time ties really happen), and that
tombstone compaction never perturbs the surviving order.
"""

from __future__ import annotations

import heapq
import itertools

import pytest

from repro.sim import EventLoop
from repro.sim.kernel import _COMPACT_MIN_DEAD
from repro.util.rng import RngStreams

#: The ``source`` a tape passes for source-marked events.
_SOURCE = "substrate"

_PENDING, _FIRED, _CANCELLED = "pending", "fired", "cancelled"


class _RefHandle:
    __slots__ = ("time", "rank", "seq", "payload", "handler", "source",
                 "state")

    def __init__(self, handler, payload, source):
        self.handler = handler
        self.payload = payload
        self.source = source
        self.rank = 0 if source is None else 1


class ReferenceLoop:
    """Plain-heapq model of the kernel's dispatch contract: strict
    ``(time, rank, seq)`` order (source-marked events rank 1, after
    equal-time external ones), lazy-deletion cancellation,
    cancel-plus-fresh-seq reschedule, and rearm of a fired event at a
    fresh seq."""

    def __init__(self):
        self._heap: list[tuple[float, int, int, _RefHandle]] = []
        self._seq = itertools.count()
        self.now = 0.0

    def _push(self, handle, time):
        handle.time = time
        handle.seq = next(self._seq)
        handle.state = _PENDING
        heapq.heappush(self._heap, (time, handle.rank, handle.seq, handle))
        return handle

    def schedule(self, time, kind, handler, payload=None, source=None):
        return self._push(_RefHandle(handler, payload, source), time)

    def rearm(self, handle, time):
        if handle.state != _FIRED:
            raise ValueError("rearm() requires a fired event")
        return self._push(handle, time)

    def cancel(self, handle):
        if handle.state != _PENDING:
            return False
        handle.state = _CANCELLED
        return True

    def reschedule(self, handle, time):
        if not self.cancel(handle):
            raise ValueError("reschedule() requires a pending event")
        return self.schedule(time, "", handle.handler, handle.payload,
                             handle.source)

    def is_pending(self, handle):
        return handle.state == _PENDING

    def run(self):
        while self._heap:
            time, _, _, handle = heapq.heappop(self._heap)
            if handle.state != _PENDING:
                continue
            handle.state = _FIRED
            if time > self.now:
                self.now = time
            # Handlers observe the event's own time, which may trail
            # the clock — exactly the kernel's contract.
            handle.handler(time, handle.payload)


# ----------------------------------------------------------------------
# Random op tapes, interpreted identically against both loops
# ----------------------------------------------------------------------
def build_tape(seed: int, n_initial: int = 200, n_max: int = 600,
               quantum: float | None = None):
    """Pure data: pre-run ops plus per-event on-fire ops.

    Event ids number schedule ops in creation order (identical across
    interpreters). Times span [0, 120); on-fire deltas include small
    negative ones (events trailing the loop clock are legal and must
    order the same). A quarter of the schedules are source-marked, and
    some on-fire op lists re-arm the event that just fired. With
    ``quantum`` every time and delta is rounded to that grid (powers
    of two keep the sums exact), so equal-time ties, between external
    and source events alike, are common.
    """
    rng = RngStreams(seed).get("test", "kernel-queue")
    initial: list[tuple] = []
    on_fire: dict[int, list[tuple]] = {}
    next_id = 0
    live_pool: list[int] = []

    def snap(t):
        return t if quantum is None else round(t / quantum) * quantum

    def uniform(lo, hi):
        return snap(float(rng.uniform(lo, hi)))

    def new_id():
        nonlocal next_id
        next_id += 1
        live_pool.append(next_id - 1)
        return next_id - 1

    def source():
        return _SOURCE if rng.random() < 0.25 else None

    for _ in range(n_initial):
        initial.append(("schedule", uniform(0.0, 120.0), new_id(), source()))
        u = float(rng.random())
        if u < 0.15 and live_pool:
            initial.append(("cancel",
                            int(rng.choice(live_pool))))
        elif u < 0.30 and live_pool:
            initial.append(("resched", int(rng.choice(live_pool)),
                            uniform(0.0, 120.0)))

    # On-fire ops: half the events act when they dispatch. Cancel and
    # reschedule targets come from the pre-run pool only — those are
    # guaranteed to exist whenever any event fires (an already-fired
    # or already-cancelled target exercises the no-op paths). At most
    # one op per list re-arms the firing event itself.
    pre_run_ids = list(live_pool)
    for eid in range(next_id):
        if rng.random() >= 0.5:
            continue
        ops = []
        for _ in range(int(rng.integers(1, 3))):
            u = float(rng.random())
            if u < 0.4 and next_id < n_max:
                # Time is relative to the firing instant, resolved by
                # the interpreter.
                ops.append(("schedule_rel", uniform(-0.05, 2.0), new_id(),
                            source()))
            elif u < 0.6:
                ops.append(("cancel", int(rng.choice(pre_run_ids))))
            elif u < 0.8:
                ops.append(("resched_rel", int(rng.choice(pre_run_ids)),
                            uniform(-0.05, 2.0)))
            elif not any(op[0] == "rearm_rel" for op in ops):
                ops.append(("rearm_rel", eid, uniform(-0.05, 2.0)))
        on_fire[eid] = ops
    return initial, on_fire


def interpret(loop, tape) -> list[tuple[int, float]]:
    """Run one tape against ``loop``; return the dispatch sequence.

    An event's on-fire ops run on its first dispatch only, so a
    re-armed event fires again without re-arming forever.
    """
    initial, on_fire = tape
    handles: dict[int, object] = {}
    dispatched: list[tuple[int, float]] = []
    acted: set[int] = set()

    def apply(op, now):
        kind = op[0]
        if kind == "schedule":
            handles[op[2]] = loop.schedule(op[1], "ev", fire, op[2], op[3])
        elif kind == "schedule_rel":
            handles[op[2]] = loop.schedule(now + op[1], "ev", fire, op[2],
                                           op[3])
        elif kind == "cancel":
            loop.cancel(handles[op[1]])
        elif kind == "resched":
            if loop.is_pending(handles[op[1]]):
                handles[op[1]] = loop.reschedule(handles[op[1]], op[2])
        elif kind == "resched_rel":
            if loop.is_pending(handles[op[1]]):
                handles[op[1]] = loop.reschedule(handles[op[1]],
                                                 now + op[2])
        elif kind == "rearm_rel":
            loop.rearm(handles[op[1]], now + op[2])

    def fire(now, eid):
        dispatched.append((eid, now))
        if eid in acted:
            return
        acted.add(eid)
        for op in on_fire.get(eid, ()):
            apply(op, now)

    for op in initial:
        apply(op, 0.0)
    loop.run()
    return dispatched


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_dispatch_order_matches_reference_heapq(seed):
    tape = build_tape(seed)
    got = interpret(EventLoop(), tape)
    want = interpret(ReferenceLoop(), tape)
    assert got == want
    assert len(got) > 100  # the tape exercised a real workload


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("quantum", [1.0 / 16, 1.0 / 4, 1.0, 16.0])
def test_ties_ranks_and_rearm_match_reference_heapq(seed, quantum):
    """On a time grid — from one that leaves a few collisions to one
    that piles the tape onto a handful of instants — source ranks,
    FIFO ties and re-armed events dispatch exactly as the reference."""
    tape = build_tape(seed, quantum=quantum)
    got = interpret(EventLoop(), tape)
    assert got == interpret(ReferenceLoop(), tape)
    ops = [*tape[0], *(op for ops in tape[1].values() for op in ops)]
    assert any(op[0].startswith("schedule") and op[3] == _SOURCE
               for op in ops)
    assert any(op[0] == "rearm_rel" for op in ops)
    times = [t for _, t in got]
    assert len(set(times)) < len(times)  # equal-time ties happened


@pytest.mark.parametrize("make_loop", [EventLoop, ReferenceLoop])
def test_rearm_requires_fired_event(make_loop):
    """Only a fired event may be re-armed: a pending or a cancelled
    one raises and stays as it was."""
    loop = make_loop()
    event = loop.schedule(1.0, "ev", lambda t, _: None)
    with pytest.raises(ValueError, match="fired"):
        loop.rearm(event, 2.0)
    assert loop.is_pending(event)
    loop.cancel(event)
    with pytest.raises(ValueError, match="fired"):
        loop.rearm(event, 2.0)
    assert not loop.is_pending(event)


class TestCompaction:
    def test_threshold_compaction_preserves_survivor_order(self):
        """Cancel enough to cross the compaction threshold mid-stream;
        the surviving dispatch order must equal the reference's."""
        rng = RngStreams(9).get("test", "compaction")
        times = [float(rng.uniform(0.0, 50.0)) for _ in range(400)]
        doomed = set(int(i) for i in rng.choice(400, size=300,
                                                replace=False))

        def drive(loop):
            fired = []
            handles = [loop.schedule(t, "ev", lambda now, i: fired.append(i),
                                     i) for i, t in enumerate(times)]
            for i in sorted(doomed):
                loop.cancel(handles[i])
            loop.run()
            return fired

        kernel = EventLoop()
        got = drive(kernel)
        want = drive(ReferenceLoop())
        assert got == want
        # The cancel storm really crossed the threshold and swept.
        assert len(doomed) > _COMPACT_MIN_DEAD
        assert kernel._n_dead == 0

    def test_explicit_compact_is_invisible(self):
        """White-box: force _compact() between every mutation batch and
        assert the dispatch sequence still matches the reference."""
        tape = build_tape(7)
        initial, on_fire = tape

        class CompactingLoop(EventLoop):
            def cancel(self, event):
                out = super().cancel(event)
                super()._compact()
                return out

        got = interpret(CompactingLoop(), tape)
        want = interpret(ReferenceLoop(), tape)
        assert got == want
