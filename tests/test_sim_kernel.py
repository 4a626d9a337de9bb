"""Property tests for the discrete-event kernel (repro.sim.kernel)."""

import pytest

from repro.sim import EventLoop, StepDriver
from repro.util.rng import RngStreams


class TestClock:
    """``EventLoop.now`` is the simulated clock."""

    def test_starts_at_zero(self):
        assert EventLoop().now == 0.0

    def test_advance_forward(self):
        """The clock follows dispatch: each handler sees ``now`` at its
        own event time, and the drained loop rests at the last one."""
        loop = EventLoop()
        seen: list[float] = []
        for t in (3.5, 1.0, 2.0):
            loop.schedule(t, "e", lambda t, _: seen.append(loop.now))
        loop.run()
        assert seen == [1.0, 2.0, 3.5]
        assert loop.now == 3.5

    def test_never_rewinds(self):
        loop = EventLoop()
        loop.schedule(2.0, "a", lambda t, _: None)
        loop.run()
        loop.schedule(1.0, "late", lambda t, _: None)
        loop.run()
        assert loop.now == 2.0


class TestEventOrdering:
    def test_equal_timestamps_dispatch_in_insertion_order(self):
        """The stable tie-break: same time => scheduling order."""
        loop = EventLoop()
        fired: list[int] = []
        for i in range(50):
            loop.schedule(1.0, "tick", lambda t, _, i=i: fired.append(i))
        loop.run()
        assert fired == list(range(50))

    def test_time_order_dominates_insertion_order(self):
        loop = EventLoop()
        fired: list[str] = []
        loop.schedule(2.0, "late", lambda t, _: fired.append("late"), None)
        loop.schedule(1.0, "early", lambda t, _: fired.append("early"), None)
        loop.run()
        assert fired == ["early", "late"]

    def test_interleaved_equal_and_distinct_times(self):
        """Random times; equal-time runs must preserve insertion rank."""
        rng = RngStreams(7).get("sim", "kernel-test")
        loop = EventLoop()
        fired: list[tuple[float, int]] = []
        scheduled: list[tuple[float, int]] = []
        for i in range(400):
            t = float(rng.integers(0, 20))  # many collisions
            scheduled.append((t, i))
            loop.schedule(t, "e", lambda _, p: fired.append(p), (t, i))
        loop.run()
        assert fired == sorted(scheduled, key=lambda p: (p[0], p[1]))

    def test_handlers_can_schedule_cascades(self):
        loop = EventLoop()
        fired: list[str] = []

        def first(t, _):
            fired.append("first")
            loop.schedule(t, "child", lambda t2, _2: fired.append("child"))

        loop.schedule(1.0, "first", first)
        loop.schedule(1.0, "second", lambda t, _: fired.append("second"))
        loop.run()
        # The cascade lands *after* the already-queued equal-time event.
        assert fired == ["first", "second", "child"]

    def test_past_scheduled_event_keeps_raw_time_clock_unmoved(self):
        """Events may be scheduled behind the clock (a cluster frontier
        regresses); substrate-free dispatch hands the handler the raw
        event time while the loop clock itself never rewinds."""
        loop = EventLoop()
        seen: list[float] = []
        loop.schedule(1.0, "a", lambda t, _: None)
        loop.run()
        assert loop.now == 1.0
        loop.schedule(0.5, "late", lambda t, _: seen.append(
            (t, loop.now)))
        loop.run()
        assert seen == [(0.5, 1.0)]  # raw time passed, clock unmoved


class TestDeterminism:
    @staticmethod
    def _simulate(seed: int) -> list[tuple]:
        """A cascading workload: every event spawns 0-2 follow-ons."""
        rng = RngStreams(seed).get("sim", "determinism")
        loop = EventLoop()
        trace: list[tuple] = []

        def handler(t, payload):
            depth = payload
            trace.append((round(t, 9), depth, loop.now))
            if depth < 3:
                for _ in range(int(rng.integers(0, 3))):
                    loop.schedule(t + float(rng.exponential(0.5)),
                                  "spawn", handler, depth + 1)

        for _ in range(30):
            loop.schedule(float(rng.exponential(1.0)), "root", handler, 0)
        loop.run()
        return trace

    def test_identical_seeds_identical_traces(self):
        assert self._simulate(11) == self._simulate(11)

    def test_different_seeds_differ(self):
        assert self._simulate(11) != self._simulate(12)

    def test_counters(self):
        loop = EventLoop()
        for i in range(5):
            loop.schedule(float(i), "e", lambda t, _: None)
        loop.run()
        assert loop.n_scheduled == 5
        assert loop.n_dispatched == 5
        assert not loop


class TestCancellation:
    def test_cancelled_event_never_fires(self):
        loop = EventLoop()
        fired: list[str] = []
        keep = loop.schedule(1.0, "keep", lambda t, _: fired.append("keep"))
        kill = loop.schedule(1.0, "kill", lambda t, _: fired.append("kill"))
        assert loop.cancel(kill) is True
        loop.run()
        assert fired == ["keep"]
        assert keep.seq != kill.seq
        assert loop.n_cancelled == 1
        assert loop.n_dispatched == 1

    def test_cancel_is_idempotent_and_false_after_fire(self):
        loop = EventLoop()
        event = loop.schedule(0.5, "e", lambda t, _: None)
        assert loop.cancel(event) is True
        assert loop.cancel(event) is False  # already cancelled
        fired = loop.schedule(0.5, "e2", lambda t, _: None)
        loop.run()
        assert loop.cancel(fired) is False  # already dispatched

    def test_len_bool_peek_reflect_cancellation(self):
        loop = EventLoop()
        a = loop.schedule(1.0, "a", lambda t, _: None)
        loop.schedule(2.0, "b", lambda t, _: None)
        assert len(loop) == 2
        loop.cancel(a)
        assert len(loop) == 1 and bool(loop)
        loop.run()
        assert not loop

    def test_random_cancellations_never_fire_order_insertion_stable(self):
        """Property: under random cancellation the survivors dispatch in
        exactly (time, insertion) order and no cancelled event fires."""
        rng = RngStreams(21).get("sim", "cancel-test")
        loop = EventLoop()
        fired: list[tuple[float, int]] = []
        events = []
        for i in range(500):
            t = float(rng.integers(0, 25))  # many ties
            events.append((t, i, loop.schedule(
                t, "e", lambda _, p: fired.append(p), (t, i))))
        cancelled = set()
        for t, i, event in events:
            if rng.random() < 0.4:
                assert loop.cancel(event) is True
                cancelled.add(i)
        loop.run()
        survivors = [(t, i) for t, i, _ in events if i not in cancelled]
        assert fired == sorted(survivors, key=lambda p: (p[0], p[1]))
        assert loop.n_cancelled == len(cancelled)


class TestReschedule:
    def test_rescheduled_event_fires_once_at_new_time(self):
        loop = EventLoop()
        fired: list[tuple[str, float]] = []
        event = loop.schedule(5.0, "move", lambda t, _: fired.append(("move", t)))
        loop.schedule(2.0, "mid", lambda t, _: fired.append(("mid", t)))
        moved = loop.reschedule(event, 1.0)
        loop.run()
        assert fired == [("move", 1.0), ("mid", 2.0)]
        assert moved.seq != event.seq
        assert moved.kind == "move"

    def test_reschedule_ranks_as_newest_insertion_at_tied_time(self):
        loop = EventLoop()
        fired: list[str] = []
        early = loop.schedule(0.5, "early", lambda t, _: fired.append("early"))
        loop.schedule(1.0, "sibling", lambda t, _: fired.append("sibling"))
        loop.reschedule(early, 1.0)
        loop.run()
        # The moved event re-enters at a fresh seq: after the sibling.
        assert fired == ["sibling", "early"]

    def test_reschedule_dispatched_or_cancelled_raises(self):
        loop = EventLoop()
        event = loop.schedule(1.0, "e", lambda t, _: None)
        loop.run()
        with pytest.raises(ValueError, match="already dispatched"):
            loop.reschedule(event, 2.0)
        other = loop.schedule(1.0, "e2", lambda t, _: None)
        loop.cancel(other)
        with pytest.raises(ValueError):
            loop.reschedule(other, 2.0)

    def test_reschedule_preserves_payload_and_source(self):
        loop = EventLoop()
        seen: list[object] = []
        marker = object()
        event = loop.schedule(3.0, "e", lambda t, p: seen.append(p),
                              payload=marker, source=marker)
        moved = loop.reschedule(event, 1.0)
        assert moved.source is marker
        loop.run()
        assert seen == [marker]


class TestSourceEventOrdering:
    def test_source_event_yields_to_equal_time_external(self):
        """A step event scheduled *before* an external event at the same
        time still fires after it — matching the legacy polling loop's
        strict ``substrate.now < next_event`` comparison."""
        loop = EventLoop()
        fired: list[str] = []
        src = object()
        loop.schedule(1.0, "step", lambda t, _: fired.append("step"),
                      source=src)
        loop.schedule(1.0, "arrival", lambda t, _: fired.append("arrival"))
        loop.run()
        assert fired == ["arrival", "step"]

    def test_time_still_dominates_rank(self):
        loop = EventLoop()
        fired: list[str] = []
        loop.schedule(1.0, "step", lambda t, _: fired.append("step"),
                      source=object())
        loop.schedule(2.0, "arrival", lambda t, _: fired.append("arrival"))
        loop.run()
        assert fired == ["step", "arrival"]


class TestAttachedSources:
    """run() with attached sources mirrors the substrate advance/clamp,
    and its guards fail loudly instead of exiting early or spinning."""

    def test_external_event_advances_attached_source(self):
        substrate = _FakeSubstrate(work_units=0, step_seconds=1.0)
        loop = EventLoop()
        seen: list[float] = []
        loop.attach(substrate)
        loop.schedule(4.0, "evt", lambda t, _: seen.append(t))
        loop.run()
        assert seen == [4.0]
        assert substrate.now == 4.0

    def test_handler_observes_overshot_source_clock(self):
        substrate = _FakeSubstrate(work_units=0, step_seconds=1.0)
        substrate.now = 7.5  # source overshot past the event
        loop = EventLoop()
        seen: list[float] = []
        loop.attach(substrate)
        loop.schedule(5.0, "evt", lambda t, _: seen.append(t))
        loop.run()
        assert seen == [7.5]  # clamped, never rewound

    def test_double_attach_rejected(self):
        """A loop holds one time source: the same one again or a
        second one is refused."""
        substrate = _FakeSubstrate(work_units=0, step_seconds=1.0)
        loop = EventLoop()
        loop.attach(substrate)
        with pytest.raises(ValueError, match="already attached"):
            loop.attach(substrate)
        with pytest.raises(ValueError, match="already attached"):
            loop.attach(_FakeSubstrate(work_units=0, step_seconds=1.0))

    def test_stranded_work_is_an_error(self):
        """A busy source with no armed step event means the wake
        protocol lost an admission — run() must not silently exit."""
        substrate = _FakeSubstrate(work_units=3, step_seconds=1.0)
        loop = EventLoop()
        loop.attach(substrate)  # no StepDriver arming step events
        loop.schedule(1.0, "evt", lambda t, _: None)
        with pytest.raises(RuntimeError, match="wake protocol"):
            loop.run()

    def test_max_steps_guard(self):
        loop = EventLoop()

        def rearm(t, _):
            loop.schedule(t + 1.0, "rearm", rearm)

        loop.schedule(0.0, "rearm", rearm)
        with pytest.raises(RuntimeError, match="did not drain"):
            loop.run(max_steps=100)


class TestStepDriver:
    def test_drives_substrate_to_completion(self):
        substrate = _FakeSubstrate(work_units=5, step_seconds=1.0)
        loop = EventLoop()
        driver = StepDriver(loop, substrate)
        loop.run()
        assert not substrate.has_work()
        assert substrate.step_times == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert driver.n_steps == 5
        assert driver.n_wakes == 1 and driver.n_sleeps == 1

    def test_matches_legacy_polling_interleave(self):
        """Steps at 0,1,2 precede the event (a step yields only to an
        event strictly before its start); the iteration starting at 2
        overshoots to 3, so the handler observes 3.0."""
        substrate = _FakeSubstrate(work_units=5, step_seconds=1.0)
        loop = EventLoop()
        StepDriver(loop, substrate)
        seen: list[float] = []
        loop.schedule(2.5, "evt", lambda t, _: seen.append(t))
        loop.run()
        assert substrate.step_times[:3] == [0.0, 1.0, 2.0]
        assert seen == [3.0]

    def test_idle_substrate_sleeps_until_notified(self):
        substrate = _FakeSubstrate(work_units=0, step_seconds=2.0)
        loop = EventLoop()
        driver = StepDriver(loop, substrate)
        assert driver.armed_time == float("inf")  # asleep, no polling

        def admit(t, _):
            substrate._work = 2
            driver.notify()

        loop.schedule(3.0, "admit", admit)
        loop.run()
        assert substrate.step_times == [3.0, 5.0]
        assert driver.n_wakes == 1

    def test_notify_reschedules_on_frontier_regression(self):
        substrate = _FakeSubstrate(work_units=1, step_seconds=1.0)
        substrate.now = 10.0
        loop = EventLoop()
        driver = StepDriver(loop, substrate)
        assert driver.armed_time == 10.0
        # Admission drags the observable frontier backwards (a cluster
        # submission landing on an idle, lagging replica).
        substrate.now = 4.0
        substrate._work = 2
        driver.notify()
        assert driver.armed_time == 4.0
        loop.run()
        assert substrate.step_times == [4.0, 5.0]
        assert loop.n_cancelled == 1  # the reschedule tombstoned one event


class _FakeSubstrate:
    """Steppable stub: fixed-duration iterations while work remains."""

    def __init__(self, work_units: int, step_seconds: float) -> None:
        self.now = 0.0
        self._work = work_units
        self.step_seconds = step_seconds
        self.step_times: list[float] = []

    def has_work(self) -> bool:
        return self._work > 0

    def advance_and_observe(self, t: float) -> float:
        if t > self.now:
            self.now = t
        return self.now

    def frontier(self) -> float | None:
        return self.now if self.has_work() else None

    def step_and_frontier(self) -> float | None:
        self.step_times.append(self.now)
        self.now += self.step_seconds
        self._work -= 1
        return self.frontier()
