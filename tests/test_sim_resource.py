"""Property tests for the contended Resource (repro.sim.resource)."""

import pytest

from repro.sim import EventLoop, Resource
from repro.util.rng import RngStreams


def offered(loop: EventLoop, resource: Resource,
            arrivals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Feed (time, hold) requests via arrival events; return
    (finish_time, queue_delay) per request in completion order."""
    done: list[tuple[float, float]] = []

    def make_arrival(hold: float):
        def on_arrival(t, _):
            resource.request(t, hold, lambda now, waited: done.append(
                (now, waited)))
        return on_arrival

    for t, hold in arrivals:
        loop.schedule(t, "arrival", make_arrival(hold))
    loop.run()
    return done


class TestConcurrencyCap:
    @pytest.mark.parametrize("cap", [1, 2, 5])
    def test_cap_never_exceeded(self, cap):
        """Under random offered load the in-service count stays <= cap."""
        rng = RngStreams(42).get("sim", f"resource-cap-{cap}")
        loop = EventLoop()
        resource = Resource("r", loop, concurrency=cap)
        t, arrivals = 0.0, []
        for _ in range(200):
            t += float(rng.exponential(0.05))
            arrivals.append((t, float(rng.exponential(0.2))))
        done = offered(loop, resource, arrivals)
        assert len(done) == 200
        assert 1 <= resource.stats.peak_in_service <= cap
        assert resource.stats.n_requests == 200

    @pytest.mark.parametrize("cap", [1, 3])
    def test_overlap_counted_externally(self, cap):
        """Reconstruct service intervals and assert max overlap <= cap."""
        rng = RngStreams(7).get("sim", f"overlap-{cap}")
        loop = EventLoop()
        resource = Resource("r", loop, concurrency=cap)
        spans: list[tuple[float, float]] = []
        t, arrivals = 0.0, []
        for _ in range(150):
            t += float(rng.exponential(0.04))
            arrivals.append((t, float(rng.exponential(0.3))))

        def feed(t_req, hold):
            def on_arrival(t, _):
                resource.request(
                    t, hold,
                    lambda now, waited, hold=hold: spans.append(
                        (now - hold, now)))
            loop.schedule(t_req, "arrival", on_arrival)

        for t_req, hold in arrivals:
            feed(t_req, hold)
        loop.run()
        assert len(spans) == 150
        # Round away float jitter from reconstructing start = now - hold
        # (one ulp is enough to fake an overlap at a back-to-back grant).
        events = sorted(
            [(round(s, 7), 1) for s, _ in spans]
            + [(round(f, 7), -1) for _, f in spans],
            key=lambda p: (p[0], p[1]),  # finish before start at ties
        )
        live = peak = 0
        for _, delta in events:
            live += delta
            peak = max(peak, live)
        assert peak <= cap
        assert resource.stats.peak_in_service == peak


class TestQueueDelay:
    def test_unbounded_never_queues(self):
        rng = RngStreams(3).get("sim", "unbounded")
        loop = EventLoop()
        resource = Resource("r", loop, concurrency=None)
        t, arrivals = 0.0, []
        for _ in range(100):
            t += float(rng.exponential(0.01))
            arrivals.append((t, float(rng.exponential(0.5))))
        done = offered(loop, resource, arrivals)
        assert all(waited == 0.0 for _, waited in done)
        assert resource.stats.n_queued == 0
        assert resource.stats.total_queue_delay == 0.0
        assert resource.stats.utilization(10.0) == 0.0

    @pytest.mark.tier2
    def test_queue_delay_monotone_in_offered_load(self):
        """Same service demand, shrinking inter-arrival gap: total
        queue delay must be non-decreasing as the load rises."""
        totals = []
        for gap in (2.0, 1.0, 0.5, 0.25, 0.125, 0.0625):
            loop = EventLoop()
            resource = Resource("r", loop, concurrency=2)
            arrivals = [(i * gap, 1.0) for i in range(60)]
            offered(loop, resource, arrivals)
            totals.append(resource.stats.total_queue_delay)
        assert all(b >= a for a, b in zip(totals, totals[1:])), totals
        assert totals[0] == 0.0  # uncontended at the lightest load
        assert totals[-1] > 0.0  # saturated at the heaviest

    def test_fifo_grant_order(self):
        """cap=1, simultaneous arrivals: completions in request order,
        spaced exactly one hold apart."""
        loop = EventLoop()
        resource = Resource("r", loop, concurrency=1)
        order: list[int] = []

        def on_arrival(t, i):
            resource.request(t, 0.5,
                             lambda now, waited, i=i: order.append(i))

        for i in range(10):
            loop.schedule(0.0, "arrival", on_arrival, i)
        loop.run()
        assert order == list(range(10))
        assert loop.now == pytest.approx(5.0)
        assert resource.stats.max_queue_delay == pytest.approx(4.5)

    def test_full_utilization_back_to_back(self):
        loop = EventLoop()
        resource = Resource("r", loop, concurrency=1)
        offered(loop, resource, [(0.0, 1.0), (0.0, 1.0), (0.0, 1.0)])
        assert resource.stats.busy_seconds == pytest.approx(3.0)
        assert resource.stats.utilization(3.0) == pytest.approx(1.0)


class TestValidation:
    def test_zero_concurrency_rejected(self):
        with pytest.raises(ValueError):
            Resource("r", EventLoop(), concurrency=0)

    def test_negative_hold_rejected(self):
        resource = Resource("r", EventLoop(), concurrency=1)
        with pytest.raises(ValueError):
            resource.request(0.0, -1.0, lambda now, waited: None)

    def test_zero_hold_is_fine(self):
        loop = EventLoop()
        resource = Resource("r", loop, concurrency=1)
        done = offered(loop, resource, [(0.0, 0.0), (0.0, 0.0)])
        assert [w for _, w in done] == [0.0, 0.0]
