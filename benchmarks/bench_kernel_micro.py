"""Pure-kernel events/sec micro-benchmark (no serving stack).

Exercises the kernel's binary-heap pending set with the schedule /
cancel / reschedule / dispatch mix a hedged, autoscaled run produces:
every "work" event arms a hedge-timeout in the near future, most
timeouts are cancelled before firing (the primary lane won), a
fraction get rescheduled (deadline re-estimation), and the survivors
dispatch — so tombstone skipping and compaction stay on the measured
path, and far-future audits keep the heap holding entries that never
surface until the end. Isolating the kernel from the engine makes
kernel regressions visible even when engine-level wins mask them in
``bench_cluster_events.py``.

Deterministic op tape (seeded streams, generated outside the timed
region); gated as a wall-clock floor in ``check_regression.py``.
"""

from __future__ import annotations

import time

from repro.sim import EventLoop
from repro.util.rng import RngStreams

from conftest import FAST, write_artifact

N_WORK = 4_000 if FAST else 30_000
ROUNDS = 2 if FAST else 5
#: One far-future "retirement audit" per this many work items: it sits
#: in the heap for the whole run. Fixed, like the rest of the op tape,
#: so ops/s stays comparable across kernel versions.
FAR_EVERY = 64


def build_tape() -> list[tuple[float, float, int]]:
    """Pre-generate (arrival, hedge_delay, action) outside the timing.

    action: 0 = cancel the previous hedge (primary lane won),
    1 = reschedule it earlier (deadline re-estimate), 2 = leave it to
    fire (hedge lane won).
    """
    rng = RngStreams(11).get("bench", "kernel-micro")
    tape, t = [], 0.0
    for _ in range(N_WORK):
        t += float(rng.exponential(0.004))
        delay = float(rng.uniform(0.02, 0.4))
        u = float(rng.random())
        action = 0 if u < 0.70 else (1 if u < 0.85 else 2)
        tape.append((t, delay, action))
    return tape


def drive_once(tape: list[tuple[float, float, int]]) -> dict[str, int]:
    """Run the tape through a fresh loop; returns kernel op counts."""
    loop = EventLoop()
    hedges: list = []

    def on_timeout(now: float, _payload: object) -> None:
        pass

    def on_work(now: float, item: tuple[float, float, int]) -> None:
        _, delay, action = item
        if hedges:
            prev = hedges.pop()
            if action == 0:
                loop.cancel(prev)
            elif action == 1 and loop.is_pending(prev):
                hedges.append(loop.reschedule(prev, now + delay * 0.5))
        hedges.append(loop.schedule(now + delay, "hedge-timeout",
                                    on_timeout))

    for i, item in enumerate(tape):
        loop.schedule(item[0], "work", on_work, item)
        if i % FAR_EVERY == 0:
            # Far beyond the frontier: dispatches after all the work.
            loop.schedule(item[0] + 10_000.0, "audit", on_timeout)
    loop.run()
    assert loop.n_scheduled == loop.n_dispatched + loop.n_cancelled
    return {
        "scheduled": loop.n_scheduled,
        "dispatched": loop.n_dispatched,
        "cancelled": loop.n_cancelled,
    }


def test_kernel_micro_throughput():
    tape = build_tape()
    drive_once(tape)  # warm-up
    timings, counts = [], {}
    for _ in range(ROUNDS):
        start = time.perf_counter()
        counts = drive_once(tape)
        timings.append(time.perf_counter() - start)
    best = min(timings)
    # Every schedule eventually dispatches or is cancelled; count all
    # three op kinds — they are the kernel work being measured.
    ops = counts["scheduled"] + counts["dispatched"] + counts["cancelled"]
    ops_per_sec = ops / best if best > 0 else 0.0
    assert counts["cancelled"] > N_WORK // 2  # the hedge mix engaged
    assert counts["dispatched"] > N_WORK  # work + surviving timeouts

    artifact = write_artifact("kernel_micro.json", {
        "benchmark": "kernel_micro_throughput",
        "n_work": N_WORK,
        "ops_per_run": ops,
        **counts,
        "best_seconds": best,
        "ops_per_sec": ops_per_sec,
        "fast_mode": FAST,
    })
    print(f"\nkernel micro: {ops_per_sec:,.0f} kernel ops/sec "
          f"({counts['dispatched']} dispatches, "
          f"{counts['cancelled']} cancels) -> {artifact}")
