"""Events/sec micro-benchmark for the event-driven cluster stepping.

Measures how fast the kernel pushes a multi-replica cluster through a
full workload when every engine iteration is a first-class event
(StepDriver arming/wake/sleep/reschedule included), and writes a JSON
artifact (``bench_cluster_events.json``) so event-loop regressions
are diffable across runs. Runs under plain pytest (no
pytest-benchmark dependency) so the CI ``--fast`` smoke job can
execute it on a bare ``numpy + pytest`` install.
"""

from __future__ import annotations

import time

from repro.llm import A40, ClusterSpec, MISTRAL_7B_AWQ
from repro.serving import ClusterEngine, EngineConfig, InferenceRequest
from repro.sim import EventLoop
from repro.util.rng import RngStreams
from repro.util.units import GB

from conftest import FAST, write_artifact

N_REPLICAS = 4
N_REQUESTS = 60 if FAST else 300
ROUNDS = 2 if FAST else 5


def build_cluster() -> ClusterEngine:
    config = EngineConfig(
        model=MISTRAL_7B_AWQ,
        cluster=ClusterSpec(A40),
        kv_pool_cap_bytes=1 * GB,  # tight: admission stalls + queueing
    )
    return ClusterEngine(config, n_replicas=N_REPLICAS,
                         router="least-outstanding")


def workload() -> list[dict]:
    rng = RngStreams(7).get("bench", "cluster-events")
    specs, t = [], 0.0
    for _ in range(N_REQUESTS):
        t += float(rng.exponential(0.01))
        specs.append(dict(
            prompt_tokens=int(rng.integers(100, 1_500)),
            output_tokens=int(rng.integers(1, 24)),
            arrival_time=t,
            app_id=f"app-{int(rng.integers(0, 16))}",
        ))
    return specs


def drive_once(specs: list[dict]) -> tuple[int, int]:
    """One full event-driven run; returns (dispatches, engine steps)."""
    cluster = build_cluster()
    loop = EventLoop()
    driver = cluster.attach(loop)
    for spec in specs:
        loop.schedule(spec["arrival_time"], "arrival",
                      lambda t, s: cluster.submit(InferenceRequest(**s)),
                      spec)
    loop.run()
    assert not cluster.has_work()
    return loop.n_dispatched, driver.n_steps


def test_cluster_event_throughput():
    specs = workload()
    drive_once(specs)  # warm-up (imports, caches)
    timings = []
    dispatched = steps = 0
    for _ in range(ROUNDS):
        start = time.perf_counter()
        dispatched, steps = drive_once(specs)
        timings.append(time.perf_counter() - start)
    best = min(timings)
    events_per_sec = dispatched / best if best > 0 else 0.0
    assert dispatched == steps + N_REQUESTS  # step events + arrivals
    assert steps > N_REQUESTS  # a real multi-iteration serving run

    artifact = write_artifact("bench_cluster_events.json", {
        "benchmark": "cluster_event_throughput",
        "n_replicas": N_REPLICAS,
        "n_requests": N_REQUESTS,
        "events_per_run": dispatched,
        "engine_steps_per_run": steps,
        "best_seconds": best,
        "events_per_sec": events_per_sec,
        "fast_mode": FAST,
    })
    print(f"\ncluster events: {events_per_sec:,.0f} events/sec "
          f"({steps} steps, {N_REPLICAS} replicas) -> {artifact}")
