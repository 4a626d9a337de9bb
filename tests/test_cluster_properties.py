"""Hand-rolled property tests: KV-memory invariants under the cluster.

~200 random schedules (50 per router) generated from named
``repro.util.rng`` streams — no hypothesis, so the schedules are stable
across runs and platforms. After *every* cluster iteration we assert
the block-manager/memory-model invariants the whole simulator rests on:

* a request's blocks live on exactly one replica (never double-allocated),
* per-replica KV occupancy never exceeds the pool cap,
* free + used blocks are conserved across admit/finish cycles,
* allocations mirror the running set, and everything drains to empty.
"""

from __future__ import annotations

import pytest

from repro.llm import A40, ClusterSpec, MISTRAL_7B_AWQ
from repro.serving import ClusterEngine, EngineConfig, InferenceRequest, RequestPhase
from repro.serving.cluster import ROUTER_NAMES
from repro.util.rng import RngStreams
from repro.util.units import GB

from invariants import check_invariants
from stepping import drain

SCHEDULES_PER_ROUTER = 50
ROOT_SEED = 99

CONFIG = EngineConfig(
    model=MISTRAL_7B_AWQ,
    cluster=ClusterSpec(A40),
    kv_pool_cap_bytes=int(0.5 * GB),  # ~4k tokens: constant contention
)


def random_schedule(rngs: RngStreams, index: int):
    """One random workload: replica count + request specs with arrivals."""
    rng = rngs.fresh("schedule", index)
    n_replicas = int(rng.integers(1, 5))
    n_requests = int(rng.integers(1, 17))
    specs = []
    t = 0.0
    for _ in range(n_requests):
        t += float(rng.exponential(0.03))
        app = ("" if rng.random() < 0.3
               else f"app-{int(rng.integers(0, 5))}")
        specs.append(dict(
            prompt_tokens=int(rng.integers(1, 1_200)),
            output_tokens=int(rng.integers(1, 25)),
            arrival_time=t,
            app_id=app,
        ))
    return n_replicas, specs


def run_schedule(n_replicas: int, specs: list[dict], router: str,
                 seed: int) -> ClusterEngine:
    engine = ClusterEngine(CONFIG, n_replicas=n_replicas, router=router,
                           seed=seed)
    requests: list[InferenceRequest] = []
    i = 0
    while i < len(specs) or engine.has_work():
        next_t = specs[i]["arrival_time"] if i < len(specs) else float("inf")
        if engine.has_work() and engine.now < next_t:
            engine.step_and_frontier()
            check_invariants(engine)
            continue
        if i >= len(specs):
            break
        engine.advance_and_observe(next_t)
        requests.append(engine.submit(InferenceRequest(**specs[i])))
        check_invariants(engine)
        i += 1

    # Drained: every block free again, every request finished exactly once.
    for replica in engine.replicas:
        assert replica.blocks.free_blocks == replica.blocks.n_blocks
        assert replica.blocks.seq_ids == frozenset()
    assert all(r.phase is RequestPhase.FINISHED for r in requests)
    finished = sum(r.stats.requests_finished for r in engine.replicas)
    assert finished == len(requests)
    # Placement tracking is pruned as requests finish (bounded state).
    assert all(engine.replica_of_request(r.request_id) is None
               for r in requests)
    return engine


@pytest.mark.tier2
@pytest.mark.parametrize("router", ROUTER_NAMES)
def test_kv_invariants_hold_under_random_schedules(router):
    rngs = RngStreams(ROOT_SEED)
    for index in range(SCHEDULES_PER_ROUTER):
        n_replicas, specs = random_schedule(rngs, index)
        run_schedule(n_replicas, specs, router, seed=index)


@pytest.mark.tier2
def test_app_calls_never_split_across_replicas():
    """Sticky routing: every call of one app lands on one replica."""
    rngs = RngStreams(ROOT_SEED + 1)
    for index in range(20):
        n_replicas, specs = random_schedule(rngs, index)
        engine = ClusterEngine(CONFIG, n_replicas=n_replicas,
                               router="least-outstanding", seed=index)
        placements: dict[str, set[int]] = {}
        for spec in specs:
            request = engine.submit(InferenceRequest(**{
                **spec, "arrival_time": 0.0,
            }))
            rid = engine.replica_of_request(request.request_id)
            assert rid is not None and 0 <= rid < n_replicas
            if spec["app_id"]:
                placements.setdefault(spec["app_id"], set()).add(rid)
        drain(engine)
        for app, replicas in placements.items():
            assert len(replicas) == 1, f"{app} split across {replicas}"
