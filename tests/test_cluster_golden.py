"""Golden-trace regression: the cluster layer adds zero behavioral drift.

A fixed-seed 50-request workload is driven through a bare
:class:`ServingEngine` and through a 1-replica :class:`ClusterEngine`
(every router), interleaving arrivals with engine iterations exactly
like the experiment runner. The two step traces must be identical step
for step — same clock after each step, same running batch in admission
order, same finished requests — and so must every request's admitted,
prefill-done and finish instants and the final ``EngineStats``.
"""

from __future__ import annotations

import pytest

from repro.llm import A40, ClusterSpec, MISTRAL_7B_AWQ
from repro.serving import (
    ClusterEngine,
    EngineConfig,
    InferenceRequest,
    ServingEngine,
)
from repro.serving.cluster import ROUTER_NAMES
from repro.util.rng import RngStreams
from repro.util.units import GB

from stepping import drive_lockstep

N_REQUESTS = 50
GOLDEN_SEED = 1234


def build_config(policy: str) -> EngineConfig:
    return EngineConfig(
        model=MISTRAL_7B_AWQ,
        cluster=ClusterSpec(A40),
        kv_pool_cap_bytes=1 * GB,  # tight enough that admission stalls
        policy=policy,
    )


def request_specs(seed: int = GOLDEN_SEED) -> list[dict]:
    rng = RngStreams(seed).get("golden", "workload")
    specs: list[dict] = []
    t = 0.0
    for _ in range(N_REQUESTS):
        t += float(rng.exponential(0.05))
        specs.append(dict(
            prompt_tokens=int(rng.integers(50, 2_500)),
            output_tokens=int(rng.integers(1, 40)),
            arrival_time=t,
            app_id=f"app-{int(rng.integers(0, 12))}",
        ))
    return specs


@pytest.mark.parametrize("policy", ["fcfs", "app-aware"])
def test_one_replica_cluster_is_trace_identical(policy):
    specs = request_specs()
    engine = ServingEngine(build_config(policy))
    golden = drive_lockstep(engine, specs)
    assert len(golden[0]) > N_REQUESTS  # sanity: real multi-iteration run

    for router in ROUTER_NAMES:
        cluster = ClusterEngine(build_config(policy), n_replicas=1,
                                router=router, seed=GOLDEN_SEED)
        run = drive_lockstep(cluster, specs)
        # Byte-for-byte: same floats, same batches, same orderings.
        assert repr(run) == repr(golden), f"router {router} drifted"
        assert cluster.stats == engine.stats


def test_golden_trace_is_seed_stable():
    """The same seed replays the same trace across engine instances."""
    specs = request_specs()
    a = ServingEngine(build_config("fcfs"))
    b = ServingEngine(build_config("fcfs"))
    assert drive_lockstep(a, specs) == drive_lockstep(b, specs)
    assert a.stats == b.stats
