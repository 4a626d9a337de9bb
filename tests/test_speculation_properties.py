"""Property tests: hedging cancellation never leaks.

After any randomized schedule with speculation enabled — arbitrary
arrival rates, SLOs, hedge timers, replica speeds, routers, shard
counts, finite resource pools — the simulation must drain clean:

* every cancelled kernel event is a tombstone (never dispatched; the
  drained loop satisfies ``n_scheduled == n_dispatched + n_cancelled``
  and any entries still in the heap are tombstoned),
* no :class:`~repro.sim.Resource` has a stranded holder
  (``in_service == 0``, empty queue) — cancelled leases released
  their slots,
* KV occupancy returns to zero on every replica (cancelled requests
  freed their block reservations),
* every query is recorded exactly once (first-completion-wins never
  drops or double-counts a query).
"""

from __future__ import annotations

import pytest

from repro.baselines import FixedConfigPolicy
from repro.config.knobs import RAGConfig, SynthesisMethod
from repro.data.workload import poisson_arrivals
from repro.evaluation.pipeline import QueryPipeline
from repro.llm.generation import SimulatedGenerator
from repro.llm.quality import QualityModel
from repro.serving import ClusterEngine, EngineConfig, make_speculation
from repro.llm import A40, ClusterSpec, MISTRAL_7B_AWQ
from repro.util.rng import RngStreams
from repro.util.units import GB

N_SCHEDULES = 24
N_QUERIES = 22

pytestmark = pytest.mark.tier2


def build_pipeline(bundle, seed: int):
    """One randomized hedging scenario drawn from a seeded stream."""
    rng = RngStreams(seed).get("spec", "prop")
    n_replicas = int(rng.integers(2, 4))
    speeds = [float(rng.choice([0.5, 0.75, 1.0, 1.5]))
              for _ in range(n_replicas)]
    router = str(rng.choice(["round-robin", "least-outstanding",
                             "least-kv-load", "power-of-two"]))
    config = EngineConfig(
        model=MISTRAL_7B_AWQ,
        cluster=ClusterSpec(A40),
        # Tight pool: admission stalls make cancellation windows wide.
        kv_pool_cap_bytes=float(rng.choice([1, 2, 8])) * GB,
    )
    engine = ClusterEngine(config, n_replicas=n_replicas, router=router,
                           seed=seed, replica_speeds=speeds)
    slo = float(rng.uniform(1.0, 8.0))
    if rng.random() < 0.5:
        speculation = make_speculation(
            "hedge-after-delay",
            hedge_delay=float(rng.uniform(0.2, 4.0)))
    else:
        speculation = make_speculation("deadline-risk", slo_seconds=slo)
    n_shards = int(rng.choice([1, 2, 4]))
    store = bundle.store
    if n_shards > 1:
        store = store.reshard(n_shards)
    shard_concurrency = ([int(rng.choice([1, 2]))] * n_shards
                         if rng.random() < 0.5 else None)
    pipeline = QueryPipeline(
        bundle=bundle,
        policy=FixedConfigPolicy(
            RAGConfig(SynthesisMethod.STUFF, int(rng.integers(4, 10)))),
        engine=engine,
        generator=SimulatedGenerator(
            quality=QualityModel(bundle.quality_params), root_seed=seed),
        profiler_concurrency=(int(rng.choice([1, 3]))
                              if rng.random() < 0.3 else None),
        store=store,
        shard_concurrency=shard_concurrency,
        speculation=speculation,
        slo_seconds=slo,
    )
    rate = float(rng.uniform(1.0, 6.0))
    arrivals = poisson_arrivals(bundle.queries[:N_QUERIES], rate, seed=seed)
    return pipeline, arrivals


def assert_drained_clean(pipeline) -> None:
    loop = pipeline.loop
    assert len(loop) == 0, "live events left after drain"
    # Every cancelled event died as a tombstone: the dispatch ledger
    # balances exactly, and whatever the queue still holds is
    # tombstoned (lazy deletion never let it fire).
    assert loop.n_scheduled == loop.n_dispatched + loop.n_cancelled
    for entry in loop.queued_entries():
        assert not loop.is_pending(entry[3])

    resources = [pipeline.profiler, *pipeline.shard_resources]
    if pipeline.rerank_resource is not None:
        resources.append(pipeline.rerank_resource)
    for resource in resources:
        assert resource.in_service == 0, \
            f"{resource.name} has a stranded holder"
        assert resource.queue_len == 0, f"{resource.name} queue not empty"

    engine = pipeline.engine
    assert not engine.has_work()
    for replica in engine.replicas:
        assert len(replica.waiting) == 0
        assert len(replica.running) == 0
        assert replica.blocks.used_blocks == 0, "KV occupancy not zero"
        assert replica.blocks.n_sequences == 0


@pytest.mark.parametrize("seed", range(N_SCHEDULES))
def test_random_hedged_schedule_drains_clean(seed, finsec_bundle):
    pipeline, arrivals = build_pipeline(finsec_bundle, seed)
    pipeline.run(arrivals)
    assert_drained_clean(pipeline)
    records = pipeline.records
    assert len(records) == N_QUERIES
    assert len({r.query_id for r in records}) == N_QUERIES
    assert pipeline.n_hedges_armed == sum(1 for r in records if r.hedged)
    # Wasted work only ever comes from hedged queries, and the ledger
    # attribution mirrors the per-record sum.
    for r in records:
        if not r.hedged:
            assert r.wasted_prefill_tokens == 0
            assert r.wasted_decode_tokens == 0
            assert r.speculation_seconds == 0.0
    assert pipeline.speculation_gpu_seconds == pytest.approx(
        sum(r.speculation_seconds for r in records))


def test_closed_loop_hedging_drains_clean(finsec_bundle):
    """Hedging composes with closed-loop refill (completion events
    schedule new arrivals from inside winning-lane callbacks)."""
    from repro.data.workload import sequential_arrivals

    pipeline, _ = build_pipeline(finsec_bundle, seed=7)
    arrivals = sequential_arrivals(finsec_bundle.queries[:N_QUERIES])
    pipeline.run(arrivals, closed_loop_clients=4)
    assert_drained_clean(pipeline)
    assert len(pipeline.records) == N_QUERIES


def build_autoscaled_pipeline(bundle, seed: int):
    """A hedging scenario under an elastic fleet: replicas provision
    and retire mid-schedule while the speculation policy is arming
    hedges, so retirement must never strand a resource holder, a KV
    reservation, or an in-flight hedge lane."""
    from repro.workload import (
        Autoscaler,
        ForecastPolicy,
        ReactivePolicy,
        diurnal_workload,
    )

    rng = RngStreams(seed).get("autoscale", "prop")
    config = EngineConfig(
        model=MISTRAL_7B_AWQ,
        cluster=ClusterSpec(A40),
        kv_pool_cap_bytes=float(rng.choice([1, 2])) * GB,
    )
    router = str(rng.choice(["round-robin", "least-outstanding",
                             "power-of-two"]))
    engine = ClusterEngine(config, n_replicas=2, router=router, seed=seed)
    slo = float(rng.uniform(2.0, 8.0))
    if rng.random() < 0.5:
        speculation = make_speculation(
            "hedge-after-delay", hedge_delay=float(rng.uniform(0.3, 3.0)))
    else:
        speculation = make_speculation("deadline-risk", slo_seconds=slo)
    pipeline = QueryPipeline(
        bundle=bundle,
        policy=FixedConfigPolicy(
            RAGConfig(SynthesisMethod.STUFF, int(rng.integers(4, 10)))),
        engine=engine,
        generator=SimulatedGenerator(
            quality=QualityModel(bundle.quality_params), root_seed=seed),
        speculation=speculation,
        slo_seconds=slo,
    )
    trace = diurnal_workload(
        n_periods=6, period_s=float(rng.uniform(8.0, 14.0)),
        base_qps=0.4, peak_qps=float(rng.uniform(2.0, 4.0)), seed=seed)
    if rng.random() < 0.5:
        policy = ReactivePolicy()
    else:
        policy = ForecastPolicy()
    autoscaler = Autoscaler(
        policy, scale_min=1, scale_max=4,
        interval_s=float(rng.uniform(2.0, 5.0)),
        provision_delay_s=float(rng.uniform(1.0, 6.0)),
        workload=trace,
    )
    arrivals = trace.materialize(bundle.queries[:N_QUERIES], seed=seed)
    return pipeline, autoscaler, arrivals


def assert_retirement_clean(pipeline) -> None:
    """Replica retirement stranded nothing: retired replicas are empty
    and unpinned, and the hedge bookkeeping fully unwound."""
    engine = pipeline.engine
    for rid, replica in enumerate(engine.replicas):
        if engine.retired_at[rid] is not None:
            assert replica.outstanding == 0, \
                f"retired replica {rid} still holds work"
            assert rid not in engine._pins.values(), \
                f"retired replica {rid} still pinned"
    assert not engine._assignments, "request->replica map not unwound"
    # In-flight hedge lanes are covered by assert_drained_clean: a
    # stranded hedge would show up as a live loop event, a nonzero
    # replica outstanding, or an unbalanced cancellation ledger.


@pytest.mark.parametrize("seed", range(12))
def test_autoscaled_hedged_schedule_drains_clean(seed, finsec_bundle):
    pipeline, autoscaler, arrivals = build_autoscaled_pipeline(
        finsec_bundle, seed)
    pipeline.autoscaler = autoscaler
    pipeline.run(arrivals)
    assert_drained_clean(pipeline)
    assert_retirement_clean(pipeline)
    assert len(pipeline.records) == len(arrivals)
    assert len({r.query_id for r in pipeline.records}) == len(arrivals)
    # Fleet conservation: the run started with 2 replicas and wound
    # down to scale_min once the horizon passed and the work drained.
    actions = [e.action for e in autoscaler.events]
    assert 2 + actions.count("add") - actions.count("retire") == 1
    assert pipeline.engine.n_active == 1  # scale_min
