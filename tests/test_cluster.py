"""Unit and integration tests for the multi-replica serving cluster."""

from __future__ import annotations

import pytest

from repro.core import MetisConfig, MetisPolicy
from repro.core.policy import PrepResult, SchedulingView
from repro.core.profiles import QueryProfile
from repro.evaluation.reports import cluster_summary, per_replica_rows
from repro.experiments.common import make_metis, run_policy
from repro.llm import A40, ClusterSpec, MISTRAL_7B_AWQ
from repro.serving import (
    ClusterEngine,
    EngineConfig,
    InferenceRequest,
    ServingEngine,
)
from repro.serving.cluster import (
    LeastKVLoadRouter,
    LeastOutstandingRouter,
    PowerOfTwoRouter,
    RoundRobinRouter,
    ROUTER_NAMES,
    make_router,
)
from repro.util.units import GB

from stepping import drain, record_steps

KV_BYTES = 131_072  # Mistral-7B per token


def build_config(pool_gb: float = 1.0, policy: str = "fcfs") -> EngineConfig:
    return EngineConfig(
        model=MISTRAL_7B_AWQ,
        cluster=ClusterSpec(A40),
        kv_pool_cap_bytes=int(pool_gb * GB),
        policy=policy,
    )


def request(prompt=500, out=8, t=0.0, app=""):
    return InferenceRequest(prompt_tokens=prompt, output_tokens=out,
                            arrival_time=t, app_id=app)


def drive_arrivals(engine, specs):
    """Runner-style interleave of arrivals and iterations."""
    requests = []
    i = 0
    while i < len(specs) or engine.has_work():
        next_t = specs[i][2] if i < len(specs) else float("inf")
        if engine.has_work() and engine.now < next_t:
            engine.step_and_frontier()
            continue
        if i >= len(specs):
            break
        engine.advance_and_observe(next_t)
        prompt, out, t = specs[i]
        requests.append(engine.submit(request(prompt, out, t)))
        i += 1
    return requests


# ----------------------------------------------------------------------
# Routers
# ----------------------------------------------------------------------
class TestRouters:
    def test_round_robin_cycles(self):
        engine = ClusterEngine(build_config(), 3, router="round-robin")
        picks = [engine.submit(request()).request_id for _ in range(6)]
        replicas = [engine.replica_of_request(rid) for rid in picks]
        assert replicas == [0, 1, 2, 0, 1, 2]

    def test_least_outstanding_picks_emptier_replica(self):
        engine = ClusterEngine(build_config(), 2, router="least-outstanding")
        engine.replicas[0].submit(request())
        engine.replicas[0].submit(request())
        engine.replicas[1].submit(request())
        router = LeastOutstandingRouter()
        assert router.select(engine.replicas) == 1

    def test_least_kv_load_picks_freest_replica(self):
        engine = ClusterEngine(build_config(), 2, router="least-kv-load")
        # Queue a large request on replica 0: its claimable KV drops
        # even before admission (waiting demand counts).
        engine.replicas[0].submit(request(prompt=4_000, out=32))
        router = LeastKVLoadRouter()
        assert router.select(engine.replicas) == 1

    def test_least_kv_load_ties_break_by_outstanding_then_index(self):
        engine = ClusterEngine(build_config(), 3, router="least-kv-load")
        router = LeastKVLoadRouter()
        assert router.select(engine.replicas) == 0

    def test_power_of_two_is_deterministic_given_seed(self):
        def selections(seed):
            engine = ClusterEngine(build_config(), 4, router="round-robin")
            router = PowerOfTwoRouter(seed=seed)
            return [router.select(engine.replicas) for _ in range(32)]

        assert selections(7) == selections(7)
        assert selections(7) != selections(8)  # streams actually differ

    def test_power_of_two_prefers_less_loaded_of_pair(self):
        engine = ClusterEngine(build_config(), 2, router="round-robin")
        engine.replicas[0].submit(request())
        router = PowerOfTwoRouter(seed=0)
        # With n=2 every draw probes both replicas; 1 is always emptier.
        assert all(router.select(engine.replicas) == 1 for _ in range(8))

    def test_single_replica_degenerates_everywhere(self):
        for name in ROUTER_NAMES:
            engine = ClusterEngine(build_config(), 1, router=name)
            assert engine.submit(request()) is not None
            assert engine.replica_of_request(
                engine.replicas[0].waiting[0].request_id) == 0

    def test_make_router_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown router"):
            make_router("least-recently-sacrificed")

    def test_round_robin_counter_does_not_grow_unbounded(self):
        router = RoundRobinRouter()
        engine = ClusterEngine(build_config(), 2, router=router)
        for _ in range(5):
            router.select(engine.replicas)
        assert router._next in (0, 1)


# ----------------------------------------------------------------------
# Cluster semantics
# ----------------------------------------------------------------------
class TestClusterEngine:
    def test_rejects_nonpositive_replicas(self):
        with pytest.raises(ValueError):
            ClusterEngine(build_config(), 0)

    def test_step_on_idle_cluster_raises(self):
        with pytest.raises(RuntimeError, match="idle cluster"):
            ClusterEngine(build_config(), 2).step_and_frontier()

    def test_lockstep_steps_the_lagging_replica(self):
        engine = ClusterEngine(build_config(), 2, router="round-robin")
        requests = [engine.submit(request(prompt=2_000, out=16)),  # -> 0
                    engine.submit(request(prompt=200, out=2))]     # -> 1
        trace = record_steps(
            engine, {r.request_id: i for i, r in enumerate(requests)})
        last_now = 0.0
        while engine.has_work():
            lagging = min((r.now, i) for i, r in enumerate(engine.replicas)
                          if r.has_work())[1]
            frontier = engine.step_and_frontier()
            assert trace[-1].replica == lagging
            assert frontier == (engine.now if engine.has_work() else None)
            assert engine.now >= last_now or not engine.has_work()
            last_now = engine.now
        assert {step.replica for step in trace} == {0, 1}

    def test_now_is_min_busy_clock_then_max_idle_clock(self):
        engine = ClusterEngine(build_config(), 2, router="round-robin")
        engine.submit(request(prompt=3_000, out=24))   # replica 0: long
        engine.submit(request(prompt=100, out=1))      # replica 1: short
        drain(engine)
        assert engine.now == max(r.now for r in engine.replicas)

    def test_advance_and_observe_moves_every_replica_forward_only(self):
        engine = ClusterEngine(build_config(), 2, router="round-robin")
        assert engine.advance_and_observe(5.0) == 5.0
        assert all(r.now == 5.0 for r in engine.replicas)
        assert engine.advance_and_observe(1.0) == 5.0
        assert all(r.now == 5.0 for r in engine.replicas)

    def test_stats_aggregate_across_replicas(self):
        engine = ClusterEngine(build_config(), 2, router="round-robin")
        for i in range(6):
            engine.submit(request(app=f"q{i}"))
        drain(engine)
        agg = engine.stats
        assert agg.requests_finished == 6
        assert agg.iterations == sum(r.stats.iterations
                                     for r in engine.replicas)
        assert agg.peak_kv_utilization == max(r.stats.peak_kv_utilization
                                              for r in engine.replicas)

    def test_pin_app_overrides_router(self):
        engine = ClusterEngine(build_config(), 3, router="round-robin")
        engine.pin_app("q", 2)
        engine.submit(request(app="q"))
        assert engine.replica_of_app("q") == 2
        assert len(engine.replicas[2].waiting) == 1

    def test_pin_app_validates_replica_id(self):
        engine = ClusterEngine(build_config(), 2)
        with pytest.raises(ValueError):
            engine.pin_app("q", 5)

    def test_release_app_allows_rerouting(self):
        engine = ClusterEngine(build_config(), 2, router="round-robin")
        engine.submit(request(app="q"))  # pins q -> 0
        engine.release_app("q")
        assert engine.replica_of_app("q") is None

    def test_snapshots_reflect_load(self):
        engine = ClusterEngine(build_config(), 2, router="round-robin")
        engine.submit(request())
        snaps = engine.snapshots()
        assert [s.replica_id for s in snaps] == [0, 1]
        assert snaps[0].queue_depth == 1
        assert snaps[1].queue_depth == 0
        assert snaps[1].free_kv_bytes > 0


# ----------------------------------------------------------------------
# Scaling and monotonicity (the cluster's reason to exist)
# ----------------------------------------------------------------------
class TestScaling:
    def _makespan(self, n_replicas: int, router: str = "least-outstanding"):
        engine = ClusterEngine(build_config(), n_replicas, router=router)
        for _ in range(60):
            engine.submit(request(prompt=1_000, out=8))
        drain(engine)
        return engine.now

    def test_two_replicas_scale_throughput_at_least_1_8x(self):
        """The ISSUE's acceptance bar: >= 1.8x aggregate throughput
        from 1 -> 2 replicas under saturating load."""
        ratio = self._makespan(1) / self._makespan(2)
        assert ratio >= 1.8, f"1->2 replica scaling only {ratio:.2f}x"

    def test_four_replicas_keep_scaling(self):
        assert self._makespan(1) / self._makespan(4) >= 3.0

    @pytest.mark.tier2
    @pytest.mark.parametrize("router", ROUTER_NAMES)
    def test_p50_queue_delay_monotone_in_replicas(self, router):
        """Adding a replica never increases p50 queue delay on the
        canonical saturating workload."""
        specs = [(800, 8, 0.02 * (i + 1)) for i in range(80)]

        def p50(n_replicas):
            engine = ClusterEngine(build_config(), n_replicas,
                                   router=router, seed=3)
            requests = drive_arrivals(engine, specs)
            delays = sorted(r.admitted_time - r.arrival_time
                            for r in requests)
            return delays[len(delays) // 2]

        delays = [p50(n) for n in (1, 2, 3, 4)]
        for smaller, larger in zip(delays[1:], delays):
            assert smaller <= larger + 1e-9, f"{router}: {delays}"


# ----------------------------------------------------------------------
# Cluster-level scheduling view / controller cluster mode
# ----------------------------------------------------------------------
def make_cluster_view(per_replica_tokens, routed: int) -> SchedulingView:
    avail = tuple(t * KV_BYTES for t in per_replica_tokens)
    return SchedulingView(
        now=0.0,
        free_kv_bytes=avail[routed],
        available_kv_bytes=avail[routed],
        kv_bytes_per_token=KV_BYTES,
        chunk_tokens=500, query_tokens=30, answer_tokens=20,
        replica_id=routed,
        replica_free_kv_bytes=avail,
        replica_available_kv_bytes=avail,
    )


def metis(**config_kwargs) -> MetisPolicy:
    return MetisPolicy(metadata_tokens=40, chunk_tokens=500,
                       config=MetisConfig(**config_kwargs), seed=0)


def prep() -> PrepResult:
    return PrepResult(
        profile=QueryProfile(complexity_high=True, joint_reasoning=True,
                             pieces=3, summary_range=(60, 120),
                             confidence=0.95),
        api_seconds=0.1, dollars=1e-4,
    )


class TestClusterView:
    def test_for_replica_swaps_scalars(self):
        view = make_cluster_view((100, 50_000), routed=0)
        other = view.for_replica(1)
        assert other.replica_id == 1
        assert other.available_kv_bytes == 50_000 * KV_BYTES
        assert other.replica_available_kv_bytes == view.replica_available_kv_bytes

    def test_for_replica_bounds_checked(self):
        with pytest.raises(ValueError):
            make_cluster_view((100, 200), routed=0).for_replica(2)

    def test_best_replica_ties_break_low(self):
        assert make_cluster_view((5, 5, 5), routed=1).best_replica() == 0
        assert make_cluster_view((5, 9, 9), routed=0).best_replica() == 1


class TestControllerClusterMode:
    def test_rescue_moves_query_to_freest_replica(self, finsec_bundle):
        """Routed replica starved, sibling ample: the controller
        re-places instead of degrading the configuration."""
        policy = metis()
        view = make_cluster_view((0, 1_000_000), routed=0)
        decision = policy.choose(finsec_bundle.queries[0], prep(), view)
        assert not decision.fell_back
        assert decision.preferred_replica == 1
        assert decision.pruned_space.contains(decision.config)

    def test_no_rescue_when_every_replica_starved(self, finsec_bundle):
        policy = metis()
        view = make_cluster_view((0, 0, 0), routed=1)
        decision = policy.choose(finsec_bundle.queries[0], prep(), view)
        assert decision.fell_back
        assert decision.preferred_replica is None

    def test_no_rescue_on_single_replica_view(self, finsec_bundle):
        policy = metis()
        view = make_cluster_view((0,), routed=0)
        decision = policy.choose(finsec_bundle.queries[0], prep(), view)
        assert decision.fell_back
        assert decision.preferred_replica is None

    def test_plain_view_unaffected(self, finsec_bundle):
        """Bare-engine views take the exact pre-cluster path."""
        policy = metis()
        from test_controller import make_view  # same fixtures/idiom
        decision = policy.choose(finsec_bundle.queries[0], prep(),
                                 make_view(1e6))
        assert not decision.fell_back
        assert decision.preferred_replica is None


# ----------------------------------------------------------------------
# Runner integration + report aggregation
# ----------------------------------------------------------------------
class TestRunnerIntegration:
    @pytest.fixture(scope="class")
    def cluster_run(self, finsec_bundle):
        policy = make_metis(finsec_bundle, seed=0)
        return run_policy(finsec_bundle, policy, rate_qps=8.0, seed=0,
                          n_replicas=2, router="least-kv-load")

    def test_all_queries_complete(self, cluster_run, finsec_bundle):
        assert len(cluster_run.records) == len(finsec_bundle.queries)

    def test_records_carry_replica_ids(self, cluster_run):
        replicas = {r.replica for r in cluster_run.records}
        assert replicas == {0, 1}  # both replicas actually served

    def test_replica_stats_cover_all_requests(self, cluster_run):
        assert len(cluster_run.replica_stats) == 2
        per_replica = sum(s.requests_finished
                          for s in cluster_run.replica_stats)
        assert per_replica == cluster_run.engine_stats.requests_finished
        assert per_replica >= len(cluster_run.records)  # >=1 call/query

    def test_per_replica_rows_shape(self, cluster_run):
        rows = per_replica_rows(cluster_run)
        assert [row["replica"] for row in rows] == [0, 1]
        assert sum(row["queries"] for row in rows) == len(cluster_run.records)
        for row in rows:
            assert 0.0 <= row["fallback_rate"] <= 1.0
            assert 0.0 <= row["peak_kv_utilization"] <= 1.0

    def test_cluster_summary_aggregates(self, cluster_run):
        summary = cluster_summary(cluster_run)
        assert summary["n_replicas"] == 2
        assert summary["queries"] == len(cluster_run.records)
        assert summary["load_imbalance"] >= 1.0
        assert summary["busy_seconds"] == pytest.approx(
            cluster_run.engine_stats.busy_seconds)

    def test_single_replica_run_unchanged_shape(self, finsec_bundle):
        result = run_policy(finsec_bundle, make_metis(finsec_bundle),
                            rate_qps=4.0, n_replicas=1)
        assert len(result.replica_stats) == 1
        assert all(r.replica == 0 for r in result.records)
        assert cluster_summary(result)["n_replicas"] == 1

    def test_invalid_replicas_rejected(self, finsec_bundle):
        from repro.evaluation.runner import ExperimentRunner
        with pytest.raises(ValueError):
            ExperimentRunner(finsec_bundle, build_config(), n_replicas=0)
