"""Speculative deadline-aware scheduling: policies, kernel-level
cancellation (leases, engine requests, hedge-arm events), cost
attribution, and the byte-identity of the disabled path."""

from __future__ import annotations

import pytest

from repro.baselines import FixedConfigPolicy
from repro.config.knobs import RAGConfig, SynthesisMethod
from repro.data.workload import poisson_arrivals
from repro.evaluation.runner import ExperimentRunner
from repro.llm import A40, ClusterSpec, MISTRAL_7B_AWQ
from repro.serving import (
    ClusterEngine,
    EngineConfig,
    InferenceRequest,
    RequestPhase,
    ServingEngine,
)
from repro.serving.speculation import (
    DeadlineRisk,
    HedgeAfterDelay,
    HedgeContext,
    NoSpeculation,
    SPECULATION_NAMES,
    estimate_plan_seconds,
    make_speculation,
)
from repro.sim import EventLoop, Lease, Resource
from repro.util.units import GB

STUFF6 = RAGConfig(SynthesisMethod.STUFF, 6)
STUFF8 = RAGConfig(SynthesisMethod.STUFF, 8)


def fingerprint(result) -> list[tuple]:
    return [
        (r.query_id, r.arrival_time, r.decision_time, r.finish_time,
         r.f1, r.queueing_delay, r.prefill_tokens, r.output_tokens,
         r.replica, r.config)
        for r in result.records
    ]


def ctx(arrival=0.0, decision=0.1, deadline=None, est=1.0, primary=0,
        outstanding=(0, 0), speeds=(1.0, 1.0)) -> HedgeContext:
    return HedgeContext(
        arrival_time=arrival, decision_time=decision, deadline=deadline,
        est_service_seconds=est, primary=primary,
        replica_outstanding=outstanding, replica_speeds=speeds,
    )


# ----------------------------------------------------------------------
# Policies
# ----------------------------------------------------------------------
class TestPolicies:
    def test_none_never_hedges(self):
        assert NoSpeculation().hedge_time(
            ctx(deadline=0.2, est=100.0)) is None

    def test_hedge_after_delay_timer(self):
        policy = HedgeAfterDelay(2.0)
        assert policy.hedge_time(ctx(arrival=1.0, decision=1.1)) == 3.0

    def test_hedge_after_delay_never_before_decision(self):
        policy = HedgeAfterDelay(0.5)
        # arrival+delay = 1.5 trails the decision at 2.0: clamp forward.
        assert policy.hedge_time(ctx(arrival=1.0, decision=2.0)) == 2.0

    def test_hedge_after_delay_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            HedgeAfterDelay(0.0)

    def test_deadline_risk_safe_query_not_hedged(self):
        policy = DeadlineRisk()
        assert policy.hedge_time(
            ctx(deadline=100.0, est=1.0, outstanding=(0, 0))) is None

    def test_deadline_risk_hedges_overloaded_primary(self):
        policy = DeadlineRisk()
        t = policy.hedge_time(
            ctx(deadline=3.0, est=1.0, outstanding=(10, 0)))
        assert t is not None
        # Armed no earlier than the decision, no later than the
        # deadline (a hedge after the deadline is pointless).
        assert 0.1 <= t <= 3.0

    def test_deadline_risk_arm_time_clamped_to_decision(self):
        # Deadline already hopeless: arm immediately, not in the past.
        policy = DeadlineRisk()
        t = policy.hedge_time(
            ctx(decision=5.0, deadline=5.1, est=10.0, outstanding=(4, 0)))
        assert t == 5.0

    def test_deadline_risk_without_deadline_is_inert(self):
        assert DeadlineRisk().hedge_time(ctx(deadline=None)) is None

    def test_choose_replica_prefers_fast_underloaded(self):
        policy = HedgeAfterDelay(1.0)
        # Replica 2 is fast and empty; replica 1 slow; 0 is primary.
        assert policy.choose_replica((5, 0, 0), (1.0, 0.5, 1.0), 0) == 2
        # Normalised load: 4 queries at 2.0x beat 3 queries at 1.0x.
        assert policy.choose_replica((0, 4, 3), (1.0, 2.0, 1.0), 0) == 1

    def test_choose_replica_excludes_primary_and_singletons(self):
        policy = HedgeAfterDelay(1.0)
        assert policy.choose_replica((0,), (1.0,), 0) is None
        assert policy.choose_replica((0, 9), (1.0, 1.0), 0) == 1


class TestMakeSpeculation:
    def test_names_cover_factory(self):
        assert SPECULATION_NAMES == ("none", "hedge-after-delay",
                                     "deadline-risk")
        assert make_speculation("none") is None
        assert make_speculation(None) is None
        assert isinstance(
            make_speculation("hedge-after-delay", hedge_delay=1.0),
            HedgeAfterDelay)
        assert isinstance(
            make_speculation("deadline-risk", slo_seconds=5.0),
            DeadlineRisk)

    def test_delay_defaults_to_half_slo(self):
        policy = make_speculation("hedge-after-delay", slo_seconds=8.0)
        assert policy.delay == 4.0

    def test_misuse_fails_fast(self):
        with pytest.raises(ValueError, match="hedge-delay"):
            make_speculation("hedge-after-delay")
        with pytest.raises(ValueError, match="slo-seconds"):
            make_speculation("deadline-risk")
        with pytest.raises(ValueError, match="unknown speculation"):
            make_speculation("telepathy")

    def test_stray_hedge_delay_rejected(self):
        """A timer the selected policy would silently ignore is an
        error, not a no-op — for strings, None, and instances alike."""
        with pytest.raises(ValueError, match="only applies"):
            make_speculation("deadline-risk", slo_seconds=5.0,
                             hedge_delay=2.0)
        with pytest.raises(ValueError, match="only applies"):
            make_speculation("none", hedge_delay=2.0)
        with pytest.raises(ValueError, match="only applies"):
            make_speculation(None, hedge_delay=2.0)
        with pytest.raises(ValueError, match="only applies"):
            make_speculation(DeadlineRisk(), hedge_delay=2.0)

    def test_needs_estimate_flags(self):
        """The pipeline skips the per-query plan estimate for pure
        timers; the model-based policy requires it."""
        assert HedgeAfterDelay(1.0).needs_estimate is False
        assert DeadlineRisk().needs_estimate is True

    def test_passthrough_instances(self):
        policy = DeadlineRisk()
        assert make_speculation(policy) is policy
        assert make_speculation(NoSpeculation()) is None


class TestEstimatePlanSeconds:
    def test_stages_sum_calls_max(self, engine_config):
        from repro.synthesis.plans import LLMCall, SynthesisPlan

        engine = ServingEngine(engine_config)
        one = SynthesisPlan("q", (LLMCall("a", 500, 20),))
        two = SynthesisPlan("q", (LLMCall("a", 500, 20),
                                  LLMCall("b", 500, 20, stage=1)))
        wide = SynthesisPlan("q", (LLMCall("a", 500, 20),
                                   LLMCall("b", 500, 20)))
        s1 = estimate_plan_seconds(one, engine.cost)
        assert s1 > 0
        # Sequential stages add; parallel calls within a stage don't.
        assert estimate_plan_seconds(two, engine.cost) == pytest.approx(2 * s1)
        assert estimate_plan_seconds(wide, engine.cost) == pytest.approx(s1)


# ----------------------------------------------------------------------
# Resource lease cancellation
# ----------------------------------------------------------------------
class TestLeaseCancellation:
    def test_cancel_queued_lease_never_fires(self):
        loop = EventLoop()
        fired = []
        res = Resource("pool", loop, concurrency=1)
        res.request(0.0, 1.0, lambda t, w: fired.append(("a", t)))
        queued = res.request(0.0, 1.0, lambda t, w: fired.append(("b", t)))
        assert queued.state == Lease.QUEUED
        assert queued.cancel(0.5) is True
        loop.run()
        assert fired == [("a", 1.0)]
        assert res.in_service == 0 and res.queue_len == 0
        assert res.stats.n_cancelled == 1

    def test_cancel_held_lease_releases_slot_to_waiter(self):
        loop = EventLoop()
        fired = []
        res = Resource("pool", loop, concurrency=1)
        held = res.request(0.0, 10.0, lambda t, w: fired.append(("a", t)))
        res.request(0.0, 1.0, lambda t, w: fired.append(("b", t, w)))
        # Cancel mid-hold at t=2: the waiter is granted at 2, not 10.
        loop.schedule(2.0, "cancel", lambda t, _: held.cancel(t))
        loop.run()
        assert fired == [("b", 3.0, 2.0)]
        # The completion event became a tombstone, never dispatched.
        assert loop.n_cancelled == 1
        assert res.in_service == 0 and res.queue_len == 0
        # busy_seconds reclaimed the unused 8s tail: 2 used + 1 waiter.
        assert res.stats.busy_seconds == pytest.approx(3.0)

    def test_cancel_done_lease_is_noop(self):
        loop = EventLoop()
        res = Resource("pool", loop)
        lease = res.request(0.0, 1.0, lambda t, w: None)
        loop.run()
        assert lease.state == Lease.DONE
        assert lease.cancel(2.0) is False
        assert res.stats.n_cancelled == 0

    def test_cancel_twice_is_noop(self):
        loop = EventLoop()
        res = Resource("pool", loop, concurrency=1)
        lease = res.request(0.0, 5.0, lambda t, w: None)
        assert lease.cancel(1.0) is True
        assert lease.cancel(1.5) is False
        assert res.stats.n_cancelled == 1

    def test_cancel_before_grant_time_rejected(self):
        loop = EventLoop()
        res = Resource("pool", loop)
        lease = res.request(3.0, 5.0, lambda t, w: None)
        with pytest.raises(ValueError, match="precedes"):
            lease.cancel(1.0)

    def test_foreign_lease_rejected(self):
        loop = EventLoop()
        a, b = Resource("a", loop), Resource("b", loop)
        lease = a.request(0.0, 1.0, lambda t, w: None)
        with pytest.raises(ValueError, match="belongs to"):
            b.cancel(lease, 0.5)


# ----------------------------------------------------------------------
# Engine / cluster request cancellation
# ----------------------------------------------------------------------
def tight_config(policy: str = "fcfs") -> EngineConfig:
    return EngineConfig(
        model=MISTRAL_7B_AWQ,
        cluster=ClusterSpec(A40),
        kv_pool_cap_bytes=1 * GB,
        policy=policy,
    )


class TestEngineCancel:
    def test_cancel_waiting_request(self):
        engine = ServingEngine(tight_config())
        req = engine.submit(InferenceRequest(
            prompt_tokens=100, output_tokens=5, arrival_time=0.0))
        assert engine.cancel(req) is True
        assert req.phase is RequestPhase.CANCELLED
        assert not engine.has_work()
        assert engine.stats.requests_cancelled == 1
        assert engine.stats.cancelled_prefill_tokens == 0

    def test_cancel_running_request_frees_kv(self):
        engine = ServingEngine(tight_config())
        req = engine.submit(InferenceRequest(
            prompt_tokens=3_000, output_tokens=50, arrival_time=0.0))
        engine.step()  # admit + first prefill chunk
        assert req.phase is RequestPhase.PREFILL
        assert engine.blocks.used_blocks > 0
        done = []
        req.on_finish = lambda r, t: done.append(r)
        assert engine.cancel(req) is True
        assert engine.blocks.used_blocks == 0
        assert not engine.has_work()
        assert req.phase is RequestPhase.CANCELLED
        assert req.cancel_time == engine.now
        # Partial progress is recorded as wasted work; on_finish never
        # fires for a cancelled request.
        assert engine.stats.cancelled_prefill_tokens == req.prefilled_tokens > 0
        assert done == []

    def test_cancel_finished_or_foreign_is_noop(self):
        engine = ServingEngine(tight_config())
        req = engine.submit(InferenceRequest(
            prompt_tokens=100, output_tokens=2, arrival_time=0.0))
        engine.run_until_idle()
        assert req.phase is RequestPhase.FINISHED
        assert engine.cancel(req) is False
        other = InferenceRequest(
            prompt_tokens=100, output_tokens=2, arrival_time=0.0)
        assert engine.cancel(other) is False
        assert engine.stats.requests_cancelled == 0

    def test_cluster_cancel_resolves_placement(self):
        cluster = ClusterEngine(tight_config(), n_replicas=2,
                                router="round-robin")
        r0 = cluster.submit(InferenceRequest(
            prompt_tokens=100, output_tokens=5, arrival_time=0.0,
            app_id="a"))
        r1 = cluster.submit(InferenceRequest(
            prompt_tokens=100, output_tokens=5, arrival_time=0.0,
            app_id="b"))
        assert cluster.replica_of_request(r1.request_id) == 1
        assert cluster.cancel(r1) is True
        assert cluster.replica_of_request(r1.request_id) is None
        assert cluster.cancel(r1) is False  # already gone
        assert cluster.replicas[1].stats.requests_cancelled == 1
        assert cluster.stats.requests_cancelled == 1  # aggregated
        assert cluster.cancel(InferenceRequest(
            prompt_tokens=10, output_tokens=1, arrival_time=0.0)) is False
        cluster.cancel(r0)

    def test_replica_outstanding_counts(self):
        cluster = ClusterEngine(tight_config(), n_replicas=2,
                                router="round-robin")
        assert cluster.replica_outstanding() == (0, 0)
        cluster.submit(InferenceRequest(
            prompt_tokens=100, output_tokens=5, arrival_time=0.0))
        assert cluster.replica_outstanding() == (1, 0)


# ----------------------------------------------------------------------
# End-to-end hedged runs
# ----------------------------------------------------------------------
def hetero_runner(bundle, engine_config, **kwargs) -> ExperimentRunner:
    return ExperimentRunner(
        bundle, engine_config, seed=0, n_replicas=2,
        router="round-robin", replica_speeds=[1.0, 0.5], **kwargs,
    )


class TestHedgedRuns:
    RATE = 2.5

    def run_spec(self, bundle, engine_config, **kwargs):
        arrivals = poisson_arrivals(bundle.queries, self.RATE, seed=0)
        runner = hetero_runner(bundle, engine_config, **kwargs)
        return runner.run(FixedConfigPolicy(STUFF8), arrivals)

    def test_hedges_fire_and_records_are_consistent(
            self, finsec_bundle, engine_config):
        result = self.run_spec(
            finsec_bundle, engine_config,
            slo_seconds=6.0, speculation="hedge-after-delay",
            hedge_delay=2.0,
        )
        assert len(result.records) == len(finsec_bundle.queries)
        assert result.speculation == "hedge-after-delay"
        assert result.slo_seconds == 6.0
        assert 0.0 < result.hedge_rate <= 1.0
        assert result.engine_stats.requests_cancelled > 0
        hedged = [r for r in result.records if r.hedged]
        assert hedged and any(r.hedge_won for r in hedged)
        for r in result.records:
            assert r.deadline == pytest.approx(r.arrival_time + 6.0)
            assert r.slo_met == (r.finish_time <= r.deadline)
            if r.hedge_won:
                assert r.hedged
            if not r.hedged:
                assert r.hedge_time is None
                assert r.wasted_prefill_tokens == 0
                assert r.speculation_seconds == 0.0
            else:
                assert r.hedge_time >= r.decision_time - 1e-9
        # The duplicate's cost landed in the speculation column, as an
        # attribution inside (not on top of) the GPU bill.
        assert result.ledger.speculation_dollars > 0
        assert result.ledger.speculation_dollars < result.ledger.gpu_dollars
        assert result.total_dollars == pytest.approx(
            result.ledger.api_dollars + result.ledger.gpu_dollars)
        assert 0.0 < result.wasted_work_fraction < 1.0

    def test_hedge_win_means_hedge_replica_served(
            self, finsec_bundle, engine_config):
        result = self.run_spec(
            finsec_bundle, engine_config,
            slo_seconds=6.0, speculation="hedge-after-delay",
            hedge_delay=2.0,
        )
        wins = [r for r in result.records if r.hedge_won]
        assert wins
        # Hedges target the *other* (here: fast, replica 0) machine;
        # a win is served there even though round-robin may have
        # routed the primary to the slow replica.
        for r in wins:
            assert r.replica in (0, 1)
        assert any(r.replica == 0 for r in wins)

    def test_deadline_risk_hedges_fewer_than_aggressive_timer(
            self, finsec_bundle, engine_config):
        risk = self.run_spec(finsec_bundle, engine_config,
                             slo_seconds=6.0, speculation="deadline-risk")
        timer = self.run_spec(finsec_bundle, engine_config,
                              slo_seconds=6.0,
                              speculation="hedge-after-delay",
                              hedge_delay=1.0)
        assert 0.0 < risk.hedge_rate < timer.hedge_rate

    def test_speculation_is_deterministic(self, finsec_bundle,
                                          engine_config):
        a = self.run_spec(finsec_bundle, engine_config,
                          slo_seconds=6.0, speculation="deadline-risk")
        b = self.run_spec(finsec_bundle, engine_config,
                          slo_seconds=6.0, speculation="deadline-risk")
        assert fingerprint(a) == fingerprint(b)
        assert a.hedge_rate == b.hedge_rate
        assert a.ledger.speculation_dollars == b.ledger.speculation_dollars


class TestDisabledPathIdentity:
    """``--speculation none`` (and omitted) must not perturb anything."""

    def test_none_matches_omitted(self, finsec_bundle, engine_config):
        arrivals = poisson_arrivals(finsec_bundle.queries, 2.0, seed=0)
        base = hetero_runner(finsec_bundle, engine_config).run(
            FixedConfigPolicy(STUFF6), arrivals)
        explicit = hetero_runner(
            finsec_bundle, engine_config, speculation="none",
        ).run(FixedConfigPolicy(STUFF6), arrivals)
        assert fingerprint(base) == fingerprint(explicit)
        assert base.makespan == explicit.makespan
        assert explicit.speculation is None

    def test_slo_stamping_alone_does_not_perturb_schedule(
            self, finsec_bundle, engine_config):
        """An SLO without speculation only annotates records."""
        arrivals = poisson_arrivals(finsec_bundle.queries, 2.0, seed=0)
        base = hetero_runner(finsec_bundle, engine_config).run(
            FixedConfigPolicy(STUFF6), arrivals)
        slo = hetero_runner(
            finsec_bundle, engine_config, slo_seconds=5.0,
        ).run(FixedConfigPolicy(STUFF6), arrivals)
        assert fingerprint(base) == fingerprint(slo)
        assert all(r.deadline is not None for r in slo.records)
        assert all(r.deadline is None for r in base.records)
        assert 0.0 <= slo.slo_attainment <= 1.0
        assert base.slo_attainment == 0.0  # no SLO configured

    def test_unhedged_records_carry_defaults(self, finsec_bundle,
                                             engine_config):
        arrivals = poisson_arrivals(finsec_bundle.queries, 2.0, seed=0)
        result = hetero_runner(finsec_bundle, engine_config).run(
            FixedConfigPolicy(STUFF6), arrivals)
        for r in result.records:
            assert not r.hedged and not r.hedge_won
            assert r.wasted_prefill_tokens == 0
            assert r.slo_met is None
        assert result.hedge_rate == 0.0
        assert result.hedge_win_rate == 0.0
        assert result.wasted_work_fraction == 0.0
        assert result.ledger.speculation_dollars == 0.0


class TestCancelLaneGlue:
    """White-box: ``_cancel_lane`` unwinds a lane that is still queued
    on a retrieval shard (the organic runs rarely catch a lane
    mid-retrieval — holds are milliseconds — so pin the glue
    directly)."""

    def test_queued_retrieval_lease_is_released(self, finsec_bundle,
                                                engine_config):
        from repro.core.policy import Decision
        from repro.evaluation.pipeline import QueryExecution, QueryPipeline
        from repro.llm.generation import SimulatedGenerator
        from repro.llm.quality import QualityModel

        cluster = ClusterEngine(engine_config, n_replicas=2,
                                router="round-robin")
        pipeline = QueryPipeline(
            bundle=finsec_bundle,
            policy=FixedConfigPolicy(STUFF6),
            engine=cluster,
            generator=SimulatedGenerator(
                quality=QualityModel(finsec_bundle.quality_params),
                root_seed=0),
            shard_concurrency=[1],
            speculation=make_speculation("hedge-after-delay",
                                         hedge_delay=1.0),
            slo_seconds=5.0,
        )
        # A foreign long hold pins the single retrieval slot...
        blocker_done = []
        pipeline.shard_resources[0].request(
            0.0, 50.0, lambda t, w: blocker_done.append(t))
        # ...so this lane's scatter lease queues behind it.
        ex = QueryExecution(query=finsec_bundle.queries[0],
                            arrival_time=0.0)
        ex.decision = Decision(config=STUFF6)
        from repro.evaluation.pipeline import Lane
        lane = Lane(ex=ex, lane_id=1, app_id="q#hedge", replica=1)
        ex.lanes.append(lane)
        pipeline.retrieve.enter(0.0, lane)
        assert lane.leases and lane.leases[0].state == Lease.QUEUED
        assert pipeline.shard_resources[0].queue_len == 1

        pipeline._cancel_lane(lane, 0.5)
        assert lane.cancelled
        assert lane.leases[0].state == Lease.CANCELLED
        assert pipeline.shard_resources[0].queue_len == 0
        # No wasted GPU tokens: the lane never reached the engine.
        assert ex.wasted_prefill_tokens == 0
        assert ex.speculation_seconds == 0.0
        # Draining the loop completes only the blocker; no stranded
        # holder, no resurrection of the cancelled lane.
        pipeline.loop.run()
        assert blocker_done == [50.0]
        assert pipeline.shard_resources[0].in_service == 0


class TestRunnerValidation:
    def test_bad_speculation_name_fails_fast(self, finsec_bundle,
                                             engine_config):
        with pytest.raises(ValueError, match="unknown speculation"):
            ExperimentRunner(finsec_bundle, engine_config,
                             speculation="telepathy")

    def test_nonpositive_slo_rejected(self, finsec_bundle, engine_config):
        with pytest.raises(ValueError):
            ExperimentRunner(finsec_bundle, engine_config, slo_seconds=0.0)

    def test_deadline_risk_requires_slo(self, finsec_bundle,
                                        engine_config):
        with pytest.raises(ValueError, match="slo-seconds"):
            ExperimentRunner(finsec_bundle, engine_config,
                             speculation="deadline-risk")

    def test_single_replica_speculation_rejected(self, finsec_bundle,
                                                 engine_config):
        """One replica has nowhere to hedge to — reject rather than
        silently serving the exact baseline under a speculation flag."""
        with pytest.raises(ValueError, match="second replica"):
            ExperimentRunner(
                finsec_bundle, engine_config,
                slo_seconds=1.0, speculation="hedge-after-delay",
                hedge_delay=0.5,
            )

    def test_bare_engine_pipeline_runs_unhedged(self, finsec_bundle,
                                                engine_config):
        """Defense in depth below the runner's fail-fast: a bare-engine
        QueryPipeline with speculation arms timers that safely no-op
        (no alternative replica), leaving the run unhedged."""
        from repro.evaluation.pipeline import QueryPipeline
        from repro.llm.generation import SimulatedGenerator
        from repro.llm.quality import QualityModel

        pipeline = QueryPipeline(
            bundle=finsec_bundle,
            policy=FixedConfigPolicy(STUFF6),
            engine=ServingEngine(engine_config),
            generator=SimulatedGenerator(
                quality=QualityModel(finsec_bundle.quality_params),
                root_seed=0),
            speculation=make_speculation("hedge-after-delay",
                                         hedge_delay=0.5),
            slo_seconds=1.0,
        )
        arrivals = poisson_arrivals(finsec_bundle.queries[:10], 2.0, seed=0)
        pipeline.run(arrivals)
        assert len(pipeline.records) == 10
        assert all(not r.hedged for r in pipeline.records)
        assert pipeline.engine.stats.requests_cancelled == 0
