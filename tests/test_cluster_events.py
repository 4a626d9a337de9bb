"""Event-driven cluster stepping: the lockstep-equivalence guarantee,
the idle-wakeup protocol, and heterogeneous replica speeds.

The tentpole invariant: driving a cluster through ``EventLoop`` +
``StepDriver`` (step events, wake on admission, sleep when idle)
produces a **byte-identical** iteration trace to the manual lockstep
loop (``step_and_frontier()`` while the clock trails the next arrival)
that ``tests/test_cluster_golden.py`` and the pre-refactor runner used.
Both sides run plain ``ClusterEngine`` replicas. It must hold both with
the step recorder attached (``observed``: every step's replica, clock,
running batch and finished requests must match, and
``stepping.record_steps`` recounts each stepped replica's prefill count
and decode KV total from its running batch) and without it
(``unobserved``: the production path untouched; each request's
admitted, prefill-done and finish instants and the final
``EngineStats`` must match). Homogeneous fleets must be provably
behavior-preserving before heterogeneous speeds are allowed to diverge.
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
from repro.serving.cluster import (
    LeastOutstandingRouter,
    ROUTER_NAMES,
)
from repro.sim import EventLoop
from repro.util.rng import RngStreams
from repro.util.units import GB

from stepping import (
    drain,
    drive_lockstep,
    record_steps,
    request_times,
)

ROOT_SEED = 4242


def build_config(pool_gb: float = 1.0, policy: str = "fcfs") -> EngineConfig:
    return EngineConfig(
        model=MISTRAL_7B_AWQ,
        cluster=ClusterSpec(A40),
        kv_pool_cap_bytes=int(pool_gb * GB),
        policy=policy,
    )


def request_specs(seed: int, n_requests: int = 40,
                  mean_gap: float = 0.04) -> list[dict]:
    rng = RngStreams(seed).get("cluster-events", "workload")
    specs: list[dict] = []
    t = 0.0
    for _ in range(n_requests):
        t += float(rng.exponential(mean_gap))
        app = ("" if rng.random() < 0.4
               else f"app-{int(rng.integers(0, 8))}")
        specs.append(dict(
            prompt_tokens=int(rng.integers(50, 2_000)),
            output_tokens=int(rng.integers(1, 30)),
            arrival_time=t,
            app_id=app,
        ))
    return specs


def drive_events(engine, specs: list[dict], observed: bool = True
                 ) -> tuple[list, list[tuple], object, EventLoop]:
    """The event-driven interleave: arrivals are external events, engine
    iterations are StepDriver step events on the same loop.

    ``observed`` records the step trace through
    :func:`stepping.record_steps`; without it the trace stays empty and
    no replica method is wrapped. Returns the trace, the
    :func:`request_times` in spec order, the driver and the loop.
    """
    loop = EventLoop()
    index: dict[int, int] = {}
    trace = record_steps(engine, index) if observed else []
    requests: list[InferenceRequest | None] = [None] * len(specs)
    driver = engine.attach(loop)

    def arrive(t, payload):
        i, spec = payload
        request = InferenceRequest(**spec)
        index[request.request_id] = i
        engine.submit(request)
        requests[i] = request

    for i, spec in enumerate(specs):
        loop.schedule(spec["arrival_time"], "arrival", arrive, (i, spec))
    loop.run()
    return trace, request_times(requests), driver, loop


#: Both driving modes of the lockstep-equivalence tests.
OBSERVED = pytest.mark.parametrize("observed", [True, False],
                                   ids=["observed", "unobserved"])


def assert_lockstep_equivalent(golden, reference: ClusterEngine,
                               engine: ClusterEngine, trace, times,
                               observed: bool) -> None:
    """An event-driven run matches the lockstep ``golden`` run on
    ``reference``: the same request instants and final per-replica
    ``EngineStats`` always, and the same step trace when observed."""
    golden_trace, golden_times = golden
    assert repr(times) == repr(golden_times)
    assert [r.stats for r in engine.replicas] \
        == [r.stats for r in reference.replicas]
    if observed:
        assert repr(trace) == repr(golden_trace)


class TestLockstepEquivalence:
    """Homogeneous speeds: event-driven == manual lockstep, byte for
    byte."""

    @OBSERVED
    def test_bare_engine_trace_identical(self, observed):
        """A lone engine goes on the event loop as a one-replica
        cluster; its trace must match the lockstep loop."""
        specs = request_specs(ROOT_SEED)
        reference = ClusterEngine(build_config(), n_replicas=1)
        golden = drive_lockstep(reference, specs)
        engine = ClusterEngine(build_config(), n_replicas=1)
        trace, times, driver, loop = drive_events(engine, specs, observed)
        steps = golden[0]
        assert len(steps) > len(specs) // 2  # real multi-iteration run
        assert {step.replica for step in steps} == {0}  # one replica alone
        assert_lockstep_equivalent(golden, reference, engine, trace, times,
                                   observed)
        assert driver.n_steps == len(steps)
        assert not loop  # fully drained, no stranded step events

    @OBSERVED
    @pytest.mark.parametrize("router", ROUTER_NAMES)
    def test_three_replica_cluster_trace_identical(self, router, observed):
        specs = request_specs(ROOT_SEED + 1, n_requests=50, mean_gap=0.02)
        reference = ClusterEngine(build_config(), n_replicas=3,
                                  router=router, seed=ROOT_SEED)
        golden = drive_lockstep(reference, specs)
        engine = ClusterEngine(build_config(), n_replicas=3, router=router,
                               seed=ROOT_SEED)
        trace, times, driver, _ = drive_events(engine, specs, observed)
        replicas_used = {step.replica for step in golden[0]}
        assert len(replicas_used) > 1  # genuinely multi-replica
        assert_lockstep_equivalent(golden, reference, engine, trace, times,
                                   observed)
        assert driver.n_steps == len(golden[0])

    @OBSERVED
    def test_frontier_regression_exercised_and_equivalent(self, observed):
        """Sparse arrivals onto a busy cluster: submissions land on
        idle, lagging replicas, regressing the frontier — the driver
        must reschedule its armed event (n_cancelled > 0) and the
        trace must still match the lockstep loop."""
        specs = request_specs(ROOT_SEED + 2, n_requests=30, mean_gap=0.15)
        reference = ClusterEngine(build_config(0.5), n_replicas=2,
                                  router="round-robin", seed=0)
        golden = drive_lockstep(reference, specs)
        engine = ClusterEngine(build_config(0.5), n_replicas=2,
                               router="round-robin", seed=0)
        trace, times, _, loop = drive_events(engine, specs, observed)
        assert_lockstep_equivalent(golden, reference, engine, trace, times,
                                   observed)
        assert loop.n_cancelled > 0  # reschedule path genuinely taken

    @pytest.mark.tier2
    def test_equivalence_over_random_schedules(self):
        """Property: 30 random (replica count, workload, router)
        combinations from named rng streams all match exactly."""
        rngs = RngStreams(ROOT_SEED + 3)
        for index in range(30):
            rng = rngs.fresh("equiv", index)
            n_replicas = int(rng.integers(1, 5))
            router = ROUTER_NAMES[int(rng.integers(0, len(ROUTER_NAMES)))]
            specs = request_specs(1000 + index,
                                  n_requests=int(rng.integers(5, 25)),
                                  mean_gap=float(rng.uniform(0.01, 0.2)))
            reference = ClusterEngine(
                build_config(0.75), n_replicas=n_replicas, router=router,
                seed=index)
            golden = drive_lockstep(reference, specs)
            engine = ClusterEngine(build_config(0.75), n_replicas=n_replicas,
                                   router=router, seed=index)
            trace, times, _, _ = drive_events(engine, specs)
            assert repr(trace) == repr(golden[0]), (
                f"schedule {index} ({n_replicas} replicas, {router}) drifted"
            )
            assert repr(times) == repr(golden[1])


class TestIdleWakeup:
    def test_wake_on_admission_sleep_when_drained(self):
        # Two bursts separated by a long idle gap: the driver must
        # wake twice, sleep twice, and hold no events in between.
        config = build_config()
        engine = ClusterEngine(config, n_replicas=2, router="round-robin")
        loop = EventLoop()
        driver = engine.attach(loop)

        def burst(t, _):
            for _i in range(2):
                engine.submit(InferenceRequest(
                    prompt_tokens=300, output_tokens=4, arrival_time=t))

        gap_checked: list[bool] = []

        def check_idle(t, _):
            # Mid-gap: cluster drained, so no step event may be armed.
            gap_checked.append(not engine.has_work()
                               and driver.armed_time == float("inf"))

        loop.schedule(0.0, "burst", burst)
        loop.schedule(50.0, "probe", check_idle)
        loop.schedule(100.0, "burst", burst)
        loop.run()
        assert gap_checked == [True]
        assert driver.n_wakes == 2
        assert driver.n_sleeps == 2
        assert not engine.has_work()

    def test_per_replica_wakeup_counters(self):
        engine = ClusterEngine(build_config(), n_replicas=2,
                               router="round-robin")
        for k in range(4):
            engine.submit(InferenceRequest(
                prompt_tokens=200, output_tokens=2, arrival_time=0.0))
        drain(engine)
        # Round-robin: two requests per replica, each replica woke once
        # (the second submission found it already busy).
        assert [r.stats.wakeups for r in engine.replicas] == [1, 1]
        engine.submit(InferenceRequest(
            prompt_tokens=200, output_tokens=2, arrival_time=1.0))
        assert engine.replicas[0].stats.wakeups == 2
        assert engine.stats.wakeups == 3


class TestHeterogeneousSpeeds:
    def test_speed_halves_throughput_exactly(self):
        """A 0.5x engine takes exactly 2x as long: iteration durations
        scale by a power of two, so the comparison is float-exact."""
        def serve(speed: float) -> ServingEngine:
            engine = ServingEngine(build_config(), speed=speed)
            for i in range(10):
                engine.submit(InferenceRequest(
                    prompt_tokens=800, output_tokens=8, arrival_time=0.0))
            drain(engine)
            return engine

        fast, slow = serve(1.0), serve(0.5)
        assert slow.stats.iterations == fast.stats.iterations
        assert slow.now == 2.0 * fast.now
        assert slow.stats.busy_seconds == 2.0 * fast.stats.busy_seconds

    def test_default_speed_is_exactly_pre_speed_behavior(self):
        specs = request_specs(ROOT_SEED + 4)
        base = ServingEngine(build_config())
        explicit = ServingEngine(build_config(), speed=1.0)
        assert repr(drive_lockstep(base, specs)) \
            == repr(drive_lockstep(explicit, specs))
        assert base.stats == explicit.stats

    def test_cluster_speed_validation(self):
        with pytest.raises(ValueError, match="2 entries"):
            ClusterEngine(build_config(), n_replicas=3,
                          replica_speeds=[1.0, 0.5])
        with pytest.raises(ValueError, match="replica_speeds\\[1\\]"):
            ClusterEngine(build_config(), n_replicas=2,
                          replica_speeds=[1.0, 0.0])
        engine = ClusterEngine(build_config(), n_replicas=2,
                               replica_speeds=(1.0, 0.5))
        assert engine.replica_speeds == (1.0, 0.5)
        assert [r.speed for r in engine.replicas] == [1.0, 0.5]
        assert [s.speed for s in engine.snapshots()] == [1.0, 0.5]

    def test_engine_speed_validation(self):
        with pytest.raises(ValueError, match="speed"):
            ServingEngine(build_config(), speed=0.0)
        with pytest.raises(ValueError, match="speed"):
            ServingEngine(build_config(), speed=-1.0)

    def test_least_outstanding_favors_fast_replica(self):
        """Acceptance: on a 1.0x/0.5x fleet under sustained load,
        least-outstanding routes measurably more work to the fast
        replica than round-robin's even split."""
        def serve(router: str) -> ClusterEngine:
            engine = ClusterEngine(build_config(), n_replicas=2,
                                   router=router,
                                   replica_speeds=[1.0, 0.5])
            specs = request_specs(ROOT_SEED + 5, n_requests=60,
                                  mean_gap=0.03)
            # Unpinned requests: pure router behavior.
            for spec in specs:
                spec["app_id"] = ""
            drive_events(engine, specs)
            return engine

        def fast_share(engine: ClusterEngine) -> float:
            finished = [r.stats.requests_finished for r in engine.replicas]
            return finished[0] / sum(finished)

        rr, lo = serve("round-robin"), serve("least-outstanding")
        assert fast_share(rr) == pytest.approx(0.5, abs=0.02)
        assert fast_share(lo) > fast_share(rr) + 0.05
        # The slow replica burns more GPU-seconds per request, so the
        # fast replica finishing more requests is genuine load-awareness.
        assert lo.replicas[0].stats.requests_finished > \
            lo.replicas[1].stats.requests_finished


class _RecordingLeastOutstanding(LeastOutstandingRouter):
    """Records (choice, loads) at every select for invariant checks."""

    def __init__(self) -> None:
        super().__init__()
        self.observations: list[tuple[int, tuple[int, ...]]] = []

    def select(self, replicas):
        choice = super().select(replicas)
        loads = tuple(self.outstanding(r) for r in replicas)
        self.observations.append((choice, loads))
        return choice


@pytest.mark.tier2
class TestRouterPropertiesUnderUnequalSpeeds:
    """Satellite: router determinism and least-outstanding monotonicity
    hold when replicas advance at genuinely different rates."""

    @staticmethod
    def _hetero_speeds(rng, n_replicas: int) -> list[float]:
        return [float(rng.choice([0.25, 0.5, 1.0, 2.0]))
                for _ in range(n_replicas)]

    @pytest.mark.parametrize("router", ROUTER_NAMES)
    def test_router_determinism(self, router):
        """Same seed, same hetero fleet => byte-identical traces."""
        rngs = RngStreams(ROOT_SEED + 6)
        for index in range(10):
            rng = rngs.fresh("det", index)
            n_replicas = int(rng.integers(2, 5))
            speeds = self._hetero_speeds(rng, n_replicas)
            specs = request_specs(2000 + index,
                                  n_requests=int(rng.integers(8, 25)))

            def run_once():
                engine = ClusterEngine(
                    build_config(0.75), n_replicas=n_replicas,
                    router=router, seed=index, replica_speeds=speeds)
                trace, _, _, _ = drive_events(engine, specs)
                return trace

            assert repr(run_once()) == repr(run_once()), (
                f"{router} nondeterministic on hetero schedule {index}"
            )

    def test_least_outstanding_monotonicity(self):
        """At every routing decision the chosen replica's outstanding
        count is the minimum (ties to the lowest index), regardless of
        how unevenly the replicas' clocks advance."""
        rngs = RngStreams(ROOT_SEED + 7)
        total_selects = 0
        for index in range(15):
            rng = rngs.fresh("mono", index)
            n_replicas = int(rng.integers(2, 5))
            speeds = self._hetero_speeds(rng, n_replicas)
            router = _RecordingLeastOutstanding()
            engine = ClusterEngine(build_config(0.75),
                                   n_replicas=n_replicas, router=router,
                                   replica_speeds=speeds)
            specs = request_specs(3000 + index,
                                  n_requests=int(rng.integers(8, 30)))
            for spec in specs:
                spec["app_id"] = ""  # every request consults the router
            drive_events(engine, specs)
            assert len(router.observations) == len(specs)
            total_selects += len(specs)
            for choice, loads in router.observations:
                assert loads[choice] == min(loads)
                # ties break to the lowest index
                assert choice == min(
                    i for i, load in enumerate(loads) if load == min(loads)
                )
        assert total_selects > 100  # the property saw real coverage


class TestRunnerIntegration:
    def test_run_policy_threads_replica_speeds(self, finsec_bundle):
        from repro.baselines import FixedConfigPolicy
        from repro.config.knobs import RAGConfig, SynthesisMethod
        from repro.experiments.common import run_policy

        result = run_policy(
            finsec_bundle,
            FixedConfigPolicy(RAGConfig(SynthesisMethod.STUFF, 5)),
            rate_qps=6.0, n_queries=12, n_replicas=2,
            router="least-outstanding", replica_speeds=[1.0, 0.5],
        )
        assert result.replica_speeds == [1.0, 0.5]
        assert len(result.records) == 12
        assert sum(s.wakeups for s in result.replica_stats) > 0

    def test_mismatched_speeds_fail_fast(self, finsec_bundle,
                                         engine_config):
        from repro.evaluation.runner import ExperimentRunner

        with pytest.raises(ValueError, match="3 entries.*n_replicas is 2"):
            ExperimentRunner(finsec_bundle, engine_config, n_replicas=2,
                             replica_speeds=[1.0, 0.5, 0.25])

    def test_scheduling_view_exposes_event_time_replica_state(
            self, finsec_bundle, engine_config):
        """Policies see each replica's own memory and speed at the
        decision instant, with the replica clocks desynchronized."""
        from repro.evaluation.pipeline import QueryPipeline
        from repro.llm.generation import SimulatedGenerator
        from repro.llm.quality import QualityModel

        engine = ClusterEngine(engine_config, n_replicas=2,
                               replica_speeds=[1.0, 0.5])
        # Desynchronize the replica clocks: work on replica 0 only.
        engine.replicas[0].submit(InferenceRequest(
            prompt_tokens=400, output_tokens=6, arrival_time=0.0))
        drain(engine)
        assert engine.replicas[0].now > engine.replicas[1].now

        pipeline = QueryPipeline(
            bundle=finsec_bundle,
            policy=None,  # make_view never touches the policy
            engine=engine,
            generator=SimulatedGenerator(
                quality=QualityModel(finsec_bundle.quality_params),
                root_seed=0),
        )
        view = pipeline.make_view(finsec_bundle.queries[0])
        assert view.now == engine.now
        assert view.replica_free_kv_bytes == tuple(
            r.free_kv_bytes() for r in engine.replicas)
        assert view.replica_speeds == (1.0, 0.5)
