"""Elastic autoscaling: cluster lifecycle, scaling policies, the event
loop integration, and the lockstep-equivalence guarantee."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from types import SimpleNamespace

import pytest

from repro.config.knobs import RAGConfig, SynthesisMethod
from repro.baselines import FixedConfigPolicy
from repro.llm import A40, ClusterSpec, MISTRAL_7B_AWQ
from repro.serving import ClusterEngine, EngineConfig, InferenceRequest
from repro.util.units import GB
from repro.workload import (
    AUTOSCALER_NAMES,
    Autoscaler,
    EwmaForecastPolicy,
    ForecastPolicy,
    ReactivePolicy,
    ScalingPolicy,
    ScalingSignals,
    bursty_workload,
    diurnal_workload,
    make_scaling_policy,
)


def build_config(pool_gb: float = 1.0) -> EngineConfig:
    return EngineConfig(
        model=MISTRAL_7B_AWQ,
        cluster=ClusterSpec(A40),
        kv_pool_cap_bytes=int(pool_gb * GB),
    )


def request(prompt=500, out=8, t=0.0, app=""):
    return InferenceRequest(prompt_tokens=prompt, output_tokens=out,
                            arrival_time=t, app_id=app)


def signals(**overrides) -> ScalingSignals:
    base = dict(
        time=0.0, n_active=2, n_provisioning=0, n_draining=0,
        outstanding_per_active=2.0, window_slo_attainment=None,
        forecast_rate_qps=None, est_service_seconds=None,
        scale_min=1, scale_max=4,
    )
    base.update(overrides)
    return ScalingSignals(**base)


# ----------------------------------------------------------------------
# Cluster lifecycle (active -> draining -> retired)
# ----------------------------------------------------------------------
class TestClusterLifecycle:
    def test_initial_fleet_all_active(self):
        engine = ClusterEngine(build_config(), 3)
        assert engine.active_replica_ids() == (0, 1, 2)
        assert engine.n_active == 3
        assert engine.provisioned_at == [0.0, 0.0, 0.0]
        assert all(s.state == "active" for s in engine.snapshots())

    def test_add_replica_joins_active_at_time(self):
        engine = ClusterEngine(build_config(), 1)
        rid = engine.add_replica(at=12.5)
        assert rid == 1
        assert engine.is_active(1)
        assert engine.replicas[1].now == 12.5
        assert engine.provisioned_at[1] == 12.5
        assert engine.replica_speeds == (1.0, 1.0)

    def test_draining_replica_gets_no_new_work(self):
        engine = ClusterEngine(build_config(), 2,
                               router="least-outstanding")
        engine.begin_drain(0)
        for _ in range(4):
            rid = engine.replica_of_request(
                engine.submit(request()).request_id)
            assert rid == 1
        assert engine.draining_replica_ids() == (0,)

    def test_cannot_drain_last_active(self):
        engine = ClusterEngine(build_config(), 2)
        engine.begin_drain(0)
        with pytest.raises(ValueError, match="last active"):
            engine.begin_drain(1)

    def test_drain_then_cancel_restores_routing(self):
        engine = ClusterEngine(build_config(), 2)
        engine.begin_drain(1)
        engine.cancel_drain(1)
        assert engine.active_replica_ids() == (0, 1)
        with pytest.raises(ValueError, match="not draining"):
            engine.cancel_drain(1)

    def test_retire_waits_for_outstanding_work(self):
        engine = ClusterEngine(build_config(), 2)
        engine.replicas[1].submit(request())
        engine.begin_drain(1)
        assert not engine.can_retire(1)  # still holds a request
        engine.replicas[1].run_until_idle()
        assert engine.can_retire(1)
        engine.retire(1, at=9.0)
        assert engine.retired_at[1] == 9.0
        assert engine.active_replica_ids() == (0,)

    def test_retire_waits_for_app_pins(self):
        engine = ClusterEngine(build_config(), 2)
        engine.pin_app("app-1", 1)
        engine.begin_drain(1)
        assert not engine.can_retire(1)  # a pinned app could come back
        engine.release_app("app-1")
        assert engine.can_retire(1)

    def test_retire_requires_drain_first(self):
        engine = ClusterEngine(build_config(), 2)
        assert not engine.can_retire(0)  # active, not draining
        with pytest.raises(ValueError, match="cannot retire"):
            engine.retire(0, at=1.0)

    def test_cannot_pin_to_non_active_replica(self):
        engine = ClusterEngine(build_config(), 2)
        engine.begin_drain(1)
        with pytest.raises(ValueError, match="not active"):
            engine.pin_app("app-1", 1)

    def test_provisioned_seconds_stops_at_retirement(self):
        engine = ClusterEngine(build_config(), 2)
        rid = engine.add_replica(at=10.0)
        engine.begin_drain(rid)
        engine.retire(rid, at=25.0)
        assert engine.provisioned_seconds(end=100.0) == [100.0, 100.0, 15.0]

    def test_routing_unchanged_while_all_active(self):
        # The byte-identical fast path: a fully active fleet must
        # route exactly as the pre-elastic cluster did.
        a = ClusterEngine(build_config(), 3, router="round-robin")
        b = ClusterEngine(build_config(), 3, router="round-robin")
        b.add_replica(at=5.0)
        b.begin_drain(3)
        b.retire(3, at=6.0)  # back to 3 active, but list has 4 entries
        picks_a = [a.submit(request()).request_id for _ in range(6)]
        picks_b = [b.submit(request()).request_id for _ in range(6)]
        assert ([a.replica_of_request(r) for r in picks_a]
                == [b.replica_of_request(r) for r in picks_b])


# ----------------------------------------------------------------------
# Scaling policies (pure functions of the signals snapshot)
# ----------------------------------------------------------------------
class TestPolicies:
    def test_reactive_scales_up_on_queue_depth(self):
        pol = ReactivePolicy(up_threshold=4.0, down_threshold=1.0)
        assert pol.desired_fleet(signals(outstanding_per_active=6.0)) == 3

    def test_reactive_scales_up_on_slo_pain(self):
        pol = ReactivePolicy(slo_floor=0.9)
        s = signals(outstanding_per_active=2.0, window_slo_attainment=0.5)
        assert pol.desired_fleet(s) == 3

    def test_reactive_scales_down_when_quiet(self):
        pol = ReactivePolicy()
        assert pol.desired_fleet(signals(outstanding_per_active=0.2)) == 1

    def test_reactive_holds_in_band(self):
        pol = ReactivePolicy(up_threshold=4.0, down_threshold=1.0)
        s = signals(outstanding_per_active=2.0, n_provisioning=1)
        assert pol.desired_fleet(s) == 3  # active + provisioning

    def test_reactive_validates_thresholds(self):
        with pytest.raises(ValueError, match="down_threshold"):
            ReactivePolicy(up_threshold=1.0, down_threshold=2.0)

    def test_forecast_sizes_fleet_to_rate(self):
        pol = ForecastPolicy(latency_weight=2.0)
        quiet = signals(forecast_rate_qps=0.2, est_service_seconds=0.5)
        busy = signals(forecast_rate_qps=4.0, est_service_seconds=0.5)
        assert pol.desired_fleet(quiet) == 1
        assert pol.desired_fleet(busy) > pol.desired_fleet(quiet)

    def test_forecast_infeasible_rate_takes_max(self):
        pol = ForecastPolicy()
        s = signals(forecast_rate_qps=100.0, est_service_seconds=1.0,
                    scale_max=4)
        assert pol.desired_fleet(s) == 4

    def test_forecast_holds_without_trace(self):
        pol = ForecastPolicy()
        s = signals(forecast_rate_qps=None, n_active=2, n_provisioning=1)
        assert pol.desired_fleet(s) == 3

    def test_make_scaling_policy(self):
        assert make_scaling_policy(None) is None
        assert make_scaling_policy("none") is None
        assert isinstance(make_scaling_policy("reactive"), ReactivePolicy)
        assert isinstance(make_scaling_policy("forecast"), ForecastPolicy)
        pol = ReactivePolicy()
        assert make_scaling_policy(pol) is pol
        with pytest.raises(ValueError, match="reactive"):
            make_scaling_policy("bogus")
        assert AUTOSCALER_NAMES == ("none", "reactive", "forecast",
                                    "forecast-ewma")
        ewma = make_scaling_policy("forecast-ewma")
        assert isinstance(ewma, ForecastPolicy)
        assert 0.0 < ewma.smoothing_alpha <= 1.0


# ----------------------------------------------------------------------
# EWMA forecast smoothing (satellite: fewer moves under noise)
# ----------------------------------------------------------------------
class TestEwmaForecast:
    def test_ewma_rate_math(self):
        from repro.workload import Workload, WorkloadPeriod
        wl = Workload(periods=(
            WorkloadPeriod(duration_s=10.0, n_arrivals=10, label="a"),
            WorkloadPeriod(duration_s=10.0, n_arrivals=40, label="b"),
        ), name="t")
        # alpha=1 degrades to the raw period rate.
        assert wl.ewma_rate(15.0, alpha=1.0) == wl.rate_at(15.0)
        # alpha=0.5: 0.5*4.0 + 0.5*1.0
        assert wl.ewma_rate(15.0, alpha=0.5) == pytest.approx(2.5)
        # Before the second period, only the first contributes.
        assert wl.ewma_rate(5.0, alpha=0.5) == pytest.approx(1.0)
        with pytest.raises(ValueError, match="alpha"):
            wl.ewma_rate(5.0, alpha=0.0)

    def test_ewma_validates_alpha(self):
        with pytest.raises(ValueError, match="smoothing_alpha"):
            EwmaForecastPolicy(smoothing_alpha=1.5)

    def test_ewma_makes_fewer_moves_on_a_noisy_trace(self):
        """Pinned contract: on an MMPP-bursty trace, the EWMA-fed
        planner changes its desired fleet strictly fewer times than the
        raw-forecast planner (the raw next-period rate whipsaws between
        the calm and burst levels; the EWMA damps single-period
        spikes). This mirrors exactly how ``Autoscaler.signals`` feeds
        the two policies: raw ``forecast_rate(t, lookahead)`` vs
        ``ewma_rate(t + lookahead, alpha)``."""
        lookahead = 45.0

        def desired_moves(policy, forecast_of) -> int:
            n, count, t = 1, 0, 0.0
            while t < wl.duration_s:
                s = signals(
                    time=t, n_active=n, outstanding_per_active=0.0,
                    forecast_rate_qps=forecast_of(t),
                    est_service_seconds=2.0,
                    scale_min=1, scale_max=4)
                d = policy.desired_fleet(s)
                if d != n:
                    count += 1
                    n = d
                t += 15.0
            return count

        for seed in (0, 3, 5):
            wl = bursty_workload(n_periods=40, period_s=30.0, seed=seed)
            raw = desired_moves(
                ForecastPolicy(),
                lambda t: wl.forecast_rate(t, lookahead))
            ewma_policy = EwmaForecastPolicy(smoothing_alpha=0.3)
            ewma = desired_moves(
                ewma_policy,
                lambda t: wl.ewma_rate(
                    t + lookahead, ewma_policy.smoothing_alpha))
            assert ewma < raw, (seed, ewma, raw)

    def test_ewma_run_end_to_end(self, finsec_bundle):
        wl = bursty_workload(n_periods=8, period_s=12.0, base_qps=0.3,
                             burst_qps=2.0, seed=0)
        result = serve(finsec_bundle, workload=wl,
                       autoscaler="forecast-ewma",
                       scale_min=1, scale_max=3,
                       autoscale_interval=4.0, provision_delay=6.0)
        assert result.autoscaler == "forecast-ewma"
        assert len(result.records) == wl.total_arrivals
        assert not math.isnan(result.slo_attainment)


# ----------------------------------------------------------------------
# Autoscaler construction validation
# ----------------------------------------------------------------------
class TestAutoscalerValidation:
    def test_scale_range_checked(self):
        with pytest.raises(ValueError, match="scale_max"):
            Autoscaler(ReactivePolicy(), scale_min=3, scale_max=2)
        with pytest.raises(ValueError, match="scale_min"):
            Autoscaler(ReactivePolicy(), scale_min=0)

    def test_intervals_checked(self):
        with pytest.raises(ValueError, match="autoscale_interval"):
            Autoscaler(ReactivePolicy(), interval_s=0.0)
        with pytest.raises(ValueError, match="provision_delay"):
            Autoscaler(ReactivePolicy(), provision_delay_s=-1.0)

    def test_requires_policy(self):
        with pytest.raises(ValueError, match="ScalingPolicy"):
            Autoscaler(None)


# ----------------------------------------------------------------------
# Anti-flapping hysteresis (cooldown + scale-down debounce)
# ----------------------------------------------------------------------
class Flapper(ScalingPolicy):
    """Pathological policy: wants 2 replicas when the fleet is 1 and
    1 when it is 2 — un-damped, it flip-flops on every single tick."""

    name = "flapper"

    def desired_fleet(self, signals: ScalingSignals) -> int:
        return 2 if signals.n_active + signals.n_provisioning <= 1 else 1


def run_flapper(**kwargs) -> Autoscaler:
    from repro.sim import EventLoop

    loop = EventLoop()
    engine = ClusterEngine(build_config(), 1)
    scaler = Autoscaler(Flapper(), scale_min=1, scale_max=2,
                        interval_s=5.0, provision_delay_s=3.0, **kwargs)
    scaler.start(loop, engine, horizon=100.0, records=[])
    loop.run()
    return scaler


class TestHysteresis:
    def test_config_validated(self):
        with pytest.raises(ValueError, match="cooldown_s"):
            Autoscaler(ReactivePolicy(), cooldown_s=-1.0)
        with pytest.raises(ValueError, match="down_debounce"):
            Autoscaler(ReactivePolicy(), down_debounce=0)

    def test_defaults_scale_with_interval(self):
        scaler = Autoscaler(ReactivePolicy(), interval_s=7.0)
        assert scaler.cooldown_s == 14.0  # two ticks
        assert scaler.down_debounce == 2
        pinned = Autoscaler(ReactivePolicy(), cooldown_s=3.0,
                            down_debounce=4)
        assert pinned.cooldown_s == 3.0
        assert pinned.down_debounce == 4

    def test_cooldown_and_debounce_damp_flapping(self):
        undamped = run_flapper(cooldown_s=0.0, down_debounce=1)
        damped = run_flapper()  # defaults: two-tick cooldown, debounce 2
        # The un-damped scaler acts on every tick the policy flips;
        # hysteresis roughly halves the churn on the same policy.
        assert len(damped.events) < len(undamped.events)
        # Both still unwind completely (drains always retire).
        for scaler in (undamped, damped):
            actions = [e.action for e in scaler.events]
            assert actions.count("add") == actions.count("retire")
            assert not scaler._pending_provisions

    def test_scale_down_waits_for_consecutive_desire(self):
        # With a long horizon of idle ticks the flapper's scale-downs
        # only ever land after the debounce: no drain can occur on the
        # tick immediately following an add.
        damped = run_flapper(cooldown_s=0.0, down_debounce=2)
        times = {a: [e.time for e in damped.events if e.action == a]
                 for a in ("add", "drain")}
        # The final tick's cool-down drain (workload over, fleet wound
        # to the floor) is exempt from hysteresis by design — skip it.
        policy_drains = [t for t in times["drain"] if t < 100.0]
        assert policy_drains  # the flapper did scale down mid-run
        for drain_t in policy_drains:
            adds_before = [t for t in times["add"] if t < drain_t]
            if adds_before:
                # Un-debounced, the drain would land on the first tick
                # after the add (2s later); the debounce forces it to
                # wait out a second full tick wanting it.
                assert drain_t - max(adds_before) > 5.0


# ----------------------------------------------------------------------
# Runner integration
# ----------------------------------------------------------------------
def serve(bundle, **kwargs):
    from repro.experiments.common import run_policy

    return run_policy(
        bundle, FixedConfigPolicy(RAGConfig(SynthesisMethod.STUFF, 8)),
        seed=0, slo_seconds=6.0, **kwargs,
    )


TRACE = dict(n_periods=8, period_s=12.0, base_qps=0.3, peak_qps=2.0)


class TestRunnerIntegration:
    def test_scale_flags_require_autoscaler(self, finsec_bundle):
        with pytest.raises(ValueError, match="scale_min"):
            serve(finsec_bundle, n_queries=2, scale_min=1)

    def test_forecast_requires_workload(self, finsec_bundle):
        with pytest.raises(ValueError, match="forecast"):
            serve(finsec_bundle, n_queries=2, autoscaler="forecast")

    def test_initial_fleet_inside_range(self, finsec_bundle):
        with pytest.raises(ValueError, match="scaling"):
            serve(finsec_bundle, n_queries=2, autoscaler="reactive",
                  workload=diurnal_workload(seed=0, **TRACE),
                  n_replicas=4, scale_max=2)

    def test_workload_excludes_sequential_and_rate(self, finsec_bundle):
        wl = diurnal_workload(seed=0, **TRACE)
        with pytest.raises(ValueError, match="sequential"):
            serve(finsec_bundle, n_queries=2, workload=wl, sequential=True)
        with pytest.raises(ValueError, match="rate_qps"):
            serve(finsec_bundle, n_queries=2, workload=wl, rate_qps=1.0)
        # Closed-loop arrivals have no rate: one given would be ignored.
        with pytest.raises(ValueError, match=r"--sequential.*--rate"):
            serve(finsec_bundle, n_queries=2, sequential=True, rate_qps=50.0)

    def test_autoscaler_rejects_closed_loop(self, finsec_bundle):
        with pytest.raises(ValueError, match="closed-loop"):
            serve(finsec_bundle, n_queries=2, sequential=True,
                  autoscaler="reactive")

    def test_elastic_run_scales_and_unwinds(self, finsec_bundle):
        wl = diurnal_workload(seed=0, **TRACE)
        result = serve(finsec_bundle, workload=wl, autoscaler="reactive",
                       scale_min=1, scale_max=3,
                       autoscale_interval=4.0, provision_delay=6.0)
        assert result.autoscaler == "reactive"
        assert len(result.records) == wl.total_arrivals
        actions = [e.action for e in result.scaling_events]
        assert "add" in actions and "retire" in actions
        # Everything the run provisioned was wound back down.
        adds = actions.count("add")
        retires = actions.count("retire")
        assert retires == adds
        # Idle capacity is priced by default under autoscaling.
        assert result.provisioned_gpu_seconds > 0
        assert result.idle_gpu_seconds > 0
        assert result.ledger.idle_dollars > 0
        assert result.ledger.total_dollars == pytest.approx(
            result.ledger.api_dollars + result.ledger.gpu_dollars
            + result.ledger.idle_dollars)

    def test_forecast_run_with_trace(self, finsec_bundle):
        wl = diurnal_workload(seed=0, **TRACE)
        result = serve(finsec_bundle, workload=wl, autoscaler="forecast",
                       scale_min=1, scale_max=3,
                       autoscale_interval=4.0, provision_delay=6.0)
        assert result.autoscaler == "forecast"
        assert any(e.action == "add" for e in result.scaling_events)
        assert not math.isnan(result.slo_attainment)

    def test_pinned_range_is_observationally_neutral(self, finsec_bundle):
        """Lockstep equivalence: an autoscaler whose range pins the
        fleet (scale_min == scale_max == n_replicas) must not perturb
        the schedule — its ticks are source-marked events that advance
        no engine clock, so record timings match the static run
        exactly."""
        wl = diurnal_workload(seed=0, **TRACE)
        static = serve(finsec_bundle, workload=wl, n_replicas=2,
                       price_idle_capacity=False)
        pinned = serve(finsec_bundle, workload=wl, n_replicas=2,
                       autoscaler="reactive", scale_min=2, scale_max=2,
                       price_idle_capacity=False)
        assert pinned.scaling_events == []
        assert pinned.makespan == static.makespan
        assert ([(r.query_id, r.arrival_time, r.finish_time, r.replica)
                 for r in pinned.records]
                == [(r.query_id, r.arrival_time, r.finish_time, r.replica)
                    for r in static.records])
        assert pinned.ledger.total_dollars == pytest.approx(
            static.ledger.total_dollars)

    def test_sparse_trace_scaling_is_bounded(self, finsec_bundle):
        """Hysteresis pin: a sparse trace whose queue hovers around the
        reactive thresholds must not flap. Every tick could flip the
        desired fleet, so without the cooldown/debounce the action
        count tracks the tick count; damped, it stays a small fraction
        of it."""
        wl = diurnal_workload(seed=0, n_periods=10, period_s=8.0,
                              base_qps=0.15, peak_qps=1.2)
        result = serve(finsec_bundle, workload=wl, autoscaler="reactive",
                       scale_min=1, scale_max=3,
                       autoscale_interval=2.0, provision_delay=3.0)
        actions = [e.action for e in result.scaling_events]
        assert actions.count("add") == actions.count("retire")
        n_ticks = wl.duration_s / 2.0  # ticks over the trace alone
        assert len(result.scaling_events) <= n_ticks / 2
        assert len(result.scaling_events) <= 16

    def test_reports_render(self, finsec_bundle):
        from repro.evaluation.reports import (
            autoscale_rows,
            autoscale_summary,
            format_table,
        )

        wl = diurnal_workload(seed=0, **TRACE)
        result = serve(finsec_bundle, workload=wl, autoscaler="reactive",
                       scale_min=1, scale_max=3,
                       autoscale_interval=4.0, provision_delay=6.0)
        summary = autoscale_summary(result)
        assert summary["autoscaler"] == "reactive"
        assert summary["scale_ups"] >= 1
        assert 0.0 <= summary["idle_fraction"] < 1.0
        rows = autoscale_rows(result)
        assert len(rows) == len(result.scaling_events)
        assert format_table(rows)
        assert format_table([summary])


# ----------------------------------------------------------------------
# Sliding SLO window: the incremental start index vs a full rescan
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WindowRecord:
    """The two fields the SLO window reads, as ``QueryRecord`` has them."""

    finish_time: float
    deadline: float | None

    @property
    def slo_met(self) -> bool | None:
        if self.deadline is None:
            return None
        return self.finish_time <= self.deadline


def rescan_attainment(records, t: float, window_s: float) -> float | None:
    """The window attainment from a scan of every record."""
    window = [r for r in records
              if r.slo_met is not None and r.finish_time > t - window_s]
    return (sum(r.slo_met for r in window) / len(window)
            if window else None)


class IdleEngine:
    """The engine surface ``Autoscaler.signals`` reads: one idle replica."""

    stats = SimpleNamespace(busy_seconds=0.0)

    def active_replica_ids(self):
        return (0,)

    def replica_outstanding(self):
        return [0]

    def draining_replica_ids(self):
        return ()


def window_scaler(records, window_s: float = 10.0) -> Autoscaler:
    from repro.sim import EventLoop

    scaler = Autoscaler(ReactivePolicy(), scale_min=1, scale_max=2,
                        interval_s=2.0, window_s=window_s)
    scaler.start(EventLoop(), IdleEngine(), horizon=100.0, records=records)
    return scaler


class TestSlidingWindow:
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_rescan_on_random_streams(self, seed):
        rng = random.Random(seed)
        window_s = rng.choice((3.0, 10.0, 25.0))
        records: list[WindowRecord] = []
        scaler = window_scaler(records, window_s)
        t = 0.0
        for _ in range(60):
            # Records finish in time order between ticks (ties too).
            previous = t
            t += rng.choice((0.5, 2.0, 7.0))
            finishes = sorted(rng.uniform(previous, t)
                              for _ in range(rng.randrange(6)))
            if finishes and rng.random() < 0.3:
                finishes.append(finishes[-1])
            for finish in finishes:
                deadline = (None if rng.random() < 0.3
                            else finish + rng.uniform(-2.0, 2.0))
                records.append(WindowRecord(finish, deadline))
            assert scaler.signals(t).window_slo_attainment == \
                rescan_attainment(records, t, window_s)

    def test_record_at_window_start_is_excluded(self):
        records = [WindowRecord(15.0, 14.0), WindowRecord(15.5, 16.0)]
        scaler = window_scaler(records, window_s=10.0)
        assert scaler.signals(25.0).window_slo_attainment == 1.0
        assert scaler.signals(25.5).window_slo_attainment is None

    def test_ticks_before_any_record(self):
        records: list[WindowRecord] = []
        scaler = window_scaler(records)
        assert scaler.signals(2.0).window_slo_attainment is None
        records.append(WindowRecord(3.0, None))
        assert scaler.signals(4.0).window_slo_attainment is None
        records.append(WindowRecord(5.0, 9.0))
        assert scaler.signals(6.0).window_slo_attainment == 1.0

    def test_second_start_reads_the_new_list(self):
        from repro.sim import EventLoop

        first = [WindowRecord(float(i), float(i)) for i in range(50)]
        scaler = window_scaler(first)
        assert scaler.signals(52.0).window_slo_attainment == 1.0
        second = [WindowRecord(1.0, 0.0), WindowRecord(2.0, 5.0)]
        scaler.start(EventLoop(), IdleEngine(), horizon=100.0,
                     records=second)
        assert scaler.signals(3.0).window_slo_attainment == 0.5

    def test_served_records_finish_in_order(self, finsec_bundle):
        """The index only moves forward because the pipeline appends
        each record at its finish time, hedged and cached queries
        included. Replaying that stream tick by tick through the
        window gives the rescan's attainment at every tick."""
        wl = diurnal_workload(seed=0, **TRACE)
        result = serve(finsec_bundle, workload=wl, autoscaler="reactive",
                       n_replicas=2, scale_min=1, scale_max=3,
                       autoscale_interval=4.0, provision_delay=6.0,
                       speculation="hedge-after-delay",
                       hedge_delay=0.5, result_cache="exact")
        finishes = [r.finish_time for r in result.records]
        assert finishes == sorted(finishes)
        assert any(r.hedged for r in result.records)
        assert any(r.cache_hit for r in result.records)
        live: list = []
        scaler = window_scaler(live, window_s=16.0)
        pending = iter(result.records)
        nxt = next(pending, None)
        t = 0.0
        while nxt is not None:
            t += 4.0
            while nxt is not None and nxt.finish_time <= t:
                live.append(nxt)
                nxt = next(pending, None)
            assert scaler.signals(t).window_slo_attainment == \
                rescan_attainment(live, t, 16.0)
