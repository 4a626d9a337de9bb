"""Trace-driven workloads: validation, determinism, replay, and the
capacity-planning sustained-rate fix."""

import pytest

from repro.data import build_dataset, poisson_arrivals
from repro.workload import (
    WORKLOAD_NAMES,
    Workload,
    WorkloadPeriod,
    bursty_workload,
    diurnal_workload,
    make_workload,
    multi_tenant_workload,
    sustained_rate,
    zipfian_workload,
)


def two_periods():
    return Workload(periods=(
        WorkloadPeriod(duration_s=10.0, n_arrivals=5, label="a"),
        WorkloadPeriod(duration_s=20.0, n_arrivals=2, label="b"),
    ), name="t")


# ----------------------------------------------------------------------
# Fail-fast validation (named ValueErrors, satellite 2)
# ----------------------------------------------------------------------
class TestValidation:
    def test_zero_period_workload_rejected(self):
        with pytest.raises(ValueError, match="workload.periods"):
            Workload(periods=())

    def test_non_positive_duration_rejected(self):
        with pytest.raises(ValueError, match="period.duration_s"):
            WorkloadPeriod(duration_s=0.0, n_arrivals=1)

    def test_negative_arrivals_rejected(self):
        with pytest.raises(ValueError, match="period.n_arrivals"):
            WorkloadPeriod(duration_s=1.0, n_arrivals=-1)

    def test_non_integral_arrivals_rejected(self):
        with pytest.raises(ValueError, match="period.n_arrivals"):
            WorkloadPeriod(duration_s=1.0, n_arrivals=1.5)

    def test_rate_qps_must_be_positive(self, finsec_bundle):
        # The historical one-shot load path fails fast too.
        with pytest.raises(ValueError, match="rate_qps"):
            poisson_arrivals(finsec_bundle.queries, rate_qps=0.0)
        with pytest.raises(ValueError, match="rate_qps"):
            poisson_arrivals(finsec_bundle.queries, rate_qps=-1.4)

    def test_closed_loop_clients_must_be_positive(self, finsec_bundle):
        from repro.experiments.common import run_policy, make_metis

        with pytest.raises(ValueError, match="closed_loop_clients"):
            run_policy(finsec_bundle, make_metis(finsec_bundle),
                       n_queries=2, sequential=True,
                       closed_loop_clients=0)

    def test_materialize_rejects_empty_pool(self):
        with pytest.raises(ValueError, match="queries"):
            two_periods().materialize([], seed=0)

    def test_unknown_generator_listed(self):
        with pytest.raises(ValueError, match="diurnal"):
            make_workload("no-such-shape")

    def test_diurnal_peak_below_base_rejected(self):
        with pytest.raises(ValueError, match="peak_qps"):
            diurnal_workload(peak_qps=0.1, base_qps=0.5)


# ----------------------------------------------------------------------
# Forecastable properties
# ----------------------------------------------------------------------
class TestProperties:
    def test_period_lookup_and_rates(self):
        wl = two_periods()
        assert wl.period_index_at(-5.0) == 0
        assert wl.period_index_at(9.99) == 0
        assert wl.period_index_at(10.0) == 1
        # Past the end: clamped to the last period.
        assert wl.period_index_at(1e9) == 1
        assert wl.rate_at(5.0) == pytest.approx(0.5)
        assert wl.rate_at(15.0) == pytest.approx(0.1)
        # The forecast is just the trace read ahead.
        assert wl.forecast_rate(5.0, 10.0) == wl.rate_at(15.0)


# ----------------------------------------------------------------------
# Determinism + replay (satellite 4)
# ----------------------------------------------------------------------
class TestDeterminism:
    @pytest.mark.parametrize("generator", [
        diurnal_workload, bursty_workload, multi_tenant_workload,
        zipfian_workload])
    def test_same_seed_same_trace_bytes(self, generator):
        assert generator(seed=7).to_json() == generator(seed=7).to_json()

    @pytest.mark.parametrize("generator", [
        diurnal_workload, bursty_workload, multi_tenant_workload,
        zipfian_workload])
    def test_different_seed_different_trace(self, generator):
        assert generator(seed=1).to_json() != generator(seed=2).to_json()

    def test_materialize_deterministic_per_seed(self, finsec_bundle):
        wl = diurnal_workload(n_periods=6, period_s=10.0, seed=3)
        queries = finsec_bundle.queries
        a = wl.materialize(queries, seed=5)
        b = wl.materialize(queries, seed=5)
        assert [x.time for x in a] == [x.time for x in b]
        assert [x.query.query_id for x in a] == [x.query.query_id for x in b]
        c = wl.materialize(queries, seed=6)
        assert [x.time for x in a] != [x.time for x in c]

    def test_roundtrip_byte_identical(self, tmp_path):
        wl = bursty_workload(n_periods=12, seed=9)
        path = tmp_path / "trace.json"
        wl.save(path)
        loaded = Workload.load(path)
        assert loaded == wl
        assert loaded.to_json() == wl.to_json()
        # Replay through materialize is byte-identical too.
        assert ([a.time for a in loaded.materialize([_q()], seed=1)]
                == [a.time for a in wl.materialize([_q()], seed=1)])

    def test_make_workload_resolves_paths_and_names(self, tmp_path):
        wl = diurnal_workload(n_periods=4, seed=2)
        path = tmp_path / "day.json"
        wl.save(path)
        assert make_workload(str(path)) == wl
        assert make_workload(wl) is wl
        for name in WORKLOAD_NAMES:
            assert make_workload(name, seed=0).periods


# ----------------------------------------------------------------------
# Materialization semantics
# ----------------------------------------------------------------------
def _q(qid="q0"):
    bundle = build_dataset("finsec", n_queries=1)
    from dataclasses import replace
    return replace(bundle.queries[0], query_id=qid)


class TestMaterialize:
    def test_times_sorted_within_trace_bounds(self):
        wl = two_periods()
        arrivals = wl.materialize([_q()], seed=0)
        times = [a.time for a in arrivals]
        assert len(times) == 7
        assert times == sorted(times)
        assert all(0.0 <= t <= 30.0 for t in times)

    def test_period_counts_respected(self):
        wl = two_periods()
        times = [a.time for a in wl.materialize([_q()], seed=0)]
        assert sum(1 for t in times if t < 10.0) == 5
        assert sum(1 for t in times if t >= 10.0) == 2

    def test_cycled_queries_get_unique_ids(self):
        wl = two_periods()  # 7 arrivals from a pool of 2
        pool = [_q("qa"), _q("qb")]
        arrivals = wl.materialize(pool, seed=0)
        ids = [a.query.query_id for a in arrivals]
        assert len(set(ids)) == len(ids)
        assert ids[0] == "qa" and ids[1] == "qb"
        assert ids[2] == "qa#r1"


# ----------------------------------------------------------------------
# Zipfian workload + the per-arrival query mix
# ----------------------------------------------------------------------
class TestZipfianWorkload:
    def test_registered_generator(self):
        assert "zipf" in WORKLOAD_NAMES
        wl = make_workload("zipf", seed=0)
        assert wl.name == "zipf"

    def test_mix_covers_every_arrival(self):
        wl = zipfian_workload(seed=0, pool_size=10)
        assert len(wl.query_mix) == sum(p.n_arrivals for p in wl.periods)
        assert all(0 <= i < 10 for i in wl.query_mix)

    def test_head_is_skewed(self):
        """Zipf s>1: the most popular pool index dominates a uniform
        share by a wide margin."""
        wl = zipfian_workload(seed=0, pool_size=20, zipf_s=1.1)
        counts = [wl.query_mix.count(i) for i in range(20)]
        n_arrivals = sum(p.n_arrivals for p in wl.periods)
        assert max(counts) > 3 * (n_arrivals / 20)
        assert counts.index(max(counts)) == 0  # rank 0 is the head

    def test_json_roundtrip_preserves_mix(self, tmp_path):
        wl = zipfian_workload(seed=4, pool_size=8)
        path = tmp_path / "zipf.json"
        wl.save(path)
        back = Workload.load(path)
        assert back.query_mix == wl.query_mix
        assert back.to_json() == wl.to_json()

    def test_mixless_traces_omit_the_key(self):
        """Byte-stability: traces without a mix serialize exactly as
        before the field existed."""
        assert '"query_mix"' not in diurnal_workload(seed=0).to_json()
        assert '"query_mix"' in zipfian_workload(seed=0).to_json()

    def test_materialize_follows_mix_with_unique_ids(self):
        wl = Workload(periods=(
            WorkloadPeriod(duration_s=10.0, n_arrivals=4, label="p"),
        ), name="mixed", query_mix=(1, 0, 1, 1))
        pool = [_q("qa"), _q("qb")]
        ids = [a.query.query_id
               for a in wl.materialize(pool, seed=0)]
        assert ids == ["qb", "qa", "qb#r1", "qb#r2"]

    def test_mix_validated(self):
        with pytest.raises(ValueError):
            Workload(periods=(
                WorkloadPeriod(duration_s=10.0, n_arrivals=1, label="p"),
            ), name="bad", query_mix=(-1,))


# ----------------------------------------------------------------------
# sustained_rate (satellite 1: the capacity-planning fix)
# ----------------------------------------------------------------------
class TestSustainedRate:
    def test_pass_after_miss_does_not_count(self):
        # The exact bug: a pass at 3.0 qps after the miss at 1.5 must
        # not inflate the result (max(...) reported 3.0 here).
        outcomes = [(0.5, True), (1.0, True), (1.5, False), (3.0, True)]
        assert sustained_rate(outcomes) == 1.0

    def test_all_pass(self):
        assert sustained_rate([(1.0, True), (2.0, True)]) == 2.0

    def test_first_miss(self):
        assert sustained_rate([(0.5, False), (1.0, True)]) == 0.0

    def test_empty(self):
        assert sustained_rate([]) == 0.0

    def test_unsorted_sweep_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            sustained_rate([(2.0, True), (1.0, True)])
        with pytest.raises(ValueError, match="strictly increasing"):
            sustained_rate([(1.0, True), (1.0, False)])
