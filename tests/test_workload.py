"""Unit tests for workload generators."""

import pytest

from repro.data.workload import (
    poisson_arrivals,
    sequential_arrivals,
)


class TestPoisson:
    def test_times_strictly_increasing(self, finsec_bundle):
        arrivals = poisson_arrivals(finsec_bundle.queries, 2.0, seed=0)
        times = [a.time for a in arrivals]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_rate_roughly_matches(self, finsec_bundle):
        queries = finsec_bundle.queries * 10  # 300 arrivals
        arrivals = poisson_arrivals(queries, 2.0, seed=0)
        span = arrivals[-1].time
        assert len(arrivals) / span == pytest.approx(2.0, rel=0.25)

    def test_deterministic_per_seed(self, finsec_bundle):
        a = poisson_arrivals(finsec_bundle.queries, 2.0, seed=5)
        b = poisson_arrivals(finsec_bundle.queries, 2.0, seed=5)
        assert [x.time for x in a] == [x.time for x in b]

    def test_seed_changes_times(self, finsec_bundle):
        a = poisson_arrivals(finsec_bundle.queries, 2.0, seed=5)
        b = poisson_arrivals(finsec_bundle.queries, 2.0, seed=6)
        assert [x.time for x in a] != [x.time for x in b]

    def test_preserves_query_order(self, finsec_bundle):
        arrivals = poisson_arrivals(finsec_bundle.queries, 2.0, seed=0)
        assert [a.query.query_id for a in arrivals] == [
            q.query_id for q in finsec_bundle.queries
        ]

    def test_rejects_bad_rate(self, finsec_bundle):
        with pytest.raises(ValueError):
            poisson_arrivals(finsec_bundle.queries, 0.0)


class TestSequential:
    def test_all_times_none(self, finsec_bundle):
        arrivals = sequential_arrivals(finsec_bundle.queries)
        assert all(a.time is None for a in arrivals)
        assert len(arrivals) == len(finsec_bundle.queries)
