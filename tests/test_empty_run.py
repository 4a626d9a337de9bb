"""A run that completes zero queries must report, not raise.

An autoscaled trace whose trough carries no arrivals (or a filtered
record list) legitimately produces an empty ``records``; every
aggregate accessor degrades to NaN — "no observation" — and every
report renderer returns empty structure instead of crashing (satellite
3 of the workload-engine PR).
"""

import math

import pytest

from repro.evaluation.costs import CostLedger
from repro.evaluation.reports import (
    autoscale_rows,
    autoscale_summary,
    cache_rows,
    cluster_summary,
    format_table,
    per_replica_rows,
    quality_rows,
    resource_rows,
    speculation_rows,
)
from repro.evaluation.runner import RunResult
from repro.serving.engine import EngineStats


@pytest.fixture()
def empty_result() -> RunResult:
    return RunResult(
        policy="metis",
        dataset="finsec",
        records=[],
        makespan=0.0,
        engine_stats=EngineStats(),
        ledger=CostLedger(),
        replica_stats=[EngineStats(), EngineStats()],
        replica_speeds=[1.0, 1.0],
        slo_seconds=6.0,
    )


class TestNaNSafeStats:
    def test_latency_stats_are_nan(self, empty_result):
        assert math.isnan(empty_result.mean_delay)
        assert math.isnan(empty_result.delay_percentile(50))
        assert math.isnan(empty_result.delay_percentile(99))

    def test_quality_and_stage_stats_are_nan(self, empty_result):
        assert math.isnan(empty_result.mean_f1)
        assert math.isnan(empty_result.mean_profiler_fraction)
        assert math.isnan(empty_result.mean_retrieval_seconds)
        assert math.isnan(empty_result.mean_gather_seconds)
        assert math.isnan(empty_result.retrieval_percentile(99))

    def test_slo_attainment_is_nan(self, empty_result):
        # No queries -> no observation. (With records but no stamped
        # SLOs the value stays 0.0 — pinned in test_speculation.py.)
        assert math.isnan(empty_result.slo_attainment)

    def test_quality_metric_aggregates_are_nan(self, empty_result):
        # Zero scored records -> "no observation", never ZeroDivision.
        assert empty_result.n_quality_scored == 0
        assert math.isnan(empty_result.mean_faithfulness)
        assert math.isnan(empty_result.mean_answer_relevancy)
        assert math.isnan(empty_result.mean_context_precision)
        assert math.isnan(empty_result.mean_context_recall)

    def test_quality_slo_report_is_nan_safe(self, empty_result):
        from repro.evaluation.slo import evaluate_quality_slo

        report = evaluate_quality_slo(empty_result, "faithfulness>=0.8")
        assert report.n_queries == 0
        assert math.isnan(report.attainment)
        assert math.isnan(report.mean_value)
        assert report.shortfall == 0.0
        assert format_table([report.as_row()])

    def test_rates_stay_zero(self, empty_result):
        # Rates over an empty set are "nothing happened", not unknown.
        assert empty_result.throughput_qps == 0.0
        assert empty_result.hedge_rate == 0.0
        assert empty_result.hedge_win_rate == 0.0
        assert empty_result.wasted_work_fraction == 0.0
        assert empty_result.total_dollars == 0.0


class TestReportsRender:
    def test_summary_is_nan_safe(self, empty_result):
        summary = empty_result.summary()
        assert math.isnan(summary["mean_delay_s"])
        assert summary["dollars_per_query"] == 0.0
        assert format_table([summary])

    def test_per_replica_rows_render(self, empty_result):
        rows = per_replica_rows(empty_result)
        assert len(rows) == 2
        assert all(row["queries"] == 0 for row in rows)
        assert format_table(rows)

    def test_cluster_summary_renders(self, empty_result):
        summary = cluster_summary(empty_result)
        assert summary["n_replicas"] == 2
        assert format_table([summary])

    def test_speculation_and_resource_rows_render(self, empty_result):
        rows = speculation_rows(empty_result)
        assert len(rows) == 1
        assert math.isnan(rows[0]["p99_delay_s"])
        assert format_table(rows)
        assert resource_rows(empty_result) == []

    def test_quality_rows_render(self, empty_result):
        rows = quality_rows(empty_result)
        assert len(rows) == 1  # just the "all" summary row
        assert rows[0]["path"] == "all"
        assert rows[0]["queries"] == 0
        assert math.isnan(rows[0]["faithfulness"])
        assert math.isnan(rows[0]["mean_f1"])
        assert format_table(rows)

    def test_cache_rows_render(self, empty_result):
        rows = cache_rows(empty_result)
        # Harness off (nothing scored): no hit_faithfulness column, so
        # default cache tables keep their pre-harness layout.
        assert all("hit_faithfulness" not in row for row in rows)
        assert format_table(rows) is not None

    def test_autoscale_tables_render(self, empty_result):
        assert autoscale_rows(empty_result) == []
        summary = autoscale_summary(empty_result)
        assert summary["scale_ups"] == 0
        assert format_table([summary])
