"""Smoke tests: every experiment driver runs in fast mode and produces
rows with the expected schema. These are the integration tests for the
benchmark harness itself.
"""

import pytest

from repro.experiments import (
    fig4_knobs,
    fig5_per_query,
    fig9_confidence,
    fig12_breakdown,
    fig14_feedback,
    fig16_incremental,
    fig17_profiler_llm,
    fig18_overhead,
    fig19_lowload,
    table1,
)

# fig10/11/13/15 are exercised (more cheaply) via their building
# blocks in test_integration_metis.py, and fig11 also by
# benchmarks/bench_fig11_throughput.py; running all of them here would
# double CI time for no new coverage.


@pytest.mark.parametrize("driver,required_columns", [
    (table1, {"dataset", "input_range", "output_range"}),
    (fig4_knobs, {"panel", "query", "knob", "delay_s", "f1"}),
    (fig9_confidence, {"dataset", "frac_above_threshold"}),
    (fig18_overhead, {"dataset", "mean_fraction", "max_fraction"}),
    # The only driver that turns on the §5 feedback loop.
    (fig14_feedback, {"dataset", "query_index", "f1_no_feedback",
                      "f1_with_feedback"}),
    # The only driver that swaps the profiler model.
    (fig17_profiler_llm, {"dataset", "system", "mean_delay_s", "mean_f1"}),
])
def test_light_drivers(driver, required_columns):
    report = driver.run(fast=True)
    assert report.rows
    assert required_columns.issubset(report.rows[0].keys())
    assert report.format()  # renders without error


@pytest.mark.slow
def test_fig5_fast():
    report = fig5_per_query.run(fast=True)
    kinds = {r["kind"] for r in report.rows}
    assert {"fixed-pareto", "per-query-oracle"} <= kinds


@pytest.mark.slow
def test_fig12_fast():
    report = fig12_breakdown.run(fast=True)
    systems = {r["system"] for r in report.rows}
    assert any("METIS" in s for s in systems)
    assert len(report.rows) == 8  # 4 bars x 2 datasets


@pytest.mark.slow
def test_fig16_fast():
    report = fig16_incremental.run(fast=True)
    assert len(report.rows) == 5  # fixed + 4 incremental steps


@pytest.mark.tier2
def test_fig11_replica_sweep_fast():
    """Acceptance bar: the sweep's fixed-work system scales aggregate
    throughput >= 1.8x from 1 -> 2 replicas under saturating load."""
    from repro.experiments import fig11_throughput

    report = fig11_throughput.run_replica_sweep(fast=True, replicas=(1, 2))
    tp = {(r["system"], r["replicas"]): r["throughput_qps"]
          for r in report.rows}
    ratio = tp[("vLLM(fixed)", 2)] / tp[("vLLM(fixed)", 1)]
    assert ratio >= 1.8, f"1->2 replica throughput scaling only {ratio:.2f}x"
    # METIS trades some of the scaling for quality; it must still gain.
    assert tp[("METIS", 2)] > tp[("METIS", 1)]
    assert any("1→2 replicas" in note for note in report.notes)


@pytest.mark.tier2
def test_fig11_hetero_fast():
    """Acceptance bar: on a 1.0x/0.5x two-replica fleet, the load-aware
    least-outstanding router sends measurably more queries to the fast
    replica than round-robin's even split (ISSUE 3 criterion)."""
    from repro.experiments import fig11_hetero

    report = fig11_hetero.run(fast=True)
    share = {(r["system"], r["router"]): r["fast_replica_share"]
             for r in report.rows}
    rr = share[("vLLM(fixed)", "round-robin")]
    lo = share[("vLLM(fixed)", "least-outstanding")]
    assert rr == pytest.approx(0.5, abs=0.05)  # load-blind: even split
    assert lo > rr + 0.05, (
        f"least-outstanding fast share {lo:.2f} not measurably above "
        f"round-robin's {rr:.2f}"
    )
    # Load-awareness must buy throughput, not just skew placement.
    tp = {(r["system"], r["router"]): r["throughput_qps"]
          for r in report.rows}
    assert tp[("vLLM(fixed)", "least-outstanding")] > \
        tp[("vLLM(fixed)", "round-robin")]
    assert report.notes


def test_fig_retrieval_scaling_fast():
    """Acceptance bar (ISSUE 4): sweeping K shards shows per-shard
    queue delay falling and gather overhead rising, with the pinned
    headline — scaling turns over at K=8, so K=4 is the optimum (the
    shard count past which gather/rerank overhead exceeds the
    per-shard search savings)."""
    from repro.experiments import fig_retrieval_scaling

    report = fig_retrieval_scaling.run(fast=True)
    swept = [r for r in report.rows if r["reranker"] == "off"]
    assert [r["shards"] for r in swept] == [1, 2, 4, 8]

    queue = [r["mean_shard_queue_delay_s"] for r in swept]
    gather = [r["mean_gather_s"] for r in swept]
    assert all(a > b for a, b in zip(queue, queue[1:])), queue
    assert all(a < b for a, b in zip(gather, gather[1:])), gather

    # Pinned headline: the curve bottoms at K=4 and turns over at K=8.
    retrieval = {r["shards"]: r["mean_retrieval_s"] for r in swept}
    assert min(retrieval, key=retrieval.get) == 4
    assert retrieval[8] > retrieval[4]
    assert any("turnover at K=8" in note for note in report.notes)
    assert any("best shard count K=4" in note for note in report.notes)

    # Sharding must not move quality (exact index, gather-correct).
    assert len({round(r["mean_f1"], 9) for r in report.rows}) == 1
    # The reranker comparison row prices its overhead at the optimum.
    reranked = [r for r in report.rows if r["reranker"] == "exact"]
    assert len(reranked) == 1 and reranked[0]["shards"] == 4
    assert reranked[0]["mean_rerank_s"] > 0


def test_fig_speculation_fast():
    """Acceptance bar (ISSUE 5): on the 1.0x/0.5x fleet, speculative
    hedging cuts p99 below the no-speculation baseline at a bounded
    wasted-work fraction, and the deadline-risk policy is far more
    selective than the aggressive hedge timer."""
    from repro.experiments import fig_speculation

    report = fig_speculation.run(fast=True)
    rows = {r["speculation"]: r for r in report.rows}
    assert set(rows) == {"none", "hedge@2s", "hedge@3s", "hedge@5s",
                         "deadline-risk"}

    base = rows["none"]
    assert base["hedge_rate"] == 0.0
    assert base["wasted_work_fraction"] == 0.0
    assert base["speculation_dollars"] == 0.0

    hedged = [rows[k] for k in rows if k != "none"]
    # Pinned headline: every hedging row beats the baseline tail...
    for row in hedged:
        assert row["p99_delay_s"] < base["p99_delay_s"], row["speculation"]
        # ...with bounded duplicate cost (the vs-cost axis).
        assert 0.0 < row["wasted_work_fraction"] < 0.35
        assert row["requests_cancelled"] > 0
        assert 0.0 < row["speculation_dollars"] < row["total_dollars"]

    # Earlier timers hedge (and waste) more than later ones.
    assert rows["hedge@2s"]["hedge_rate"] > rows["hedge@5s"]["hedge_rate"]
    assert (rows["hedge@2s"]["wasted_work_fraction"]
            > rows["hedge@5s"]["wasted_work_fraction"])
    # Risk-gating: far fewer hedges than the aggressive timer, and no
    # worse SLO attainment than the baseline.
    assert (rows["deadline-risk"]["hedge_rate"]
            < 0.6 * rows["hedge@2s"]["hedge_rate"])
    assert (rows["deadline-risk"]["slo_attainment"]
            >= base["slo_attainment"])
    assert len(report.notes) == 2


def test_fig_cache_fast():
    """Acceptance bar (ISSUE 7): on the Zipf repeat-heavy trace the
    exact result cache reaches >=30% hit rate while cutting mean delay
    (and $/query) by >=25% vs no-cache, the quality delta is reported
    per arm, semantic matching's hit rate is at least exact's, and the
    squeezed-capacity arm actually evicts."""
    from repro.experiments import fig_cache

    report = fig_cache.run(fast=True)
    rows = {r["cache"]: r for r in report.rows}
    base = rows["no-cache"]
    exact = rows["exact/lru"]
    assert base["hit_rate"] == 0 and base["queries"] > 0
    # Every arm served the whole trace.
    assert len({r["queries"] for r in report.rows}) == 1

    # Headline: >=30% hits, >=25% mean-delay and $/query reduction.
    assert exact["hit_rate"] >= 0.3
    assert exact["mean_delay_s"] <= 0.75 * base["mean_delay_s"]
    assert (exact["dollars_per_query"]
            <= 0.75 * base["dollars_per_query"])
    assert exact["saved_dollars"] > 0

    # The quality delta is reported on every arm, and exact repeats
    # re-score against their own ground truth (tiny |delta|).
    assert all("delta_f1" in r for r in report.rows)
    assert abs(exact["delta_f1"]) < 0.05

    # Semantic matching can only add hits on top of exact keys; its
    # quality delta is the price and must be visible (reported).
    semantic = rows["semantic"]
    assert semantic["hit_rate"] >= exact["hit_rate"]

    # The squeezed cache evicts (policy choice is exercised), the
    # roomy ones never need to.
    assert rows["exact/gdsf cap=8"]["evictions"] > 0
    assert exact["evictions"] == 0

    # The retrieval tier alone hits but leaves quality untouched.
    retrieval = rows["retrieval-only"]
    assert retrieval["hit_rate"] >= 0.3
    assert retrieval["delta_f1"] == pytest.approx(0.0)
    assert len(report.notes) == 3


def test_fig_autoscale_fast():
    """Acceptance bar (ISSUE 6): across a compressed diurnal day, the
    forecast autoscaler matches the static-peak fleet's SLO attainment
    within 2 points at measurably lower $/query, static-1 is cheapest
    but drops queries at the peak, and only the elastic arms actually
    scale."""
    from repro.experiments import fig_autoscale

    report = fig_autoscale.run(fast=True)
    rows = {r["fleet"]: r for r in report.rows}
    assert set(rows) == {"static-1", "static-3", "reactive", "forecast"}

    static_1, static_3 = rows["static-1"], rows["static-3"]
    reactive, forecast = rows["reactive"], rows["forecast"]
    # Every arm served the whole trace.
    assert len({r["queries"] for r in report.rows}) == 1
    assert static_1["queries"] > 0

    # Headline: forecast attainment within 2 points of the peak-sized
    # static fleet, at measurably lower cost per query.
    assert forecast["slo_attainment"] >= static_3["slo_attainment"] - 0.02
    assert forecast["dollars_per_query"] < 0.85 * static_3["dollars_per_query"]

    # static-1 is the cheap-but-broken corner: lowest $/query, worst
    # attainment (the midday peak exceeds one replica's capacity).
    assert static_1["dollars_per_query"] == min(
        r["dollars_per_query"] for r in report.rows)
    assert static_1["slo_attainment"] < static_3["slo_attainment"]
    assert static_1["n_replicas_peak"] == 1

    # Static fleets never scale; elastic arms both grow and unwind.
    for row in (static_1, static_3):
        assert row["scale_ups"] == 0 and row["retires"] == 0
    for row in (reactive, forecast):
        assert row["scale_ups"] > 0
        assert row["retires"] > 0
        assert row["n_replicas_peak"] > 1
    # Tracking the diurnal shape wastes less capacity than paying for
    # the peak all day.
    assert forecast["idle_fraction"] < static_3["idle_fraction"]
    assert len(report.notes) == 3


@pytest.mark.slow
def test_fig19_fast():
    report = fig19_lowload.run(fast=True)
    assert len(report.rows) == 4  # 2 systems x 2 datasets
    assert report.notes


class TestTable1Content:
    def test_matches_paper_shape(self):
        report = table1.run(fast=True)
        by_dataset = {r["dataset"]: r for r in report.rows}
        assert set(by_dataset) == {"squad", "musique", "finsec", "qmsum"}
        # Doc-level datasets have longer inputs than single-hop.
        def lo(name):
            return float(by_dataset[name]["input_range"].split(" - ")[0])
        assert lo("finsec") > lo("squad")
        assert lo("qmsum") > lo("musique")


class TestFig9Calibration:
    def test_threshold_separates(self):
        report = fig9_confidence.run(fast=True)
        for row in report.rows:
            assert row["frac_above_threshold"] > 0.8
            assert row["good_given_above"] > 0.9


def test_fig_quality_fast():
    """Acceptance bar (ISSUE 10): the decomposed metrics make each
    subsystem's quality trade visible — ivf moves faithfulness and
    context recall vs flat (nonzero deltas), exact cache hits replay
    the served context (recall delta exactly zero) while semantic hits
    pay a large recall delta for hit rate, and the quality-SLO arm
    clears its context-recall threshold at strictly lower $/query than
    unconstrained METIS."""
    from repro.experiments import fig_quality

    report = fig_quality.run(fast=True)
    rows = {(r["axis"], r["arm"]): r for r in report.rows}
    assert len(rows) == 8

    # Every arm was scored: the four metrics are real numbers.
    for r in report.rows:
        for metric in ("faithfulness", "relevancy", "precision",
                       "recall"):
            assert 0.0 <= r[metric] <= 1.0, (r["axis"], r["arm"], metric)

    # Retrieval axis: approximate search is visible on the decomposed
    # axes (direction is measured, not assumed — only nonzero is
    # pinned), and exact reranking never lowers recall below ivf's.
    ivf = rows[("retrieval", "ivf")]
    assert ivf["d_faithfulness"] != 0.0
    assert ivf["d_recall"] != 0.0
    rerank = rows[("retrieval", "ivf+rerank")]
    assert rerank["recall"] >= ivf["recall"]

    # Cache axis: exact hits re-serve the original context, so the
    # context-recall delta vanishes (per-record bit-equality is pinned
    # in test_metrics.py; the aggregate sees only summation-order
    # float dust because hit timing reorders completions); semantic
    # hits serve a neighbour's answer and pay a large recall delta.
    exact = rows[("cache", "exact")]
    assert exact["hit_rate"] >= 0.3
    assert abs(exact["d_recall"]) < 1e-12
    semantic = rows[("cache", "semantic")]
    assert semantic["hit_rate"] >= exact["hit_rate"]
    assert semantic["d_recall"] < -0.05
    assert semantic["d_faithfulness"] != 0.0

    # SLO axis: threshold-gated min cost clears the bar for less.
    metis = rows[("slo", "metis")]
    slo = next(r for (axis, arm), r in rows.items()
               if axis == "slo" and arm != "metis")
    assert slo["recall"] >= 0.7          # zero shortfall at the mean
    assert slo["dollars_per_query"] < metis["dollars_per_query"]
    assert len(report.notes) == 3
