"""Speculative tail-latency-vs-cost curve on a heterogeneous fleet.

Serves a fixed-config workload on a two-replica 1.0x/0.5x cluster
behind a load-blind round-robin router — the regime where the slow
replica dominates the tail (fig11_hetero) — and sweeps speculative
hedging against it:

* ``none`` — the baseline tail.
* ``hedge-after-delay`` at several timers: earlier hedges duplicate
  more queries (higher wasted-work fraction, more speculation cost)
  and cut the tail deeper — tracing the tail-latency-vs-cost curve.
* ``deadline-risk`` — the model-based policy: it estimates each
  query's completion from the plan and the routed replica's queue
  depth/speed, hedging only queries whose SLO looks unreachable.
  Near-identical tail relief at a fraction of the hedge volume.

Reported per row: p50/p99 delay, SLO attainment, hedge rate, hedge
win rate, wasted-work fraction (loser-lane tokens / all processed
tokens), and the ledger's ``speculation`` dollar attribution.

Expected (pinned by ``test_experiments_smoke.py``): every hedging row
beats the baseline p99 on this fleet; wasted work stays bounded
(< 35% of processed tokens); earlier timers hedge more than later
ones; deadline-risk hedges far fewer queries than the aggressive
timer while still cutting the tail and improving SLO attainment.
"""

from __future__ import annotations

from repro.baselines import FixedConfigPolicy
from repro.config.knobs import RAGConfig, SynthesisMethod
from repro.experiments.common import ExperimentReport, load_bundle, run_policy
from repro.experiments.fig11_hetero import SPEEDS

__all__ = ["run"]

_DATASET = "finsec"
_ROUTER = "round-robin"  # load-blind: the slow replica owns the tail
_RATE_QPS = 2.0
_SLO_SECONDS = 6.0
#: hedge-after-delay timers, aggressive -> conservative.
_HEDGE_DELAYS = (2.0, 3.0, 5.0)
_FAST_N_QUERIES = 80


def _row(report: ExperimentReport, label: str, result) -> None:
    report.add_row(
        dataset=_DATASET,
        speculation=label,
        p50_delay_s=result.delay_percentile(50),
        p99_delay_s=result.delay_percentile(99),
        mean_delay_s=result.mean_delay,
        slo_attainment=result.slo_attainment,
        hedge_rate=result.hedge_rate,
        hedge_win_rate=result.hedge_win_rate,
        wasted_work_fraction=result.wasted_work_fraction,
        requests_cancelled=result.engine_stats.requests_cancelled,
        speculation_dollars=result.ledger.speculation_dollars,
        total_dollars=result.total_dollars,
    )


def run(fast: bool = False, seed: int = 0) -> ExperimentReport:
    report = ExperimentReport(
        "Speculation: tail latency vs duplicate cost on a 1.0x/0.5x fleet"
    )
    bundle = load_bundle(_DATASET, fast, seed,
                         fast_n_queries=_FAST_N_QUERIES)
    config = RAGConfig(SynthesisMethod.STUFF, 8)

    def serve(speculation: str | None = None, **kwargs):
        return run_policy(
            bundle, FixedConfigPolicy(config), rate_qps=_RATE_QPS,
            seed=seed, n_replicas=len(SPEEDS), router=_ROUTER,
            replica_speeds=list(SPEEDS), slo_seconds=_SLO_SECONDS,
            speculation=speculation, **kwargs,
        )

    baseline = serve()
    _row(report, "none", baseline)

    by_delay = {}
    for delay in _HEDGE_DELAYS:
        result = serve("hedge-after-delay", hedge_delay=delay)
        by_delay[delay] = result
        _row(report, f"hedge@{delay:g}s", result)

    risk = serve("deadline-risk")
    _row(report, "deadline-risk", risk)

    p99_0 = baseline.delay_percentile(99)
    best = min(by_delay.values(), key=lambda r: r.delay_percentile(99))
    report.add_note(
        f"{_DATASET}: hedge-after-delay cuts p99 from {p99_0:.2f}s to "
        f"{best.delay_percentile(99):.2f}s at a wasted-work fraction of "
        f"{best.wasted_work_fraction:.2f} (speculation "
        f"${best.ledger.speculation_dollars:.4f} of "
        f"${best.total_dollars:.4f} total)"
    )
    report.add_note(
        f"deadline-risk hedges {risk.hedge_rate:.2f} of queries (vs "
        f"{by_delay[min(_HEDGE_DELAYS)].hedge_rate:.2f} for the "
        f"earliest timer) for p99 {risk.delay_percentile(99):.2f}s and "
        f"SLO attainment {risk.slo_attainment:.2f} vs the baseline's "
        f"{baseline.slo_attainment:.2f} — risk-gating keeps safe "
        f"queries free"
    )
    return report
