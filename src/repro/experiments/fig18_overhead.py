"""Fig 18: the profiler is at most 1/10 of end-to-end delay.

Reports the distribution of per-query profiler delay fraction for
METIS runs on every dataset (paper: mean 0.03–0.06, max ≈ 0.1).

:func:`run_load_sweep` is the contention variant the paper cannot
show: with the profiler modeled as a finite-concurrency resource (API
rate limit), overhead is *load-dependent* — sweeping the arrival rate
across the profiler's saturation point makes queries queue for a
profiler slot and the overhead fraction climb with utilization.
"""

from __future__ import annotations

import numpy as np

from repro.data import DATASET_NAMES
from repro.evaluation.pipeline import PROFILER_RESOURCE
from repro.experiments.common import (
    ExperimentReport,
    load_bundle,
    make_metis,
    run_policy,
)

__all__ = ["run", "run_load_sweep"]


def run(fast: bool = False, seed: int = 0) -> ExperimentReport:
    report = ExperimentReport("Fig 18: profiler delay fraction")
    for dataset in DATASET_NAMES:
        bundle = load_bundle(dataset, fast, seed)
        result = run_policy(bundle, make_metis(bundle, seed=seed), seed=seed)
        fractions = np.asarray([r.profiler_fraction for r in result.records])
        report.add_row(
            dataset=dataset,
            mean_fraction=float(fractions.mean()),
            p50_fraction=float(np.percentile(fractions, 50)),
            p90_fraction=float(np.percentile(fractions, 90)),
            max_fraction=float(fractions.max()),
            mean_profiler_s=float(
                np.mean([r.profiler_seconds for r in result.records])
            ),
        )
    report.add_note(
        "paper: average fraction 0.03-0.06, max ~0.1 (squad's short "
        "service times inflate the fraction in the simulator)"
    )
    return report


def run_load_sweep(fast: bool = False, seed: int = 0,
                   dataset: str = "finsec",
                   profiler_concurrency: int = 1) -> ExperimentReport:
    """Profiler overhead vs offered load under a profiler rate limit.

    One profiler slot serves ~1/0.147s ≈ 6.8 calls/s, so the rate
    sweep crosses its saturation point: below it only Poisson bursts
    queue (small, bounded delays — close to the unbounded default's
    exactly-zero waits); above it the queue grows without bound and
    the overhead fraction climbs with load.
    """
    report = ExperimentReport(
        "Fig 18 (load sweep): profiler queueing under saturation"
    )
    bundle = load_bundle(dataset, fast, seed)
    n = 20 if fast else 60
    for rate in (2.0, 5.0, 8.0, 12.0):
        result = run_policy(
            bundle, make_metis(bundle, seed=seed),
            rate_qps=rate, n_queries=n, seed=seed,
            profiler_concurrency=profiler_concurrency,
        )
        stats = result.resource_stats[PROFILER_RESOURCE]
        waits = np.asarray([r.profiler_queue_delay for r in result.records])
        report.add_row(
            rate_qps=rate,
            profiler_concurrency=profiler_concurrency,
            profiler_utilization=stats.utilization(result.makespan),
            queued_fraction=stats.queued_fraction,
            mean_queue_delay_s=float(waits.mean()),
            p90_queue_delay_s=float(np.percentile(waits, 90)),
            peak_queue_len=stats.peak_queue_len,
            mean_overhead_fraction=result.mean_profiler_fraction,
        )
    report.add_note(
        f"{dataset}: one profiler slot saturates near 6.8 qps — below "
        "that only Poisson bursts queue (small bounded delays); above "
        "it queue delay (and thus the Fig 18 overhead fraction) grows "
        "with offered load. Unbounded concurrency reproduces the "
        "paper's load-independent overhead with exactly zero waits."
    )
    return report
