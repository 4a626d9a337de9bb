"""Fig 14: golden-configuration feedback improves the profiler.

Runs METIS with and without the §5 feedback loop on a 350-query
workload (QMSUM and FinSec in the paper) and reports the cumulative F1
trajectory plus the final improvement (paper: +4–6%).
"""

from __future__ import annotations

import numpy as np

from repro.core import MetisConfig
from repro.data import build_dataset
from repro.experiments.common import (
    DEFAULT_RATES,
    ExperimentReport,
    make_metis,
    run_policy,
)

__all__ = ["run"]

_DATASETS = ("qmsum", "finsec")
_N_QUERIES = 350
_FAST_N = 90
#: Slightly under the standard rate so the long run stays in steady
#: state and quality effects aren't confounded by queueing drift.
_RATE_SCALE = 0.8


def _cumulative_f1(records, window: int = 50) -> list[float]:
    """Trailing-window mean F1 in arrival order."""
    ordered = sorted(records, key=lambda r: r.arrival_time)
    values = [r.f1 for r in ordered]
    out = []
    for i in range(len(values)):
        lo = max(0, i - window + 1)
        out.append(float(np.mean(values[lo : i + 1])))
    return out


def run(fast: bool = False, seed: int = 0) -> ExperimentReport:
    report = ExperimentReport("Fig 14: profiler feedback improvement")
    n = _FAST_N if fast else _N_QUERIES
    for dataset in _DATASETS:
        bundle = build_dataset(dataset, seed=seed, n_queries=n)
        rate = DEFAULT_RATES[dataset] * _RATE_SCALE
        base = run_policy(
            bundle,
            make_metis(bundle, seed=seed, name="metis-no-feedback"),
            rate_qps=rate, seed=seed,
        )
        with_fb = run_policy(
            bundle,
            make_metis(
                bundle,
                MetisConfig(enable_feedback=True),
                seed=seed,
                name="metis-feedback",
            ),
            rate_qps=rate, seed=seed,
        )
        base_curve = _cumulative_f1(base.records)
        fb_curve = _cumulative_f1(with_fb.records)
        for idx in range(0, len(base_curve), max(1, len(base_curve) // 8)):
            report.add_row(dataset=dataset, query_index=idx,
                           f1_no_feedback=base_curve[idx],
                           f1_with_feedback=fb_curve[idx])
        # Final-third comparison (feedback needs warm-up).
        tail = len(base_curve) // 3
        base_tail = float(np.mean([r.f1 for r in base.records][-tail:]))
        fb_tail = float(np.mean([r.f1 for r in with_fb.records][-tail:]))
        gain = (fb_tail - base_tail) / max(base_tail, 1e-9)
        report.add_note(
            f"{dataset}: final-third F1 {base_tail:.3f} -> {fb_tail:.3f} "
            f"({gain:+.1%}; paper: +4-6%) with "
            f"{len(with_fb.records)} queries"
        )
    return report
