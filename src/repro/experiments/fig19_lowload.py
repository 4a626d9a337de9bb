"""Fig 19: METIS wins even at low load (sequential queries).

Closed-loop workload: each query is sent only after the previous one
completes, so there is no queueing contention; METIS' best-fit picks
the most expensive pruned configuration. Paper: still 1.48–1.56× faster
than the best-quality fixed configuration (QMSUM and Musique shown).
"""

from __future__ import annotations

from repro.baselines import FixedConfigPolicy
from repro.experiments.common import (
    ExperimentReport,
    load_bundle,
    make_metis,
    run_fixed_grid,
    run_policy,
    select_best_quality,
)

__all__ = ["run"]

_DATASETS = ("qmsum", "musique")


def run(fast: bool = False, seed: int = 0) -> ExperimentReport:
    report = ExperimentReport("Fig 19: low-load (sequential) serving")
    for dataset in _DATASETS:
        bundle = load_bundle(dataset, fast, seed)
        n = 30 if fast else 80
        metis = run_policy(bundle, make_metis(bundle, seed=seed),
                           n_queries=n, seed=seed, sequential=True)
        # Best-quality fixed config, also served sequentially.
        grid = run_fixed_grid(bundle, n_queries=n, seed=seed)
        best_config = select_best_quality(grid).records[0].config
        fixed = run_policy(bundle, FixedConfigPolicy(best_config),
                           n_queries=n, seed=seed, sequential=True)
        report.add_row(dataset=dataset, system="METIS",
                       mean_delay_s=metis.mean_delay, mean_f1=metis.mean_f1)
        report.add_row(dataset=dataset,
                       system=f"vLLM best-quality [{best_config.label()}]",
                       mean_delay_s=fixed.mean_delay, mean_f1=fixed.mean_f1)
        report.add_note(
            f"{dataset}: METIS "
            f"{fixed.mean_delay / max(metis.mean_delay, 1e-9):.2f}x faster "
            f"under sequential load (paper 1.48-1.56x)"
        )
    return report
