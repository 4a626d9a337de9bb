"""Fig 10: METIS cuts delay 1.64–2.54× without sacrificing F1.

Per dataset, serve the standard workload with METIS, AdaptiveRAG*, and
the fixed-configuration grid under vLLM (FCFS) and Parrot* (app-aware);
report METIS' delay ratio over AdaptiveRAG* and its F1 gap over the
fixed configuration of most similar delay.
"""

from __future__ import annotations

from repro.data import DATASET_NAMES
from repro.experiments.common import (
    ExperimentReport,
    compare_baselines,
    load_bundle,
    make_adaptive_rag,
    make_metis,
    run_fixed_grid,
    select_best_quality,
    select_similar_delay,
)

__all__ = ["run"]


def run(fast: bool = False, seed: int = 0) -> ExperimentReport:
    report = ExperimentReport(
        "Fig 10: delay reduction at equal-or-better quality"
    )
    for dataset in DATASET_NAMES:
        bundle = load_bundle(dataset, fast, seed)
        cmp = compare_baselines(bundle, make_metis(bundle, seed=seed),
                                make_adaptive_rag(bundle, seed=seed),
                                seed=seed)
        metis, adaptive = cmp.metis, cmp.adaptive
        vllm_best = select_best_quality(cmp.grid)
        parrot_similar = select_similar_delay(
            run_fixed_grid(bundle, parrot=True, seed=seed), metis.mean_delay)
        for result, system in (
            (metis, "METIS"),
            (adaptive, "AdaptiveRAG*"),
            (vllm_best, f"vLLM best-quality ({vllm_best.policy})"),
            (cmp.similar, f"vLLM similar-delay ({cmp.similar.policy})"),
            (parrot_similar, f"Parrot* similar-delay ({parrot_similar.policy})"),
        ):
            report.add_row(
                dataset=dataset,
                system=system,
                mean_delay_s=result.mean_delay,
                p90_delay_s=result.delay_percentile(90),
                mean_f1=result.mean_f1,
            )
        report.add_note(
            f"{dataset}: METIS {cmp.speed_vs_adaptive} than "
            f"AdaptiveRAG* (paper band 1.64-2.54x) at F1 "
            f"{metis.mean_f1:.3f} vs {adaptive.mean_f1:.3f}; "
            f"{cmp.f1_gap:+.0%} F1 over similar-delay fixed config "
            f"(paper: 12-18%)"
        )
    return report
