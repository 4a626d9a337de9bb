"""Fig 15: gains persist with a larger inference LLM (Llama-3.1-70B).

Musique and QMSUM served by Llama-70B on 2× A40. Paper: METIS is
2.1–2.4× faster than AdaptiveRAG* at similar F1; fixed-config baselines
lose 7–10% F1; the bigger model itself only adds ~2% F1.
"""

from __future__ import annotations

from repro.experiments.common import (
    DEFAULT_RATES,
    RATE_SCALE_70B,
    ExperimentReport,
    compare_baselines,
    engine_config_70b,
    load_bundle,
    make_adaptive_rag,
    make_metis,
    quality_with_model_bonus,
)

__all__ = ["run"]

_DATASETS = ("musique", "qmsum")


def run(fast: bool = False, seed: int = 0) -> ExperimentReport:
    report = ExperimentReport("Fig 15: larger inference LLM (Llama-70B)")
    for dataset in _DATASETS:
        bundle = load_bundle(dataset, fast, seed)
        cmp = compare_baselines(
            bundle, make_metis(bundle, seed=seed),
            make_adaptive_rag(bundle, seed=seed),
            rate_qps=DEFAULT_RATES[dataset] * RATE_SCALE_70B, seed=seed,
            engine_config=engine_config_70b(),
            quality_params=quality_with_model_bonus(bundle, 0.02),
        )
        for system, result in (
            ("METIS", cmp.metis),
            ("AdaptiveRAG*", cmp.adaptive),
            (f"vLLM fixed [{cmp.similar.policy}]", cmp.similar),
        ):
            report.add_row(dataset=dataset, system=system,
                           mean_delay_s=result.mean_delay,
                           mean_f1=result.mean_f1)
        report.add_note(
            f"{dataset}: METIS {cmp.speed_vs_adaptive} than "
            f"AdaptiveRAG* (paper 2.1-2.4x); {cmp.f1_gap:+.0%} F1 over "
            f"similar-delay fixed config (paper 7-10%)"
        )
    return report
