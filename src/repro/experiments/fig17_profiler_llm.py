"""Fig 17: an open-source profiler LLM keeps the gains.

Swap GPT-4o for Llama-3.1-70B as the profiler (FinSec and Squad in the
paper). Paper: METIS still 1.4–2.1× faster than AdaptiveRAG* at similar
F1, and 10–14% higher F1 than similar-delay fixed configs.
"""

from __future__ import annotations

from repro.core import MetisConfig
from repro.core.profiler import LLAMA70B_PROFILER
from repro.experiments.common import (
    ExperimentReport,
    compare_baselines,
    load_bundle,
    make_adaptive_rag,
    make_metis,
)

__all__ = ["run"]

_DATASETS = ("finsec", "squad")


def run(fast: bool = False, seed: int = 0) -> ExperimentReport:
    report = ExperimentReport("Fig 17: Llama-70B as the profiler LLM")
    for dataset in _DATASETS:
        bundle = load_bundle(dataset, fast, seed)
        cmp = compare_baselines(
            bundle,
            make_metis(bundle, MetisConfig(profiler_spec=LLAMA70B_PROFILER),
                       seed=seed, name="metis[llama-profiler]"),
            make_adaptive_rag(bundle, profiler_spec=LLAMA70B_PROFILER,
                              seed=seed),
            seed=seed,
        )
        for system, result in (
            ("METIS (llama profiler)", cmp.metis),
            ("AdaptiveRAG* (llama profiler)", cmp.adaptive),
            (f"vLLM fixed [{cmp.similar.policy}]", cmp.similar),
        ):
            report.add_row(dataset=dataset, system=system,
                           mean_delay_s=result.mean_delay,
                           mean_f1=result.mean_f1)
        report.add_note(
            f"{dataset}: METIS {cmp.speed_vs_adaptive} than "
            f"AdaptiveRAG* (paper 1.4-2.1x); {cmp.f1_gap:+.0%} F1 over "
            f"similar-delay fixed (paper 10-14%)"
        )
    return report
