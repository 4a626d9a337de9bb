"""Fig 16: each added knob improves the quality-delay tradeoff (QMSUM).

Starting from vLLM with a fixed configuration and incrementally
enabling: ``num_chunks`` adaptation → ``synthesis_method`` →
``intermediate_length`` → joint memory-aware scheduling (full METIS).
"""

from __future__ import annotations

from repro.config.knobs import RAGConfig, SynthesisMethod
from repro.baselines import FixedConfigPolicy
from repro.core import MetisConfig
from repro.experiments.common import (
    ExperimentReport,
    load_bundle,
    make_metis,
    run_policy,
)

__all__ = ["run"]

_DATASET = "qmsum"
_FIXED = RAGConfig(SynthesisMethod.STUFF, 20)


def _metis_step(adapt_chunks: bool, adapt_synthesis: bool,
                adapt_ilen: bool, schedule: bool) -> MetisConfig:
    return MetisConfig(
        adapt_num_chunks=adapt_chunks,
        adapt_synthesis=adapt_synthesis,
        adapt_intermediate_length=adapt_ilen,
        selection_mode="best_fit" if schedule else "median",
    )


def run(fast: bool = False, seed: int = 0) -> ExperimentReport:
    report = ExperimentReport("Fig 16: incremental knob adaptation (qmsum)")
    bundle = load_bundle(_DATASET, fast, seed)
    steps = [
        ("vLLM fixed (stuff, k=20)", None),
        ("+ num_chunks", _metis_step(True, False, False, False)),
        ("+ synthesis_method", _metis_step(True, True, False, False)),
        ("+ intermediate_length", _metis_step(True, True, True, False)),
        ("+ scheduling (METIS)", _metis_step(True, True, True, True)),
    ]
    baseline_delay = baseline_f1 = None
    for label, config in steps:
        if config is None:
            policy = FixedConfigPolicy(_FIXED)
        else:
            policy = make_metis(bundle, config, seed=seed, name=label)
        result = run_policy(bundle, policy, seed=seed)
        report.add_row(system=label, mean_delay_s=result.mean_delay,
                       mean_f1=result.mean_f1)
        if baseline_delay is None:
            baseline_delay, baseline_f1 = result.mean_delay, result.mean_f1
        else:
            report.add_note(
                f"{label}: delay {baseline_delay / max(result.mean_delay, 1e-9):.2f}x "
                f"vs fixed, F1 {result.mean_f1 - baseline_f1:+.3f}"
            )
    return report
