"""Ablation: METIS' §5 refinements, toggled individually.

Beyond the paper's own Fig 12/16, two design choices are worth
ablating: the confidence-threshold fallback and the best-fit-vs-median
selection. Each row serves the same workload with exactly one switch
changed from the full system.
"""

from __future__ import annotations

from repro.core import MetisConfig
from repro.experiments.common import (
    ExperimentReport,
    load_bundle,
    make_metis,
    run_policy,
)

__all__ = ["run"]

_DATASET = "finsec"

_VARIANTS: tuple[tuple[str, MetisConfig], ...] = (
    ("METIS (full)", MetisConfig()),
    ("no confidence fallback",
     MetisConfig(enable_confidence_fallback=False)),
    ("median selection", MetisConfig(selection_mode="median")),
    ("max selection (resource-oblivious)",
     MetisConfig(selection_mode="max")),
    ("narrow retrieval slack (2x)", MetisConfig(chunk_slack=2.0)),
    ("coarse ilen grid (2 steps)", MetisConfig(ilen_steps=2)),
)


def run(fast: bool = False, seed: int = 0) -> ExperimentReport:
    report = ExperimentReport(
        "Ablation: §5 refinements and scheduler choices (finsec)"
    )
    bundle = load_bundle(_DATASET, fast, seed)
    baseline = None
    for label, config in _VARIANTS:
        policy = make_metis(bundle, config, seed=seed, name=label)
        result = run_policy(bundle, policy, seed=seed)
        fell_back = sum(1 for r in result.records if r.fell_back)
        report.add_row(
            variant=label,
            mean_delay_s=result.mean_delay,
            mean_f1=result.mean_f1,
            fallbacks=fell_back,
        )
        if baseline is None:
            baseline = result
        else:
            report.add_note(
                f"{label}: delay {result.mean_delay / max(baseline.mean_delay, 1e-9):.2f}x, "
                f"F1 {result.mean_f1 - baseline.mean_f1:+.3f} vs full METIS"
            )
    report.add_note(
        "coarse ilen grid: every grid holds both ends of the "
        "intermediate_length range and best-fit takes the top end "
        "whenever it fits, so this row can differ from full METIS only "
        "under memory pressure"
    )
    return report
