"""Fig 13: dollar cost vs quality as the inference model grows.

METIS (Mistral-7B serving + GPT-4o profiler) against fixed-config
serving on bigger models: Llama-3.1-70B (2× A40, self-hosted) and
GPT-4o (hosted API, priced from the same token counts). Paper: fixed
configs on bigger models cost 2.38–6.8× more and still lose F1.
"""

from __future__ import annotations

from repro.baselines import FixedConfigPolicy
from repro.experiments.common import (
    DEFAULT_RATES,
    RATE_SCALE_70B,
    ExperimentReport,
    engine_config_70b,
    load_bundle,
    make_metis,
    quality_with_model_bonus,
    run_fixed_grid,
    run_policy,
    select_best_quality,
)
from repro.llm.model import GPT_4O

__all__ = ["run"]

_DATASETS = ("musique", "qmsum")


def run(fast: bool = False, seed: int = 0) -> ExperimentReport:
    report = ExperimentReport("Fig 13: cost vs quality across model sizes")
    for dataset in _DATASETS:
        bundle = load_bundle(dataset, fast, seed)
        metis = run_policy(bundle, make_metis(bundle, seed=seed), seed=seed)

        # Best-quality fixed config, served by Llama-70B on 2x A40.
        grid = run_fixed_grid(bundle, seed=seed)
        best_config = select_best_quality(grid).records[0].config
        rate70 = DEFAULT_RATES[dataset] * RATE_SCALE_70B
        fixed70 = run_policy(
            bundle,
            FixedConfigPolicy(best_config, name=f"llama70b[{best_config.label()}]"),
            rate_qps=rate70,
            seed=seed,
            engine_config=engine_config_70b(),
            quality_params=quality_with_model_bonus(bundle, 0.02),
        )

        # GPT-4o fixed config: price the same token stream at API rates.
        gpt4o_dollars = sum(
            GPT_4O.dollar_cost(r.prefill_tokens, r.output_tokens)
            for r in fixed70.records
        ) / len(fixed70.records)
        gpt4o_f1 = _rescore(bundle, fixed70, bonus=0.04, seed=seed)

        metis_cost = metis.ledger.per_query(len(metis.records))
        fixed70_cost = fixed70.ledger.per_query(len(fixed70.records))
        report.add_row(dataset=dataset, system="METIS (7B + profiler)",
                       dollars_per_query=metis_cost, mean_f1=metis.mean_f1)
        report.add_row(dataset=dataset,
                       system=f"Llama-70B fixed [{best_config.label()}]",
                       dollars_per_query=fixed70_cost,
                       mean_f1=fixed70.mean_f1)
        report.add_row(dataset=dataset,
                       system=f"GPT-4o fixed [{best_config.label()}]",
                       dollars_per_query=gpt4o_dollars, mean_f1=gpt4o_f1)
        report.add_note(
            f"{dataset}: Llama-70B fixed costs "
            f"{fixed70_cost / max(metis_cost, 1e-9):.2f}x METIS "
            f"(paper ~2.38x); GPT-4o fixed costs "
            f"{gpt4o_dollars / max(metis_cost, 1e-9):.2f}x (paper ~6.8x)"
        )
    return report


def _rescore(bundle, result, bonus: float, seed: int) -> float:
    """Re-score a run's answers under a larger-model quality bonus."""
    from repro.llm.generation import SimulatedGenerator
    from repro.llm.quality import QualityModel

    generator = SimulatedGenerator(
        quality=QualityModel(quality_with_model_bonus(bundle, bonus)),
        root_seed=seed,
    )
    total = 0.0
    for record in result.records:
        query = bundle.query_by_id(record.query_id)
        hits = bundle.store.search(query.text, record.config.num_chunks)
        ctx = bundle.synthesis_context(
            query, [h.chunk.chunk_id for h in hits]
        )
        total += generator.generate(ctx, record.config).f1
    return total / len(result.records)
