"""Fig 5: per-query configuration beats every fixed configuration.

For Musique and QMSUM, compute each query's *best* configuration (the
paper's rule: lowest delay within 2% of the highest achievable quality)
over a broad grid, then compare the per-query operating point with the
Pareto frontier of fixed configurations.
"""

from __future__ import annotations

from repro.config.knobs import RAGConfig, SynthesisMethod
from repro.evaluation.pareto import ParetoPoint, pareto_frontier
from repro.experiments.common import (
    ExperimentReport,
    default_engine_config,
    load_bundle,
)
from repro.experiments.fig4_knobs import evaluate_config
from repro.llm.costs import RooflineCostModel
from repro.llm.quality import QualityModel

__all__ = ["run", "oracle_grid"]

_QUALITY_TOLERANCE = 0.02


def oracle_grid() -> list[RAGConfig]:
    """The configuration grid searched per query (coarse but broad)."""
    grid: list[RAGConfig] = []
    for k in (1, 2, 3, 5, 8, 12, 18, 25):
        grid.append(RAGConfig(SynthesisMethod.MAP_RERANK, k))
        grid.append(RAGConfig(SynthesisMethod.STUFF, k))
        for ilen in (50, 100, 150, 200):
            grid.append(RAGConfig(SynthesisMethod.MAP_REDUCE, k, ilen))
    return grid


def run(fast: bool = False, seed: int = 0) -> ExperimentReport:
    report = ExperimentReport("Fig 5: per-query config vs fixed-config Pareto")
    engine_config = default_engine_config()
    cost = RooflineCostModel(engine_config.model, engine_config.cluster)
    grid = oracle_grid()
    if fast:
        grid = grid[::3]

    for dataset in ("musique", "qmsum"):
        bundle = load_bundle(dataset, fast, seed)
        quality = QualityModel(bundle.quality_params)
        queries = bundle.queries[: (20 if fast else 80)]

        per_config: dict[RAGConfig, list[tuple[float, float]]] = {
            c: [] for c in grid
        }
        oracle_points: list[tuple[float, float]] = []
        for query in queries:
            evals = []
            for config in grid:
                delay, f1 = evaluate_config(bundle, query, config,
                                            cost, quality)
                per_config[config].append((delay, f1))
                evals.append((delay, f1, config))
            best_q = max(f1 for _, f1, _ in evals)
            eligible = [e for e in evals
                        if e[1] >= best_q * (1 - _QUALITY_TOLERANCE)]
            oracle_points.append(min(eligible, key=lambda e: e[0])[:2])

        oracle_delay = sum(d for d, _ in oracle_points) / len(oracle_points)
        oracle_f1 = sum(f for _, f in oracle_points) / len(oracle_points)
        fixed_points = [
            ParetoPoint(
                delay=sum(d for d, _ in vals) / len(vals),
                quality=sum(f for _, f in vals) / len(vals),
                label=config.label(),
            )
            for config, vals in per_config.items()
        ]
        frontier = pareto_frontier(fixed_points)
        for point in frontier:
            report.add_row(dataset=dataset, kind="fixed-pareto",
                           config=point.label, delay_s=point.delay,
                           f1=point.quality)
        report.add_row(dataset=dataset, kind="per-query-oracle",
                       config="(adaptive)", delay_s=oracle_delay,
                       f1=oracle_f1)

        # Paper claims: up to 3x delay saving vs closest-quality fixed;
        # every similar-delay fixed loses >= 10% quality.
        at_least_as_good = [p for p in fixed_points
                            if p.quality >= oracle_f1 * 0.98]
        if at_least_as_good:
            closest = min(at_least_as_good, key=lambda p: p.delay)
            report.add_note(
                f"{dataset}: per-query config is "
                f"{closest.delay / max(oracle_delay, 1e-9):.2f}x faster than "
                f"the closest-quality fixed config ({closest.label})"
            )
        faster_fixed = [p for p in fixed_points if p.delay <= oracle_delay]
        if faster_fixed:
            best_fast = max(faster_fixed, key=lambda p: p.quality)
            gap = (oracle_f1 - best_fast.quality) / max(oracle_f1, 1e-9)
            report.add_note(
                f"{dataset}: best fixed config within the oracle's delay "
                f"loses {gap:.0%} quality ({best_fast.label})"
            )
    return report
