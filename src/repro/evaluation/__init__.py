"""Evaluation: quality metrics, cost accounting, Pareto utilities,
workload runner, and report formatting.

``runner`` and ``reports`` are imported lazily (PEP 562) because they
pull in the serving and core packages; the light leaf modules (``f1``,
``pareto``, ``costs``) are imported eagerly so that low-level packages
(e.g. :mod:`repro.llm.generation`) can depend on them without cycles.
"""

from repro.evaluation.costs import CostLedger, DollarCostModel
from repro.evaluation.f1 import precision_recall, token_f1
from repro.evaluation.pareto import ParetoPoint, pareto_frontier

__all__ = [
    "CostLedger",
    "DollarCostModel",
    "ExperimentRunner",
    "MetricHarness",
    "ParetoPoint",
    "QualityMetrics",
    "QualitySLO",
    "QueryRecord",
    "RunResult",
    "cluster_summary",
    "evaluate_quality_slo",
    "pareto_frontier",
    "per_replica_rows",
    "precision_recall",
    "quality_rows",
    "speculation_rows",
    "token_f1",
]

_LAZY = {
    "ExperimentRunner": "repro.evaluation.runner",
    "MetricHarness": "repro.evaluation.metrics",
    "QualityMetrics": "repro.evaluation.metrics",
    "QualitySLO": "repro.evaluation.metrics",
    "QueryRecord": "repro.evaluation.pipeline",
    "RunResult": "repro.evaluation.runner",
    "cluster_summary": "repro.evaluation.reports",
    "evaluate_quality_slo": "repro.evaluation.slo",
    "per_replica_rows": "repro.evaluation.reports",
    "quality_rows": "repro.evaluation.reports",
    "speculation_rows": "repro.evaluation.reports",
}


def __getattr__(name: str):
    if name in _LAZY:
        import importlib

        module = importlib.import_module(_LAZY[name])
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
