"""Quality SLO (service-level objective) analysis over run results.

The paper notes (§4.3) that METIS' loose decoupling "allows SLO-based
constraints on RAG queries if certain queries have strict budgets on
their generation latency". The latency side lives outside this
module: ``--slo-seconds`` stamps each query's deadline, which the
``deadline-risk`` speculation policy hedges against, and
:attr:`~repro.evaluation.runner.RunResult.slo_attainment` and
:meth:`~repro.evaluation.runner.RunResult.delay_percentile` report it.

Quality SLOs (``docs/EVALUATION.md``) are the same idea on the quality
axis: a :class:`~repro.evaluation.metrics.QualitySLO` threshold
("faithfulness >= 0.8") is scored per query by
:func:`evaluate_quality_slo`; attainment is the fraction of *scored*
queries clearing the bar.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.evaluation.metrics import QualitySLO
from repro.evaluation.runner import RunResult

__all__ = ["QualitySLO", "QualitySLOReport", "evaluate_quality_slo"]


@dataclass(frozen=True)
class QualitySLOReport:
    """Attainment of one quality SLO by one run.

    ``n_scored`` counts the records carrying harness scores; a run
    with records but the metric harness off scores nobody, so its
    attainment is 0.0 (nothing demonstrably cleared the bar) while an
    empty run reports NaN — the same "no observation" convention the
    latency aggregates use.
    """

    slo: QualitySLO
    n_queries: int
    n_scored: int
    n_meeting: int
    attainment: float
    mean_value: float
    #: How far the run mean falls below the threshold (0.0 when at or
    #: above it); the "budget gap" a deployer must close.
    shortfall: float

    def as_row(self) -> dict:
        """Flat dict for :func:`~repro.evaluation.reports.format_table`."""
        return dict(
            slo=self.slo.spec,
            queries=self.n_queries,
            scored=self.n_scored,
            meeting=self.n_meeting,
            attainment=self.attainment,
            mean_value=self.mean_value,
            shortfall=self.shortfall,
        )


def evaluate_quality_slo(result: RunResult,
                         slo: QualitySLO | str) -> QualitySLOReport:
    """Score a run against a quality SLO (``metric>=threshold``)."""
    if isinstance(slo, str):
        slo = QualitySLO.parse(slo)
    n_queries = len(result.records)
    values = result.metric_values(slo.metric)
    if n_queries == 0:
        return QualitySLOReport(slo, 0, 0, 0, float("nan"),
                                float("nan"), 0.0)
    if not values:
        return QualitySLOReport(slo, n_queries, 0, 0, 0.0,
                                float("nan"), 0.0)
    meeting = sum(1 for v in values if v >= slo.threshold)
    mean_value = float(np.mean(values))
    return QualitySLOReport(
        slo=slo,
        n_queries=n_queries,
        n_scored=len(values),
        n_meeting=meeting,
        attainment=meeting / len(values),
        mean_value=mean_value,
        shortfall=max(0.0, slo.threshold - mean_value),
    )
