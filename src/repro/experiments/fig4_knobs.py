"""Fig 4: per-knob quality-delay tradeoffs on three query classes.

Reproduces the paper's Q1/Q2/Q3 study on Musique-style queries:

* (a) synthesis method sweep — the best method differs per query,
* (b) ``num_chunks`` sweep under ``stuff`` — quality peaks then drops,
* (c) ``intermediate_length`` sweep under ``map_reduce`` — short
  summaries starve complex queries.

Quality is the analytic expected F1 (smooth); delay is the isolated
service time of the plan on an idle engine.
"""

from __future__ import annotations

from repro.config.knobs import RAGConfig, SynthesisMethod
from repro.data.types import DatasetBundle, Query
from repro.experiments.common import (
    ExperimentReport,
    default_engine_config,
    load_bundle,
)
from repro.experiments.service_time import isolated_plan_seconds
from repro.llm.costs import RooflineCostModel
from repro.llm.quality import QualityModel
from repro.synthesis import make_synthesizer

__all__ = ["run", "pick_representative_queries", "evaluate_config"]

_CHUNK_SWEEP = (1, 2, 3, 5, 8, 12, 18, 25, 35)
_ILEN_SWEEP = (10, 25, 50, 75, 100, 150, 200)


def pick_representative_queries(bundle: DatasetBundle) -> dict[str, Query]:
    """Q1 simple/single-piece, Q2 joint/low-complexity, Q3 joint/complex.

    Queries must also show *typical* retrieval behaviour (all relevant
    chunks found within 3× pieces), so the knob sweeps reflect the knob
    rather than one query's retrieval outliers.
    """

    def typical_retrieval(query: Query) -> bool:
        relevant = bundle.relevant_chunk_ids(query)
        k = 3 * query.truth.pieces_of_information
        hits = bundle.store.search(query.text, k)
        found = {h.chunk.chunk_id for h in hits}
        return relevant.issubset(found)

    q1 = q2 = q3 = None
    for query in bundle.queries:
        t = query.truth
        if not typical_retrieval(query):
            continue
        if q1 is None and t.pieces_of_information == 1 and not t.complexity_high:
            q1 = query
        elif (q2 is None and t.joint_reasoning and not t.complexity_high
              and t.pieces_of_information >= 3):
            q2 = query
        elif (q3 is None and t.joint_reasoning and t.complexity_high
              and t.pieces_of_information >= 3):
            q3 = query
    picked = {"Q1": q1, "Q2": q2, "Q3": q3}
    missing = [k for k, v in picked.items() if v is None]
    if missing:
        raise RuntimeError(f"dataset lacks representative queries: {missing}")
    return picked


def evaluate_config(
    bundle: DatasetBundle,
    query: Query,
    config: RAGConfig,
    cost: RooflineCostModel,
    quality: QualityModel,
) -> tuple[float, float]:
    """(delay_seconds, expected_f1) for one (query, config) point."""
    hits = bundle.store.search(query.text, config.num_chunks)
    chunk_ids = [h.chunk.chunk_id for h in hits]
    ctx = bundle.synthesis_context(query, chunk_ids)
    f1 = quality.expected_f1(ctx, config.synthesis_method,
                             config.intermediate_length)
    plan = make_synthesizer(config.synthesis_method).build_plan(
        query_tokens=query.n_tokens,
        chunk_tokens=[h.chunk.n_tokens for h in hits],
        answer_tokens=query.answer_tokens_estimate,
        config=config,
    )
    return isolated_plan_seconds(plan, cost), f1


def run(fast: bool = False, seed: int = 0) -> ExperimentReport:
    bundle = load_bundle("musique", fast, seed)
    engine_config = default_engine_config()
    cost = RooflineCostModel(engine_config.model, engine_config.cluster)
    quality = QualityModel(bundle.quality_params)
    queries = pick_representative_queries(bundle)
    report = ExperimentReport("Fig 4: per-knob quality-delay tradeoffs")

    chunk_sweep = _CHUNK_SWEEP[::2] if fast else _CHUNK_SWEEP
    ilen_sweep = _ILEN_SWEEP[::2] if fast else _ILEN_SWEEP

    for label, query in queries.items():
        pieces = query.truth.pieces_of_information
        k = max(2, 2 * pieces)
        # (a) synthesis-method sweep.
        for method in SynthesisMethod:
            ilen = 100 if method.uses_intermediate_length else 0
            delay, f1 = evaluate_config(
                bundle, query, RAGConfig(method, k, ilen), cost, quality
            )
            report.add_row(panel="a:method", query=label,
                           knob=str(method), delay_s=delay, f1=f1)
        # (b) num_chunks sweep with stuff.
        for kk in chunk_sweep:
            delay, f1 = evaluate_config(
                bundle, query, RAGConfig(SynthesisMethod.STUFF, kk),
                cost, quality,
            )
            report.add_row(panel="b:num_chunks", query=label,
                           knob=kk, delay_s=delay, f1=f1)
        # (c) intermediate_length sweep with map_reduce.
        for ilen in ilen_sweep:
            delay, f1 = evaluate_config(
                bundle, query,
                RAGConfig(SynthesisMethod.MAP_REDUCE, k, ilen),
                cost, quality,
            )
            report.add_row(panel="c:ilen", query=label,
                           knob=ilen, delay_s=delay, f1=f1)

    _add_shape_notes(report, queries)
    return report


def _add_shape_notes(report: ExperimentReport, queries) -> None:
    """Summarise the paper's three qualitative claims from the rows."""
    rows = report.rows

    def best(panel: str, label: str, key):
        pts = [r for r in rows if r["panel"] == panel and r["query"] == label]
        return max(pts, key=key)

    q1_best = best("a:method", "Q1", lambda r: r["f1"] - 0.02 * r["delay_s"])
    q3_best = best("a:method", "Q3", lambda r: r["f1"])
    report.add_note(
        f"Q1 best method (quality-delay): {q1_best['knob']}; "
        f"Q3 best-quality method: {q3_best['knob']}"
    )
    for label in queries:
        pts = [r for r in rows
               if r["panel"] == "b:num_chunks" and r["query"] == label]
        peak = max(pts, key=lambda r: r["f1"])
        tail = pts[-1]
        drop = (peak["f1"] - tail["f1"]) / max(peak["f1"], 1e-9)
        report.add_note(
            f"{label}: stuff quality peaks at k={peak['knob']} "
            f"then drops {drop:.0%} by k={tail['knob']}"
        )
