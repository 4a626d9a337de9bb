"""Meeting-summarisation workload: why the summary-length knob matters.

QMSUM-style queries summarise verbose meeting spans, so ``map_reduce``
with an adequate ``intermediate_length`` dominates — but a static value
either starves complex queries or wastes latency on simple ones. This
example sweeps the knob for one query (the paper's Fig 4c), then lets
METIS pick per-query values on a sequential workload.

Run:  python examples/meeting_summarizer.py
"""

from repro import RAGConfig, SynthesisMethod, build_dataset, make_metis
from repro.experiments.common import default_engine_config, run_policy
from repro.experiments.service_time import isolated_plan_seconds
from repro.llm.costs import RooflineCostModel
from repro.llm.quality import QualityModel
from repro.synthesis import make_synthesizer


def main() -> None:
    bundle = build_dataset("qmsum", n_queries=30)
    quality = QualityModel(bundle.quality_params)
    engine = default_engine_config()
    cost = RooflineCostModel(engine.model, engine.cluster)

    query = max(bundle.queries,
                key=lambda q: q.truth.pieces_of_information)
    k = 2 * query.truth.pieces_of_information
    print(f"Query ({query.truth.pieces_of_information} pieces, "
          f"{'complex' if query.truth.complexity_high else 'simple'}):")
    print(f"  {query.text}\n")
    print(f"{'intermediate_length':>20}{'delay':>9}{'expected F1':>13}")
    hits = bundle.store.search(query.text, k)
    ctx = bundle.synthesis_context(query, [h.chunk.chunk_id for h in hits])
    for ilen in (20, 50, 100, 150, 200):
        config = RAGConfig(SynthesisMethod.MAP_REDUCE, k, ilen)
        plan = make_synthesizer(config.synthesis_method).build_plan(
            query_tokens=query.n_tokens,
            chunk_tokens=[h.chunk.n_tokens for h in hits],
            answer_tokens=query.answer_tokens_estimate, config=config,
        )
        delay = isolated_plan_seconds(plan, cost)
        f1 = quality.expected_f1(ctx, config.synthesis_method, ilen)
        print(f"{ilen:>20}{delay:>8.2f}s{f1:>13.3f}")

    print("\nServing 20 queries sequentially with METIS...")
    result = run_policy(bundle, make_metis(bundle), n_queries=20,
                        sequential=True)
    ilens = sorted(
        r.config.intermediate_length
        for r in result.records
        if r.config.synthesis_method is SynthesisMethod.MAP_REDUCE
    )
    print(f"  mean delay {result.mean_delay:.2f}s, F1 {result.mean_f1:.3f}")
    if ilens:
        print(f"  per-query intermediate_length spans {ilens[0]}-{ilens[-1]} "
              f"across {len(ilens)} map_reduce queries — no single static "
              "value serves them all.")


if __name__ == "__main__":
    main()
