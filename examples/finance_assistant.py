"""Financial-QA assistant: watch METIS decide, query by query.

Walks through the full METIS pipeline on FinSec-style queries — the
profiler's four estimated dimensions, the Algorithm-1 pruned space, and
the joint scheduler's memory-aware pick — under two memory regimes
(idle GPU vs busy GPU), mirroring the paper's Fig 7/8 narrative.

Run:  python examples/finance_assistant.py
"""

from repro import build_dataset
from repro.core.mapping import map_profile_to_space
from repro.core.policy import SchedulingView
from repro.core.profiler import GPT4O_PROFILER, LLMProfiler
from repro.core.scheduler import JointScheduler
from repro.llm import MISTRAL_7B_AWQ, SimTokenizer

KV_BYTES = MISTRAL_7B_AWQ.kv_bytes_per_token


def make_view(bundle, query, available_tokens: float) -> SchedulingView:
    return SchedulingView(
        now=0.0,
        free_kv_bytes=available_tokens * KV_BYTES,
        available_kv_bytes=available_tokens * KV_BYTES,
        kv_bytes_per_token=KV_BYTES,
        chunk_tokens=bundle.chunk_tokens,
        query_tokens=query.n_tokens,
        answer_tokens=query.answer_tokens_estimate,
    )


def main() -> None:
    bundle = build_dataset("finsec", n_queries=40)
    tokenizer = SimTokenizer()
    profiler = LLMProfiler(GPT4O_PROFILER,
                           tokenizer.count(bundle.metadata), seed=0)
    scheduler = JointScheduler()

    print(f"Database: {bundle.metadata}\n")

    for query in bundle.queries[:4]:
        print("=" * 72)
        print(f"Query: {query.text}")
        result = profiler.profile(query)
        p = result.profile
        print(f"  profile: complexity={'High' if p.complexity_high else 'Low'}"
              f", joint reasoning={'Yes' if p.joint_reasoning else 'No'}"
              f", pieces={p.pieces}, summary={p.summary_range} words"
              f"  (confidence {p.confidence:.2f}, {result.api_seconds * 1e3:.0f} ms,"
              f" ${result.dollars:.5f})")
        pruned = map_profile_to_space(p)
        print(f"  pruned space: methods={[m.value for m in pruned.methods]}"
              f", chunks={pruned.num_chunks_range}"
              f", ilen={pruned.intermediate_length_range}"
              f"  ({pruned.reduction_factor():.0f}x smaller than the grid)")
        for label, tokens in (("idle GPU (60k tokens free)", 60_000),
                              ("busy GPU (6k tokens free)", 6_000)):
            decision = scheduler.choose(pruned, make_view(bundle, query, tokens))
            note = " [fallback]" if decision.fell_back else ""
            print(f"  joint pick on {label}: {decision.config.label()}{note}")
        print()


if __name__ == "__main__":
    main()
