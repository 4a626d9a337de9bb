"""Multi-tier caching on a Zipf-skewed repeat-heavy trace.

Serves the same zipfian workload — steady offered load whose query
mix follows a Zipf popularity curve, so a handful of hot queries
dominate (the regime production RAG front-ends live in: FAQ-style
repetition) — with the caching subsystem (``repro.caching``,
``docs/CACHING.md``) in different configurations:

* ``no-cache`` — the baseline pipeline; every repeat pays the full
  Retrieve → Synthesize cost.
* ``exact/lru`` / ``exact/lfu`` / ``exact/gdsf`` — the query-result
  cache under each eviction policy at a capacity comfortably above
  the hot set: hits bypass retrieval and synthesis entirely.
* ``exact/small`` — the same cache squeezed to a fraction of the
  pool, where eviction policy actually has to choose (GDSF keeps the
  entries whose measured dollars+seconds benefit is largest).
* ``semantic`` — embedding-similarity matching on top of exact keys:
  near-duplicate queries hit too, trading a small quality delta for
  hit rate.
* ``retrieval-only`` — the top-k memo tier alone: hits skip
  scatter-gather but still synthesize, so the win is smaller but
  quality is untouched.

Reported per arm: hit rate, mean/p99 delay, $/query, mean F1 and its
delta vs the uncached baseline, and the tiers' measured saved
dollars.

Expected (pinned by ``test_experiments_smoke.py``): the exact result
cache achieves a >=30% hit rate and cuts mean delay (and $/query) by
>=25% vs no-cache with zero F1 delta; semantic mode's hit rate is at
least exact's; the disabled arm is byte-identical to the baseline
pipeline (that part is pinned by the golden-fingerprint tests).
"""

from __future__ import annotations

from repro.baselines import FixedConfigPolicy
from repro.config.knobs import RAGConfig, SynthesisMethod
from repro.data import build_dataset
from repro.experiments.common import ExperimentReport, run_policy
from repro.workload import zipfian_workload

__all__ = ["CAPACITY", "run", "zipf_pool"]

_DATASET = "finsec"
#: Query pool behind the Zipf mix (arrival count is ~4x this, so the
#: head queries repeat many times).
_POOL = 30
_FAST_POOL = 20
#: Steady trace: popularity skew, not rate shape, is the subject.
_TRACE = dict(n_periods=20, period_s=30.0, rate_qps=1.5, zipf_s=1.1)
_TRACE_FAST = dict(n_periods=8, period_s=30.0, rate_qps=1.5, zipf_s=1.1)
#: Roomy capacity (above the pool) vs a squeezed one (eviction bites).
CAPACITY = 256
_SMALL_CAPACITY = 8


def _row(report: ExperimentReport, label: str, result,
         baseline) -> None:
    n = len(result.records)
    base_f1 = baseline.mean_f1
    report.add_row(
        dataset=_DATASET,
        cache=label,
        hit_rate=result.cache_hit_rate,
        mean_delay_s=result.mean_delay,
        p99_delay_s=result.delay_percentile(99),
        dollars_per_query=result.ledger.per_query(n),
        mean_f1=result.mean_f1,
        delta_f1=result.mean_f1 - base_f1,
        saved_dollars=result.cache_saved_dollars,
        evictions=sum(s.evictions
                      for s in result.cache_stats.values()),
        queries=n,
    )


def zipf_pool(fast: bool, seed: int):
    """The query pool bundle and the Zipf trace over it (fig_quality's
    cache axis serves the same pair)."""
    pool = _FAST_POOL if fast else _POOL
    bundle = build_dataset(_DATASET, seed=seed, n_queries=pool)
    trace = zipfian_workload(
        seed=seed, pool_size=pool, **(_TRACE_FAST if fast else _TRACE))
    return bundle, trace


def run(fast: bool = False, seed: int = 0) -> ExperimentReport:
    report = ExperimentReport(
        "Caching: hit rate vs latency/$ on a Zipf repeat-heavy trace"
    )
    bundle, trace = zipf_pool(fast, seed)
    config = RAGConfig(SynthesisMethod.STUFF, 8)

    def serve(**cache_kwargs):
        return run_policy(
            bundle, FixedConfigPolicy(config), workload=trace,
            seed=seed, **cache_kwargs)

    baseline = serve()
    _row(report, "no-cache", baseline, baseline)
    arms = {}
    for eviction in ("lru", "lfu", "gdsf"):
        arms[eviction] = serve(result_cache="exact",
                               cache_capacity=CAPACITY,
                               cache_eviction=eviction)
        _row(report, f"exact/{eviction}", arms[eviction], baseline)
    small = serve(result_cache="exact", cache_capacity=_SMALL_CAPACITY,
                  cache_eviction="gdsf")
    _row(report, f"exact/gdsf cap={_SMALL_CAPACITY}", small, baseline)
    semantic = serve(result_cache="semantic", cache_capacity=CAPACITY,
                     semantic_threshold=0.9)
    _row(report, "semantic", semantic, baseline)
    retrieval = serve(retrieval_cache=True, cache_capacity=CAPACITY)
    _row(report, "retrieval-only", retrieval, baseline)

    exact = arms["lru"]
    n_base = len(baseline.records)
    delay_cut = 1.0 - exact.mean_delay / baseline.mean_delay
    dollar_cut = 1.0 - (exact.ledger.per_query(len(exact.records))
                        / baseline.ledger.per_query(n_base))
    report.add_note(
        f"{_DATASET}: the exact result cache hits "
        f"{exact.cache_hit_rate:.0%} of the Zipf trace and cuts mean "
        f"delay {delay_cut:.0%} / $ per query {dollar_cut:.0%} vs "
        f"no-cache, with F1 delta "
        f"{exact.mean_f1 - baseline.mean_f1:+.4f} (exact repeats "
        f"re-score identically)"
    )
    report.add_note(
        f"semantic matching lifts the hit rate to "
        f"{semantic.cache_hit_rate:.0%} (>= exact's "
        f"{exact.cache_hit_rate:.0%}) at F1 delta "
        f"{semantic.mean_f1 - baseline.mean_f1:+.4f} — near-duplicate "
        f"answers are close but not free"
    )
    report.add_note(
        f"the retrieval tier alone hits "
        f"{retrieval.cache_hit_rate:.0%} but only skips "
        f"scatter-gather, so its delay cut "
        f"({1.0 - retrieval.mean_delay / baseline.mean_delay:.0%}) is "
        f"modest and its F1 delta is "
        f"{retrieval.mean_f1 - baseline.mean_f1:+.4f}"
    )
    return report
