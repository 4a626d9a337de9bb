"""Hit-rate + events/sec benchmark for the caching subsystem.

Drives a :class:`~repro.evaluation.pipeline.QueryPipeline` directly
(so ``loop.n_dispatched`` is visible) over the Zipf repeat-heavy
trace with the exact result cache plus the retrieval memo tier on,
and writes ``cache_zipf.json``:

* ``hit_rate`` / ``result_hit_rate`` — deterministic: the Zipf trace,
  the cache keys, and the eviction order are all seeded, so a change
  here means cache *behavior* changed (gated strictly by
  ``check_regression.py``).
* ``events_per_sec`` — wall-clock: how fast the kernel pushes the
  cached workload through (hits collapse a query's whole
  retrieve/synthesize event chain into a lookup, so this also guards
  the hit path staying cheap). Gated with the wall-clock tolerance.

Runs under plain pytest (no pytest-benchmark dependency) so the CI
``--fast`` smoke job can execute it on a bare ``numpy + pytest``
install.
"""

from __future__ import annotations

import time

from repro.baselines import FixedConfigPolicy
from repro.caching import make_cache_config
from repro.config.knobs import RAGConfig, SynthesisMethod
from repro.data import build_dataset
from repro.evaluation.pipeline import QueryPipeline
from repro.experiments.common import default_engine_config
from repro.llm.generation import SimulatedGenerator
from repro.llm.quality import QualityModel
from repro.serving.cluster import ClusterEngine
from repro.workload import zipfian_workload

from conftest import FAST, write_artifact

SEED = 0
POOL = 20
N_PERIODS = 4 if FAST else 12
ROUNDS = 2 if FAST else 5
TRACE = dict(n_periods=N_PERIODS, period_s=30.0, rate_qps=1.5,
             pool_size=POOL, zipf_s=1.1)
CONFIG = RAGConfig(SynthesisMethod.STUFF, 8)


def drive_once(bundle, arrivals):
    """One full cached run; returns (pipeline, loop dispatches)."""
    pipeline = QueryPipeline(
        bundle=bundle,
        policy=FixedConfigPolicy(CONFIG),
        engine=ClusterEngine(default_engine_config(), n_replicas=1),
        generator=SimulatedGenerator(
            quality=QualityModel(bundle.quality_params), root_seed=SEED),
        cache_config=make_cache_config(result_cache="exact",
                                       retrieval_cache=True),
    )
    pipeline.run(arrivals)
    return pipeline, pipeline.loop.n_dispatched


def test_cache_zipf_throughput():
    bundle = build_dataset("finsec", seed=SEED, n_queries=POOL)
    trace = zipfian_workload(seed=SEED, **TRACE)
    arrivals = trace.materialize(bundle.queries, seed=SEED)
    drive_once(bundle, arrivals)  # warm-up (imports, caches)
    timings = []
    pipeline = dispatched = None
    for _ in range(ROUNDS):
        start = time.perf_counter()
        pipeline, dispatched = drive_once(bundle, arrivals)
        timings.append(time.perf_counter() - start)
    best = min(timings)
    events_per_sec = dispatched / best if best > 0 else 0.0

    stats = pipeline.cache_stats()
    records = pipeline.records
    assert len(records) == len(arrivals)  # every arrival completed
    hits = sum(1 for r in records if r.cache_hit)
    hit_rate = hits / len(records)
    assert hit_rate > 0.3  # the Zipf head must actually hit

    artifact = write_artifact("cache_zipf.json", {
        "benchmark": "cache_zipf",
        "n_arrivals": len(arrivals),
        "pool_size": POOL,
        "hit_rate": hit_rate,
        "result_hit_rate": stats["result"].hit_rate,
        "retrieval_hit_rate": stats["retrieval"].hit_rate,
        "saved_dollars": stats["result"].saved_dollars,
        "events_per_run": dispatched,
        "best_seconds": best,
        "events_per_sec": events_per_sec,
        "fast_mode": FAST,
    })
    print(f"\ncache zipf: {hit_rate:.1%} hit rate, "
          f"{events_per_sec:,.0f} events/sec -> {artifact}")
