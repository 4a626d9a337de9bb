"""End-to-end benchmark: three workloads through the public entry points.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload composed_zipf --seed 3 --seconds 10 --trace 0
    python3 benchmarks/e2e/run.py --seed 0 --out DIR

The first form measures one workload in this process: ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics,
and no ``--trace`` both. The second form runs every workload that way,
each in its own fresh process, one after another, and writes
``DIR/<workload>.json`` plus a Chrome trace ``DIR/<workload>.trace.json``
that Perfetto opens. Metric names, units and directions come from
``BENCHMARK.json`` at the repository root; ``benchmarks/e2e/README.md``
defines each one.

One workload run, on one thread:

1. build the corpus with ``build_dataset``; ``setup_s`` is the median
   of this build and two more, each in a fresh process;
2. draw ``SUBTRACES`` sets of arrival instants from ``--seed`` and
   serve the first once, untimed, so lazy imports and module-level
   memo tables fill;
3. serve the sets in turn for ``--seconds``, each at least once;
   ``run_wall_s`` is the fastest serve, and the simulated metrics pool
   the records of all the sets;
4. read the peak resident set;
5. serve the first set once more with the layers' entry points wrapped
   in spans (see ``spans.py``) and derive per-layer self times and
   counts.

Every reported time is scaled to a reference machine speed measured
in the same process (see :func:`calibrate`).

Every serve is checked: each arrival yields exactly one record, every
serve of one set of arrivals hashes to the same record digest (traced
included), and the ledger's total equals its parts. A failed check
names the workload on stderr and makes the exit code 1. Each metric
prints as ``workload metric value unit``; the last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

try:
    from repro.caching.cache import CostAwareCache, ResultCache, RetrievalCache
    from repro.cli import build_policy
    from repro.core.controller import MetisPolicy
    from repro.data import build_dataset
    from repro.evaluation import reports, slo
    from repro.evaluation.metrics import MetricHarness
    from repro.evaluation.pipeline import ServeStage
    from repro.evaluation.runner import ExperimentRunner, RunResult
    from repro.experiments.common import default_engine_config
    from repro.llm.generation import SimulatedGenerator
    from repro.retrieval.rerank import ExactReranker
    from repro.retrieval.sharded import ShardedVectorStore
    from repro.serving.cluster import ClusterEngine
    from repro.serving.engine import ServingEngine
    from repro.sim.kernel import EventLoop
    from repro.synthesis import (
        MapReduceSynthesizer,
        MapRerankSynthesizer,
        StuffSynthesizer,
    )
    from repro.workload import Workload, bursty_workload, zipfian_workload
except ImportError as exc:  # the benchmark alone, without the program
    raise SystemExit(f"error: cannot import the program from {SRC}: {exc}")

from spans import Tracer

#: Seed of the corpus and of each trace's shape (per-period arrival
#: counts and query sequence): the workload's fixed definition.
SHAPE_SEED = 0
#: Seed of the simulated system's own random streams (profiler and
#: generator noise, routing). ``--seed`` varies neither: it draws every
#: arrival instant, which moves every queueing interaction while each
#: metric stays a property of the workload, not of one lucky draw.
SYSTEM_SEED = 0
#: Sets of arrival instants per run. The simulated tail is set by a few
#: heavy queries, so one 20-minute trace moves its p99 by ~12% from
#: seed to seed; pooling four keeps that near 5%.
SUBTRACES = 4
#: Extra corpus builds, each in a fresh process, behind ``setup_s``.
FRESH_BUILDS = 2
#: Wall-clock limit on one child process, in seconds.
CHILD_TIMEOUT_S = 170
#: Iterations of the calibration workload (see :func:`calibrate`) and
#: its best time on an idle 2-vCPU Xeon at 2.0 GHz, the reference speed.
CALIBRATION_STEPS = 60_000
REFERENCE_CALIBRATION_S = 0.085


@dataclass(frozen=True)
class WorkloadSpec:
    """One benchmark workload: corpus, trace shape, policy, knobs."""

    name: str
    dataset: str
    trace: Callable[[], Workload]
    #: Policy and ``--config`` as the CLI's ``run`` command names them.
    policy: str
    config: str | None
    #: ``ExperimentRunner`` keyword arguments.
    knobs: dict


def _zipf(zipf_s: float) -> Callable[[], Workload]:
    return lambda: zipfian_workload(
        n_periods=40, period_s=30.0, rate_qps=1.5, pool_size=200,
        zipf_s=zipf_s, seed=SHAPE_SEED)


#: Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {spec.name: spec for spec in (
    WorkloadSpec(
        "metis_bursty", "finsec",
        lambda: bursty_workload(n_periods=40, period_s=30.0, base_qps=1.0,
                                burst_qps=6.0, seed=SHAPE_SEED),
        "metis", None,
        dict(n_replicas=2, router="least-kv-load", slo_seconds=6.0)),
    WorkloadSpec(
        "composed_zipf", "finsec", _zipf(1.1), "metis", None,
        dict(n_replicas=2, autoscaler="forecast-ewma", scale_min=1,
             scale_max=4, retrieval_shards=4, index="ivf",
             reranker="exact", speculation="hedge-after-delay",
             slo_seconds=4.0, result_cache="exact", retrieval_cache=True,
             cache_capacity=64, cache_eviction="gdsf",
             quality_slo="context_recall>=0.7")),
    WorkloadSpec(
        "semantic_churn", "qmsum", _zipf(0.6), "vllm", "stuff/8",
        dict(retrieval_shards=8, result_cache="semantic",
             semantic_threshold=0.95, retrieval_cache=True,
             cache_capacity=16, cache_eviction="lru")),
)}


# ----------------------------------------------------------------------
# Machine speed
# ----------------------------------------------------------------------
def calibrate() -> float:
    """Seconds for a fixed workload of the operations the simulator
    spends its time on: dict and tuple churn, a heap, small numpy
    products.

    On a machine shared with other tenants the CPU runs the same code
    10-40% slower for tens of seconds at a time, longer than a whole
    benchmark run. Every time the benchmark reports is therefore a
    measured wall time scaled by ``REFERENCE_CALIBRATION_S`` over the
    best calibration time measured in the same process (see
    :func:`reference_seconds`): what it would read at reference speed.
    """
    start = perf_counter()
    rng = random.Random(0)
    counts: dict = {}
    heap: list = []
    vec = np.arange(64.0)
    for i in range(CALIBRATION_STEPS):
        key = (rng.randrange(2000), i & 7)
        counts[key] = counts.get(key, 0) + 1
        heapq.heappush(heap, (rng.random(), i))
        if len(heap) > 256:
            heapq.heappop(heap)
        if i % 50 == 0:
            float(vec @ vec)
    sorted(counts.items())
    return perf_counter() - start


def reference_seconds(seconds: float, calibrations: list[float]) -> float:
    """``seconds`` of wall time at the reference machine speed."""
    return seconds * REFERENCE_CALIBRATION_S / min(calibrations)


# ----------------------------------------------------------------------
# The measured calls
# ----------------------------------------------------------------------
def build(dataset: str):
    """Build the corpus once: ``(bundle, build seconds, index seconds)``,
    the last being the time spent indexing chunks, both at reference
    speed."""
    calibrations = [calibrate() for _ in range(3)]
    with Tracer() as tracer:
        tracer.patch(ShardedVectorStore, "add_chunks", "index")
        start = perf_counter()
        bundle = build_dataset(dataset, seed=SHAPE_SEED, cache=False)
        seconds = perf_counter() - start
    index_s = tracer.self_times().get("index", 0.0)
    return (bundle, reference_seconds(seconds, calibrations),
            reference_seconds(index_s, calibrations))


_FRESH_BUILD = ("import sys; sys.path.insert(0, sys.argv[1]); import run; "
                "print(run.build(sys.argv[2])[1])")


def fresh_build_seconds(dataset: str) -> float:
    """:func:`build` seconds measured in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _FRESH_BUILD, str(HERE), dataset],
        capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S)
    return float(done.stdout.split()[-1])


def report_tables(result: RunResult) -> list[str]:
    """The tables ``python -m repro run`` prints for this configuration
    (the same conditions as ``repro.cli``), rendered but not printed."""
    tables = [[dict(metric=k, value=v) for k, v in result.summary().items()]]
    if result.quality_metrics:
        tables.append(reports.quality_rows(result))
    if result.quality_slo is not None:
        tables.append(
            [slo.evaluate_quality_slo(result, result.quality_slo).as_row()])
    if result.cache_stats:
        tables.append(reports.cache_rows(result))
    if len(result.replica_stats) > 1 or result.autoscaler:
        tables.append(reports.per_replica_rows(result))
    if result.autoscaler:
        tables.append([reports.autoscale_summary(result)])
        if result.scaling_events:
            tables.append(reports.autoscale_rows(result))
    if result.speculation or result.slo_seconds is not None:
        tables.append(reports.speculation_rows(result))
    if result.n_retrieval_shards > 1 or result.reranker:
        tables.append(reports.resource_rows(result))
    return [reports.format_table(rows) for rows in tables]


def serve(spec: WorkloadSpec, bundle, workload: Workload, seed: int):
    """One end-to-end call: what ``run_policy`` plus the CLI's report
    tables do, except that ``run_policy`` draws the arrivals and seeds
    the simulator from one seed and the benchmark needs the two apart.
    Returns ``(arrivals, result)``."""
    arrivals = workload.materialize(bundle.queries, seed=seed)
    policy = build_policy(spec.policy, bundle, spec.config, SYSTEM_SEED)
    runner = ExperimentRunner(bundle, default_engine_config(),
                              seed=SYSTEM_SEED, workload=workload,
                              **spec.knobs)
    result = runner.run(policy, arrivals)
    report_tables(result)
    return arrivals, result


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def records_digest(records) -> str:
    """SHA-256 over every record's repr (floats repr exactly)."""
    h = hashlib.sha256()
    for record in records:
        h.update(repr(record).encode())
        h.update(b"\n")
    return h.hexdigest()


class Checks:
    """Correctness of every serve in one workload run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        #: Record digest of the first serve of each arrival seed.
        self.digests: dict[int, str] = {}
        self.errors: list[str] = []

    def add(self, label: str, seed: int, arrivals, result: RunResult) -> None:
        """Check one serve of the arrivals drawn from ``seed``."""
        counts = Counter(r.query_id for r in result.records)
        ids = {a.query.query_id for a in arrivals}
        self.attempted += len(arrivals)
        self.failed += (
            sum(1 for a in arrivals if counts[a.query.query_id] != 1)
            + sum(n for qid, n in counts.items() if qid not in ids))
        digest = records_digest(result.records)
        if self.digests.setdefault(seed, digest) != digest:
            self.errors.append(f"a {label} serve of arrival seed {seed} has "
                               "another record digest than its first serve")
        ledger = result.ledger
        parts = ledger.api_dollars + ledger.gpu_dollars + ledger.idle_dollars
        if abs(ledger.total_dollars - parts) > 1e-9 * abs(ledger.total_dollars):
            self.errors.append(
                f"the {label} serve's ledger total {ledger.total_dollars!r} "
                f"is not api + gpu + idle = {parts!r}")

    def problems(self) -> list[str]:
        problems = list(self.errors)
        if self.failed:
            problems.append(f"{self.failed} of {self.attempted} arrivals did "
                            "not yield exactly one record")
        return problems


# ----------------------------------------------------------------------
# Layers
# ----------------------------------------------------------------------
PIPELINE = "evaluation.pipeline"
REPORTS = "evaluation.reports"

#: ``(owner, attribute, span)``: the entry points of each ``src/repro``
#: layer that the traced serve wraps. ``ServeStage._on_call_done`` is
#: where an engine step calls back into the pipeline, so that the
#: pipeline's work there is not counted as the engine's.
LAYER_CALLS = (
    (ServingEngine, "step", "serving.engine.step"),
    (ServingEngine, "submit", "serving.engine.submit"),
    (ClusterEngine, "submit", "serving.engine.submit"),
    (MetisPolicy, "prepare", "core.profiler.prepare"),
    (MetisPolicy, "choose", "core.decide.choose"),
    (StuffSynthesizer, "build_plan", "synthesis.build_plan"),
    (MapRerankSynthesizer, "build_plan", "synthesis.build_plan"),
    (MapReduceSynthesizer, "build_plan", "synthesis.build_plan"),
    (ShardedVectorStore, "embed_query", "retrieval.embed"),
    (ShardedVectorStore, "search_shard", "retrieval.search"),
    (ShardedVectorStore, "gather", "retrieval.gather"),
    (ShardedVectorStore, "reshard", "retrieval.reshard"),
    (ExactReranker, "rerank", "retrieval.rerank"),
    (ResultCache, "lookup", "caching.lookup"),
    (RetrievalCache, "lookup", "caching.lookup"),
    (CostAwareCache, "insert", "caching.insert"),
    (SimulatedGenerator, "generate", "llm.generate"),
    (MetricHarness, "score", "evaluation.metrics.score"),
    (ExperimentRunner, "__init__", PIPELINE),
    (ExperimentRunner, "run", PIPELINE),
    (ServeStage, "_on_call_done", PIPELINE),
    (Workload, "materialize", "workload.materialize"),
    (RunResult, "summary", REPORTS),
    (slo, "evaluate_quality_slo", REPORTS),
    *((reports, fn, REPORTS) for fn in (
        "format_table", "quality_rows", "cache_rows", "per_replica_rows",
        "autoscale_summary", "autoscale_rows", "speculation_rows",
        "resource_rows")),
)

#: Self-time metric -> span name.
SELF_TIME_METRICS = {
    "sim.kernel.self_s": "sim.kernel",
    "serving.engine.step_s": "serving.engine.step",
    "serving.engine.submit_s": "serving.engine.submit",
    "core.profiler.prepare_s": "core.profiler.prepare",
    "core.decide.choose_s": "core.decide.choose",
    "synthesis.build_plan_s": "synthesis.build_plan",
    "retrieval.embed_s": "retrieval.embed",
    "retrieval.search_s": "retrieval.search",
    "retrieval.gather_s": "retrieval.gather",
    "retrieval.rerank_s": "retrieval.rerank",
    "retrieval.reshard_s": "retrieval.reshard",
    "caching.lookup_s": "caching.lookup",
    "caching.insert_s": "caching.insert",
    "llm.generate_s": "llm.generate",
    "evaluation.metrics.score_s": "evaluation.metrics.score",
    "evaluation.pipeline.self_s": PIPELINE,
    "evaluation.reports.rows_s": REPORTS,
    "workload.materialize_s": "workload.materialize",
}

#: Call-count metric -> span name.
CALL_METRICS = {
    "serving.engine.steps": "serving.engine.step",
    "core.decide.calls": "core.decide.choose",
    "retrieval.embed.calls": "retrieval.embed",
    "retrieval.search.calls": "retrieval.search",
    "llm.generate.calls": "llm.generate",
    "evaluation.metrics.calls": "evaluation.metrics.score",
}


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer entry point, the kernel's run loop, and the
    handler of every event scheduled without a ``source``.

    Source-marked events (engine steps, autoscaler ticks) keep their
    handlers unwrapped: the step driver's and the autoscaler's own time
    lands in the kernel's self time, and the engine step nested inside
    is a span of its own.
    """
    for owner, attr, name in LAYER_CALLS:
        tracer.patch(owner, attr, name)

    def traced_schedule(schedule):
        def scheduled(loop, time, kind, handler, payload=None, source=None):
            if source is None:
                handler = tracer.wrap(handler, PIPELINE)
            return schedule(loop, time, kind, handler, payload, source)
        return scheduled

    def counted_run(run):
        traced = tracer.wrap(run, "sim.kernel")

        def counted(loop, *args, **kwargs):
            try:
                return traced(loop, *args, **kwargs)
            finally:
                tracer.counters["sim.kernel.events"] += loop.n_dispatched
        return counted

    tracer.replace(EventLoop, "schedule", traced_schedule)
    tracer.replace(EventLoop, "run", counted_run)


def layer_metrics(tracer: Tracer, result: RunResult, build_s: float,
                  index_s: float, untraced_wall_s: float,
                  traced_wall_s: float, scale: float) -> dict[str, float]:
    """Per-layer metrics of one traced serve. ``untraced_wall_s`` is the
    best untraced serve of the run; ``scale`` converts this
    process's wall seconds to reference speed (``build_s`` and
    ``index_s`` are converted already)."""
    self_s = tracer.self_times()
    calls = tracer.calls()
    events = tracer.counters["sim.kernel.events"]
    n = len(result.records)
    metrics: dict[str, float] = {
        metric: self_s.get(span, 0.0) * scale
        for metric, span in SELF_TIME_METRICS.items()}
    metrics.update({metric: calls[span]
                    for metric, span in CALL_METRICS.items()})
    metrics.update({
        "sim.kernel.events": events,
        "sim.kernel.events_per_s": events / (untraced_wall_s * scale),
        "serving.speculation.hedge_frac": result.hedge_rate,
        "serving.speculation.wasted_token_frac": result.wasted_work_fraction,
        "core.decide.fallback_frac":
            sum(1 for r in result.records if r.fell_back) / n,
        "retrieval.index_build_s": index_s,
        "caching.evictions":
            sum(s.evictions for s in result.cache_stats.values()),
        "caching.hit_frac": result.cache_hit_rate,
        "workload.autoscaler.scaling_events": len(result.scaling_events),
        "data.generate_s": build_s - index_s,
        "trace.overhead_frac": traced_wall_s / untraced_wall_s - 1.0,
        "trace.accounted_frac": sum(self_s.values()) / traced_wall_s,
    })
    return metrics


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def outcome(result: RunResult) -> tuple[list[float], list[float], float]:
    """What the simulated users saw: ``(delays, F1s, total dollars)``."""
    return ([r.e2e_delay for r in result.records],
            [r.f1 for r in result.records], result.ledger.total_dollars)


def simulated_metrics(outcomes) -> dict[str, float]:
    """Delay, quality and cost pooled over every set of arrivals."""
    delays = np.concatenate([o[0] for o in outcomes])
    return {
        "sim_delay_p50_s": float(np.percentile(delays, 50)),
        "sim_delay_p99_s": float(np.percentile(delays, 99)),
        "sim_mean_f1": float(np.mean(np.concatenate([o[1] for o in outcomes]))),
        "sim_dollars_per_query": sum(o[2] for o in outcomes) / len(delays),
    }


def peak_rss_mb() -> float:
    """This process's peak resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(spec: WorkloadSpec, seed: int, seconds: float, e2e: bool,
            layers: bool) -> dict:
    """Measure one workload; returns the result record."""
    bundle, build_s, index_s = build(spec.dataset)
    setup = [build_s]
    if e2e:
        setup += [fresh_build_seconds(spec.dataset)
                  for _ in range(FRESH_BUILDS)]
    workload = spec.trace()
    seeds = [seed * SUBTRACES + j for j in range(SUBTRACES)]
    checks = Checks()
    calibrations: list[float] = []

    def timed(label: str, arrival_seed: int):
        # Free the previous serve's reference cycles now, not whenever
        # the collector runs next, so the peak resident set repeats.
        gc.collect()
        calibrations.append(calibrate())
        start = perf_counter()
        arrivals, result = serve(spec, bundle, workload, arrival_seed)
        wall = perf_counter() - start
        checks.add(label, arrival_seed, arrivals, result)
        return wall, result

    timed("warm-up", seeds[0])
    walls: list[float] = []
    outcomes = {}
    deadline = perf_counter() + seconds
    while len(walls) < SUBTRACES or perf_counter() < deadline:
        s = seeds[len(walls) % SUBTRACES]
        wall, result = timed("timed", s)
        walls.append(wall)
        outcomes[s] = outcome(result)
        del result
    # Best of the timed serves: interference from other work on the
    # machine only ever slows a serve down. The sets of arrivals differ
    # only in their instants, so they cost the same to within ~2%.
    best_wall_s = min(walls)
    metrics: dict[str, float] = {}
    if e2e:
        metrics.update({
            "setup_s": statistics.median(setup),
            "run_wall_s": reference_seconds(best_wall_s, calibrations),
            "peak_rss_mb": peak_rss_mb(),
            **simulated_metrics(outcomes.values()),
        })
    tracer = None
    if layers:
        with Tracer() as tracer:
            install_layers(tracer)
            traced_wall_s, traced = timed("traced", seeds[0])
        metrics.update(layer_metrics(
            tracer, traced, build_s, index_s, best_wall_s, traced_wall_s,
            reference_seconds(1.0, calibrations)))
    digest = hashlib.sha256(
        "".join(checks.digests[s] for s in seeds).encode()).hexdigest()
    return dict(workload=spec.name, seed=seed, seconds=seconds,
                arrival_seeds=seeds, problems=checks.problems(),
                attempted=checks.attempted, failed=checks.failed,
                records_sha256=digest, builds_s=setup, walls_s=walls,
                calibrations_s=calibrations, metrics=metrics, tracer=tracer)


def declared_units() -> tuple[dict[str, str], dict[str, str]]:
    """``(end-to-end, per-layer)`` metric name -> unit from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_one(args: argparse.Namespace) -> int:
    spec = WORKLOADS[args.workload]
    e2e, layers = args.trace != 1, args.trace != 0
    e2e_units, layer_units = declared_units()
    units = {**(e2e_units if e2e else {}), **(layer_units if layers else {})}
    run = measure(spec, args.seed, args.seconds, e2e, layers)
    tracer = run.pop("tracer")
    metrics = run["metrics"]
    if set(metrics) != set(units):
        raise RuntimeError(
            "measured metrics differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ set(units))}")
    for name, unit in units.items():
        print(f"{spec.name} {name} {metrics[name]} {unit}")
    print(f"{spec.name} records_sha256 {run['records_sha256']}")
    for problem in run["problems"]:
        print(f"error: {spec.name}: {problem}", file=sys.stderr)
    correct = not run["problems"]
    metrics = {name: {"value": metrics[name], "unit": unit}
               for name, unit in units.items()}
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        payload = dict(run, correct=correct, metrics=metrics)
        (out / f"{spec.name}.json").write_text(
            json.dumps(payload, indent=2) + "\n")
        if tracer is not None:
            (out / f"{spec.name}.trace.json").write_text(
                json.dumps(tracer.chrome_trace()))
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own fresh process, one after another."""
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds)]
        if args.trace is not None:
            cmd += ["--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", args.out]
        if subprocess.run(cmd, timeout=CHILD_TIMEOUT_S).returncode != 0:
            print(f"error: workload {name} failed", file=sys.stderr)
            code = 1
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the METIS reproduction.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="measure one workload in this process "
                             "(default: every workload, one process each)")
    parser.add_argument("--seed", type=int, default=0,
                        help="draws the trace's arrival instants")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long the timed repetitions run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: per-layer "
                             "metrics only (default: both)")
    parser.add_argument("--out", default=None,
                        help="directory for <workload>.json and "
                             "<workload>.trace.json")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
