"""Command-line interface: serve workloads and regenerate experiments.

Usage::

    python -m repro run --dataset finsec --policy metis --rate 1.4
    python -m repro run --dataset qmsum --policy vllm --config stuff/8
    python -m repro run --dataset finsec --policy metis --replicas 4 \\
        --router power-of-two
    python -m repro run --dataset finsec --policy metis --replicas 2 \\
        --replica-speeds 1.0,0.5 --router least-outstanding
    python -m repro run --dataset finsec --policy metis \\
        --workload diurnal --autoscaler forecast --scale-max 3 \\
        --slo-seconds 6
    python -m repro sweep --dataset finsec --policy metis \\
        --seeds 0,1,2,3 --rates 1.0,2.0 --result-cache exact --jobs 4
    python -m repro experiment fig10_delay --fast
    python -m repro datasets

Policies: ``metis``, ``adaptive-rag``, ``median``, ``vllm`` and
``parrot`` (the last two take ``--config method/num_chunks[/ilen]``).
"""

from __future__ import annotations

import argparse
import importlib
import math
import sys

from repro.baselines import FixedConfigPolicy, ParrotPolicy
from repro.caching import EVICTION_NAMES, RESULT_CACHE_MODES
from repro.config.knobs import RAGConfig, SynthesisMethod
from repro.data import DATASET_NAMES, build_dataset
from repro.evaluation.reports import (
    autoscale_rows,
    autoscale_summary,
    cache_rows,
    format_table,
    per_replica_rows,
    quality_rows,
    resource_rows,
    speculation_rows,
)
from repro.retrieval import INDEX_NAMES, RERANKER_NAMES
from repro.serving.cluster import ROUTER_NAMES
from repro.serving.speculation import SPECULATION_NAMES
from repro.workload import AUTOSCALER_NAMES, WORKLOAD_NAMES

__all__ = ["main", "parse_config_label", "parse_replica_speeds",
           "parse_shard_concurrency", "build_policy", "run_target"]

_EXPERIMENTS = (
    "table1", "fig4_knobs", "fig5_per_query", "fig9_confidence",
    "fig10_delay", "fig11_throughput", "fig11_replicas", "fig11_hetero",
    "fig12_breakdown", "fig13_cost",
    "fig14_feedback", "fig15_larger_llm", "fig16_incremental",
    "fig17_profiler_llm", "fig18_overhead", "fig18_saturation",
    "fig19_lowload", "fig_retrieval_scaling", "fig_speculation",
    "fig_autoscale", "fig_cache", "fig_quality", "ablation_refinements",
)


def parse_replica_speeds(label: str) -> list[float]:
    """Parse ``--replica-speeds`` (comma-separated multipliers).

    >>> parse_replica_speeds("1.0,0.5")
    [1.0, 0.5]
    """
    try:
        return [float(part) for part in label.split(",")]
    except ValueError:
        raise ValueError(
            f"replica-speeds must be comma-separated numbers "
            f"(e.g. 1.0,0.5), got {label!r}"
        ) from None


def parse_shard_concurrency(label: str) -> list[int]:
    """Parse ``--shard-concurrency`` (comma-separated executor counts).

    >>> parse_shard_concurrency("2,2")
    [2, 2]
    >>> parse_shard_concurrency("4")
    [4]
    """
    try:
        return [int(part) for part in label.split(",")]
    except ValueError:
        raise ValueError(
            f"shard-concurrency must be comma-separated integers "
            f"(e.g. 2,2), got {label!r}"
        ) from None


def parse_config_label(label: str) -> RAGConfig:
    """Parse ``method/num_chunks[/ilen]`` into a :class:`RAGConfig`.

    >>> parse_config_label("map_reduce/8/100")
    RAGConfig(map_reduce, chunks=8, ilen=100)
    """
    parts = label.split("/")
    usage = f"config must be method/num_chunks[/ilen], got {label!r}"
    if len(parts) not in (2, 3):
        raise ValueError(usage)
    try:
        method = SynthesisMethod(parts[0])
    except ValueError:
        known = ", ".join(m.value for m in SynthesisMethod)
        raise ValueError(
            f"unknown synthesis method {parts[0]!r}; known: {known}"
        ) from None
    try:
        sizes = [int(part) for part in parts[1:]]
    except ValueError:
        raise ValueError(usage) from None
    return RAGConfig(method, *sizes)


def build_policy(name: str, bundle, config_label: str | None, seed: int,
                 quality_slo: str | None = None):
    """Construct a policy by CLI name.

    ``quality_slo`` only steers ``metis`` (its joint scheduler flips
    to cheapest-in-range selection); fixed-config policies have no
    selection to steer, so it is measurement-only for them.
    """
    from repro.experiments.common import (
        make_adaptive_rag,
        make_median,
        make_metis,
    )

    if name == "metis":
        return make_metis(bundle, seed=seed, quality_slo=quality_slo)
    if name == "adaptive-rag":
        return make_adaptive_rag(bundle, seed=seed)
    if name == "median":
        return make_median(bundle, seed=seed)
    if name in ("vllm", "parrot"):
        if not config_label:
            raise ValueError(f"policy {name!r} requires --config")
        config = parse_config_label(config_label)
        cls = ParrotPolicy if name == "parrot" else FixedConfigPolicy
        return cls(config)
    raise ValueError(f"unknown policy {name!r}")


#: Namespace attributes argparse adds that are neither a run target
#: nor a knob.
_COMMAND_ARGS = ("command", "func")


def _shard_concurrency_knob(label: str) -> int | list[int]:
    parsed = parse_shard_concurrency(label)
    # A single value broadcasts to every shard; a list must match.
    return parsed[0] if len(parsed) == 1 else parsed


#: Knob flags whose text the runner does not take as is.
_KNOB_PARSERS = {
    "replica_speeds": parse_replica_speeds,
    "shard_concurrency": _shard_concurrency_knob,
}


def run_target(dataset: str, policy: str, config: str | None = None,
               seed: int = 0, queries: int | None = None, **knobs):
    """Serve ``queries`` of ``dataset`` with the named policy.

    The one path from a run target plus knobs to a
    :class:`~repro.evaluation.runner.RunResult`: ``run`` and every
    sweep cell call it. ``knobs`` are
    :func:`~repro.experiments.common.run_policy` /
    :class:`~repro.evaluation.runner.ExperimentRunner` keywords, passed
    as is except the text forms the CLI gives for ``replica_speeds``
    and ``shard_concurrency``, which are parsed here.
    """
    from repro.experiments.common import run_policy

    bundle = build_dataset(dataset, seed=seed, n_queries=queries)
    built = build_policy(policy, bundle, config, seed,
                         quality_slo=knobs.get("quality_slo"))
    for name, parse in _KNOB_PARSERS.items():
        if isinstance(knobs.get(name), str):
            knobs[name] = parse(knobs[name])
    return run_policy(bundle, built, seed=seed, **knobs)


def _run_title(result, workload) -> str:
    """The summary table's title: what the run was configured with."""
    title = f"{result.policy} on {result.dataset}"
    if result.n_replicas > 1:
        title += f" ({result.n_replicas} replicas, {result.router} router)"
    speeds = result.replica_speeds[:result.n_replicas]
    if any(s != 1.0 for s in speeds):
        title += f" [speeds {','.join(f'{s:g}' for s in speeds)}]"
    if result.n_retrieval_shards > 1:
        title += f" [{result.n_retrieval_shards}-shard retrieval]"
    if result.reranker is not None:
        title += f" [+{result.reranker} reranker]"
    if result.speculation is not None:
        title += f" [{result.speculation} speculation]"
    if workload is not None:
        title += f" [{workload} workload]"
    if result.autoscaler is not None:
        title += f" [{result.autoscaler} autoscaler]"
    tiers = []
    if result.result_cache is not None:
        tiers.append(f"{result.result_cache} result")
    if result.retrieval_cache:
        tiers.append("retrieval")
    if tiers:
        title += f" [{'+'.join(tiers)} cache]"
    if result.quality_slo is not None:
        title += f" [SLO {result.quality_slo}]"
    elif result.quality_metrics:
        title += " [quality metrics]"
    return title


def _cmd_run(args: argparse.Namespace) -> int:
    spec = {k: v for k, v in vars(args).items() if k not in _COMMAND_ARGS}
    result = run_target(**spec)
    rows = [dict(metric=k, value=v) for k, v in result.summary().items()]
    print(format_table(rows, title=_run_title(result,
                                              spec.get("workload"))))
    if result.quality_metrics:
        print()
        print(format_table(quality_rows(result),
                           title="Quality metrics (docs/EVALUATION.md)"))
    if result.quality_slo is not None:
        from repro.evaluation.slo import evaluate_quality_slo

        report = evaluate_quality_slo(result, result.quality_slo)
        print()
        print(format_table([report.as_row()], title="Quality SLO"))
    if result.cache_stats:
        print()
        print(format_table(cache_rows(result), title="Cache tiers"))
    if result.n_replicas > 1 or result.autoscaler is not None:
        print()
        print(format_table(per_replica_rows(result),
                           title="Per-replica serving stats"))
    if result.autoscaler is not None:
        print()
        print(format_table([autoscale_summary(result)],
                           title="Elastic capacity"))
        if result.scaling_events:
            print()
            print(format_table(autoscale_rows(result),
                               title="Scaling events"))
    if result.speculation is not None or result.slo_seconds is not None:
        print()
        print(format_table(speculation_rows(result),
                           title="Speculative scheduling"))
    if (result.n_retrieval_shards > 1 or result.reranker is not None
            or any(math.isfinite(s.concurrency)
                   for s in result.resource_stats.values())):
        print()
        print(format_table(resource_rows(result),
                           title="Pipeline resource contention"))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    module = importlib.import_module(f"repro.experiments.{args.name}")
    report = module.run(fast=args.fast, seed=args.seed)
    print(report.format())
    return 0


def _cmd_datasets(_args: argparse.Namespace) -> int:
    rows = []
    for name in DATASET_NAMES:
        bundle = build_dataset(name, n_queries=20)
        row = bundle.table1_row()
        rows.append(dict(
            dataset=name,
            chunks=len(bundle.store),
            chunk_tokens=bundle.chunk_tokens,
            input_tokens=f"{row['input_p10']:.0f}-{row['input_p90']:.0f}",
            metadata=bundle.metadata[:48] + "...",
        ))
    print(format_table(rows, title="Available datasets"))
    return 0


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    """The run target and knob flags that ``run`` and ``sweep`` share."""
    parser.add_argument("--dataset", choices=DATASET_NAMES, required=True)
    parser.add_argument("--policy", required=True,
                        choices=("metis", "adaptive-rag", "median",
                                 "vllm", "parrot"))
    parser.add_argument("--config", help="method/num_chunks[/ilen] "
                                         "(for vllm/parrot)")
    parser.add_argument("--queries", type=int, default=100)
    # Run knobs: each flag's dest is a run_policy / ExperimentRunner
    # keyword, and only flags the user sets reach the namespace, so the
    # runner alone declares, defaults and validates every knob.
    knobs = parser.add_argument_group(
        "run knobs", "forwarded to the experiment runner when set",
        argument_default=argparse.SUPPRESS)
    knobs.add_argument("--rate", dest="rate_qps", type=float,
                       metavar="RATE",
                       help="Poisson arrival rate in qps "
                            "(default: dataset-calibrated)")
    knobs.add_argument("--sequential", action="store_true",
                       help="closed-loop workload (Fig 19 mode)")
    knobs.add_argument("--closed-loop-clients", type=int,
                       help="outstanding queries in closed-loop mode "
                            "(with --sequential; default 1)")
    knobs.add_argument("--profiler-concurrency", type=int,
                       help="max in-flight profiler calls (models API "
                            "rate limits; default unbounded)")
    knobs.add_argument("--retrieval-shards", type=int,
                       help="partition the corpus across K index shards "
                            "with scatter-gather search (default 1)")
    knobs.add_argument("--shard-concurrency",
                       help="per-shard search executors: one integer "
                            "(broadcast; bounds the one pool of an "
                            "unsharded store) or a comma-separated list "
                            "whose length must equal --retrieval-shards "
                            "(default unbounded)")
    knobs.add_argument("--reranker", choices=RERANKER_NAMES,
                       help="re-score an over-fetched candidate pool "
                            "before synthesis (default off)")
    knobs.add_argument("--index", choices=INDEX_NAMES,
                       help="per-shard vector index: flat (exact L2) or "
                            "ivf (inverted-file approximation)")
    knobs.add_argument("--replicas", dest="n_replicas", type=int,
                       metavar="REPLICAS",
                       help="number of serving-engine replicas (default 1)")
    knobs.add_argument("--router", choices=ROUTER_NAMES,
                       help="cluster load-balancing policy "
                            "(with --replicas > 1)")
    knobs.add_argument("--replica-speeds",
                       help="comma-separated per-replica speed "
                            "multipliers, e.g. 1.0,0.5 (length must "
                            "equal --replicas; default: homogeneous)")
    knobs.add_argument("--slo-seconds", type=float,
                       help="per-query SLO: each query's deadline is "
                            "arrival + SLO (reported as attainment; "
                            "required by deadline-risk speculation)")
    knobs.add_argument("--speculation", choices=SPECULATION_NAMES,
                       help="speculative hedging policy: duplicate "
                            "at-risk queries onto a second replica and "
                            "cancel the loser (default none)")
    knobs.add_argument("--hedge-delay", type=float,
                       help="hedge-after-delay timer in seconds "
                            "(default: half the SLO when --slo-seconds "
                            "is set)")
    knobs.add_argument("--workload",
                       help="trace-driven arrivals: a generator name "
                            f"({', '.join(WORKLOAD_NAMES)}) or a trace "
                            "JSON path; replaces --rate (default off)")
    knobs.add_argument("--autoscaler", choices=AUTOSCALER_NAMES,
                       help="elastic capacity policy; 'none' keeps the "
                            "fleet static and the schedule byte-identical")
    knobs.add_argument("--scale-min", type=int,
                       help="autoscaler floor on active replicas "
                            "(default 1)")
    knobs.add_argument("--scale-max", type=int,
                       help="autoscaler ceiling on provisioned replicas "
                            "(default: max(4, --replicas))")
    knobs.add_argument("--autoscale-interval", type=float,
                       help="seconds between autoscaler ticks "
                            "(default 15)")
    knobs.add_argument("--provision-delay", type=float,
                       help="seconds a scale-up takes to come online "
                            "(default 30)")
    knobs.add_argument("--result-cache", choices=RESULT_CACHE_MODES,
                       help="query-result cache: hits bypass retrieval "
                            "and synthesis entirely (exact keys on "
                            "normalized text + config; semantic adds "
                            "embedding-similarity matches); off/omitted "
                            "is byte-identical to no cache")
    knobs.add_argument("--retrieval-cache", action="store_true",
                       help="memoize top-k chunk ids per (query, shard "
                            "config): hits skip scatter-gather but still "
                            "synthesize")
    knobs.add_argument("--cache-capacity", type=int,
                       help="max entries per cache tier (default 256)")
    knobs.add_argument("--cache-eviction", choices=EVICTION_NAMES,
                       help="eviction policy (default lru; gdsf ranks "
                            "entries by measured dollars+seconds saved)")
    knobs.add_argument("--semantic-threshold", type=float,
                       help="min cosine similarity for a semantic result "
                            "hit (default 0.9; requires --result-cache "
                            "semantic)")
    knobs.add_argument("--cache-ttl", type=float,
                       help="entry time-to-live in seconds (default: "
                            "no expiry)")
    knobs.add_argument("--quality-metrics", action="store_true",
                       help="score every served answer with the "
                            "multi-metric quality harness (faithfulness, "
                            "answer relevancy, context precision/recall; "
                            "docs/EVALUATION.md). Post-serve scoring: "
                            "the event schedule is untouched")
    knobs.add_argument("--quality-slo", metavar="METRIC>=VAL",
                       help="quality SLO spec, e.g. faithfulness>=0.8: "
                            "implies --quality-metrics, reports "
                            "attainment, and (with --policy metis) makes "
                            "the scheduler pick the cheapest in-range "
                            "configuration that fits")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="METIS reproduction: serve RAG workloads and "
                    "regenerate the paper's experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="serve one workload with one policy")
    _add_run_arguments(run)
    run.add_argument("--seed", type=int, default=0)
    run.set_defaults(func=_cmd_run)

    sw = sub.add_parser(
        "sweep", help="run a seed x rate grid of `run` cells",
        description="Fan deterministic (seed, rate) cells of one run "
                    "across worker processes and merge their results "
                    "as canonical JSON (identical for any --jobs).")
    _add_run_arguments(sw)
    sw.add_argument("--seeds", default="0",
                    help="comma-separated seed axis (default 0)")
    sw.add_argument("--rates",
                    help="comma-separated qps axis (default: --rate, "
                         "else dataset-calibrated)")
    sw.add_argument("--jobs", type=int, default=1,
                    help="worker processes (1 = sequential in-process; "
                         "results are identical either way)")
    sw.add_argument("--output",
                    help="write merged JSON here instead of stdout")
    sw.set_defaults(func=_cmd_sweep)

    exp = sub.add_parser("experiment", help="run one paper experiment")
    exp.add_argument("name", choices=_EXPERIMENTS)
    exp.add_argument("--fast", action="store_true")
    exp.add_argument("--seed", type=int, default=0)
    exp.set_defaults(func=_cmd_experiment)

    ds = sub.add_parser("datasets", help="list the synthetic datasets")
    ds.set_defaults(func=_cmd_datasets)
    return parser


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.sweep import canonical_json, expand_cells, sweep

    try:
        seeds = [int(s) for s in args.seeds.split(",")]
        rates = ([float(r) for r in args.rates.split(",")]
                 if args.rates else None)
    except ValueError:
        raise ValueError(
            "--seeds/--rates must be comma-separated numbers") from None
    base = {k: v for k, v in vars(args).items()
            if k not in _COMMAND_ARGS + ("seeds", "rates", "jobs", "output")}
    cells = expand_cells(base, seeds=seeds, rates=rates)
    text = canonical_json(sweep(cells, jobs=args.jobs))
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {len(cells)} cells -> {args.output}",
              file=sys.stderr)
    else:
        print(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
